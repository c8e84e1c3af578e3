(* One pass of a workload, run in a fresh process: set up, time every
   point untraced through the library's runner, check the outputs, and —
   when traced — rebuild each point under spans and build the layer
   ledger. The pass prints one JSON line; [run.py] repeats passes and
   reports medians. *)

module Run = Experiments.Run

type timed = {
  wp : Workload.point;
  point : Run.point;
  host_ns : int;  (** wall time of the whole [run_point] call *)
  minor_words : float;
  ref_ns : float;  (** {!Reference.ns_per_op} just before the point *)
}

(* Where a traced point's host time went. [total_ns] is the [Sim.run]
   span; the components partition it exactly: self times of the wrapped
   layers, the engine's share as events x measured cycle cost, and the
   residual, which is everything else inside [Sim.run] — the system
   models and the generator's arrival path. *)
type ledger = {
  lp : Workload.point;
  completed : int;
  events : int;
  cycle_ns : float;
  total_ns : float;
  engine_ns : float;
  submit_ns : float;
  complete_ns : float;
  cluster_ns : float;
  residual_ns : float;
}

let ledger_of (wp : Workload.point) (r : Compose.result) ~cycle_ns =
  let sp = r.Compose.spans in
  let self k = float_of_int (Spans.self_ns sp k) in
  let events = r.Compose.stats.Engine.Sim.fired in
  let engine_ns = float_of_int events *. cycle_ns in
  let submit_ns = self Spans.Submit and complete_ns = self Spans.Complete in
  let cluster_ns = self Spans.Tor_submit +. self Spans.Tor_respond in
  {
    lp = wp;
    completed = r.Compose.point.Run.completed;
    events;
    cycle_ns;
    total_ns = float_of_int (Spans.total_ns sp Spans.Run);
    engine_ns;
    submit_ns;
    complete_ns;
    cluster_ns;
    residual_ns = self Spans.Run -. engine_ns;
  }

let ledger_sum l = l.engine_ns +. l.submit_ns +. l.complete_ns +. l.cluster_ns +. l.residual_ns

(* Each point starts from a collected heap, so neither its time nor the
   peak heap carries garbage left over from the point before. *)
let time_point wp =
  Gc.full_major ();
  let ref_ns = Reference.ns_per_op ~ops:50_000 in
  let w0 = Gc.minor_words () in
  let t0 = Spans.now_ns () in
  let point = Workload.run wp in
  let host_ns = Spans.now_ns () - t0 in
  let minor_words = Gc.minor_words () -. w0 in
  { wp; point; host_ns; minor_words; ref_ns }

(* The engine cycle at the pending depth the point actually reached
   (mean [Sim.live] at its ingress calls), with the point's own event
   horizon. *)
let point_cycle_ns (r : Compose.result) =
  let depth = r.Compose.mean_depth in
  let events = float_of_int (max 1 r.Compose.stats.Engine.Sim.fired) in
  let mean_delay = depth *. r.Compose.sim_end /. events in
  Micro.engine_cycle_ns ~reps:3 ~ops:100_000 ~depth:(int_of_float (Float.round depth))
    ~mean_delay

(* Stolen over dispatched events from the summed counters. A rack's
   merged [steal_fraction] key adds the servers' ratios up instead, so
   it is not read. *)
let steal_fraction points =
  let sum key = List.fold_left (fun acc p -> acc +. Checks.info p key) 0. points in
  let local = sum "local_events" and stolen = sum "stolen_events" in
  if local +. stolen > 0. then stolen /. (local +. stolen) else 0.

(* Per-layer metrics of one traced pass. Per-request figures are totals
   over the workload's points divided by its measured completions; the
   microbenchmarks run at the paper's 16 cores and 2752 connections. *)
let layers ~(timed : timed list) ~(traced : (Compose.result * ledger) list) =
  let fi = float_of_int in
  let sum f = List.fold_left (fun acc (r, l) -> acc +. f r l) 0. traced in
  let peak f = List.fold_left (fun acc (r, l) -> Float.max acc (f r l)) 0. traced in
  let ratio a b = if b > 0. then a /. b else 0. in
  let info key = sum (fun r _ -> Checks.info r.Compose.point key) in
  let calls k = sum (fun r _ -> fi (Spans.calls r.Compose.spans k)) in
  let self_per_call k = ratio (sum (fun r _ -> fi (Spans.self_ns r.Compose.spans k))) (calls k) in
  let req = sum (fun _ l -> fi l.completed) in
  let events = sum (fun _ l -> fi l.events) in
  let engine = sum (fun _ l -> l.engine_ns) and residual = sum (fun _ l -> l.residual_ns) in
  let rack_submits = calls Spans.Tor_submit and dispatched = info "rack_dispatched" in
  let points = fi (List.length traced) in
  let untraced_ns = List.fold_left (fun acc t -> acc +. fi t.host_ns) 0. timed in
  let traced_ns =
    sum (fun r l -> fi (r.Compose.build_ns + r.Compose.reduce_ns) +. l.total_ns)
  in
  let cores = Workload.cores and conns = Workload.conns in
  [
    ("engine.events_per_req", ratio events req);
    ( "engine.cancels_per_req",
      ratio (sum (fun r _ -> fi r.Compose.stats.Engine.Sim.cancelled)) req );
    ("engine.pool_slots", peak (fun r _ -> fi r.Compose.stats.Engine.Sim.pool_slots));
    ("engine.cycle_ns", ratio engine events);
    ("engine.attributed_ns_per_req", ratio engine req);
    ("net.submit_ns", self_per_call Spans.Submit);
    ("net.loadgen.complete_ns", self_per_call Spans.Complete);
    ( "net.rss.queue_of_conn_ns",
      Micro.rss_queue_of_conn_ns ~reps:3 ~ops:500_000 ~queues:cores ~conns );
    ("net.request.pool_hwm", peak (fun r _ -> fi r.Compose.pool_hwm));
    ( "net.request.reuse_ratio",
      ratio
        (sum (fun r _ -> fi r.Compose.pool_allocated))
        (sum (fun r _ -> fi r.Compose.pool_hwm)) );
    ("net.loadgen.retries_per_req", ratio (sum (fun r _ -> fi r.Compose.retries)) req);
    ("net.loadgen.timeouts_per_req", ratio (sum (fun r _ -> fi r.Compose.timeouts)) req);
    ("net.loadgen.duplicates_per_req", ratio (sum (fun r _ -> fi r.Compose.duplicates)) req);
    ( "net.loadgen.useful_ratio",
      ratio (sum (fun r _ -> fi r.Compose.distinct)) (sum (fun r _ -> fi r.Compose.sends)) );
    ("systems.residual_ns_per_req", ratio residual req);
    ("systems.ns_per_event", ratio residual events);
    ( "systems.zygos.steal_fraction",
      steal_fraction (List.map (fun (r, _) -> r.Compose.point) traced) );
    ("systems.zygos.ipis_per_req", ratio (info "ipis_sent") req);
    ("systems.zygos.remote_batches_per_req", ratio (info "remote_batches") req);
    ("core.sched.local_cycle_ns", Micro.sched_local_cycle_ns ~reps:3 ~ops:200_000 ~cores ~conns);
    ("core.sched.steal_cycle_ns", Micro.sched_steal_cycle_ns ~reps:3 ~ops:200_000 ~cores ~conns);
    ("cluster.submit_ns", self_per_call Spans.Tor_submit);
    ("cluster.copies_per_req", ratio dispatched rack_submits);
    ("cluster.useful_ratio", ratio (calls Spans.Complete) dispatched);
    ("cluster.tor_peak", peak (fun r _ -> Checks.info r.Compose.point "rack_tor_peak"));
    ("cluster.failovers_per_req", ratio (info "rack_failovers") rack_submits);
    ("cluster.hedges_per_req", ratio (info "rack_hedges") rack_submits);
    ("stats.tally.record_ns", Micro.tally_record_ns ~reps:3 ~ops:500_000);
    ("stats.tally.reduce_ms", ratio (sum (fun r _ -> fi r.Compose.reduce_ns)) points /. 1e6);
    ("experiments.point_setup_ms", ratio (sum (fun r _ -> fi r.Compose.build_ns)) points /. 1e6);
    ("experiments.tracing_overhead_frac", ratio traced_ns untraced_ns -. 1.);
  ]

type outcome = {
  attempted : Workload.point list;
  first_timed_ns : int;
  timed : timed list;
  top_heap_words : int;
  digest : string;
  traced_digest : string option;
  failures : (string * string) list;  (** (point, message) *)
  ledgers : ledger list;
  layer_metrics : (string * float) list;
}

let point_name (wp : Workload.point) =
  Printf.sprintf "%s@%s" wp.Workload.system wp.Workload.label

(* A point that fails any check counts once, however many checks it
   failed; a point whose run raised counts as failed too. *)
let failed_points ~attempted failures =
  let failed wp = List.exists (fun (n, _) -> String.equal n (point_name wp)) failures in
  List.length (List.filter failed attempted)

let run ~workload ~seed ~scale ~traced ~check_composition ~check_heap ?trace_out () =
  (* Timed points run on the timing wheel, the simulator's default,
     whatever [ZYGOS_EQUEUE] says. *)
  Engine.Sim.set_default_queue Engine.Equeue.Wheel;
  let wl = Workload.make workload ~seed ~scale in
  (* Set-up: the whole workload once at a tenth of the size, and the
     reference loop once, so code, caches and the heap are warm before
     the first timed point. *)
  let warm = Workload.make workload ~seed ~scale:(scale /. 10.) in
  List.iter (fun wp -> ignore (Workload.run wp)) warm;
  ignore (Reference.ns_per_op ~ops:50_000);
  let failures = ref [] in
  let fail wp msgs = List.iter (fun m -> failures := (point_name wp, m) :: !failures) msgs in
  let first_timed_ns = Spans.now_ns () in
  let timed =
    List.filter_map
      (fun wp ->
        match time_point wp with
        | t -> Some t
        | exception e ->
            fail wp [ "raised " ^ Printexc.to_string e ];
            None)
      wl
  in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let digest = Checks.digest (List.map (fun t -> t.point) timed) in
  List.iter
    (fun t -> fail t.wp (Checks.point_invariants ~fault_free:(Workload.fault_free t.wp) t.point))
    timed;
  let traced_points =
    if traced || check_composition then
      List.filter_map
        (fun t ->
          match Compose.run t.wp with
          | r ->
              fail t.wp (Checks.compare_points ~expected:t.point ~actual:r.Compose.point);
              fail t.wp
                (Checks.conservation ~fault_free:(Workload.fault_free t.wp) t.point
                   ~measured_generated:r.Compose.measured_generated
                   ~wc_violations:r.Compose.wc_violations);
              Some (t, r)
          | exception e ->
              fail t.wp [ "traced run raised " ^ Printexc.to_string e ];
              None)
        timed
    else []
  in
  let traced_digest =
    match traced_points with
    | [] -> None
    | l -> Some (Checks.digest (List.map (fun (_, r) -> r.Compose.point) l))
  in
  let ledgers, layer_metrics =
    if not traced then ([], [])
    else begin
      let with_ledger =
        List.map
          (fun (t, r) ->
            let l = ledger_of t.wp r ~cycle_ns:(point_cycle_ns r) in
            if Float.abs (ledger_sum l -. l.total_ns) > 1e-6 *. Float.max 1. l.total_ns then
              fail t.wp [ Printf.sprintf "ledger sums to %g of %g ns" (ledger_sum l) l.total_ns ];
            (r, l))
          traced_points
      in
      (List.map snd with_ledger, layers ~timed ~traced:with_ledger)
    end
  in
  Option.iter
    (fun file ->
      let oc = open_out file in
      output_string oc Spans.csv_header;
      List.iter
        (fun (t, r) -> Spans.write oc ~point:(point_name t.wp) r.Compose.spans)
        traced_points;
      close_out oc)
    trace_out;
  (* Last, because it switches the process-wide queue default. *)
  if check_heap then begin
    Engine.Sim.set_default_queue Engine.Equeue.Heap;
    List.iter
      (fun t ->
        match Workload.run t.wp with
        | heap ->
            fail t.wp
              (List.map
                 (fun m -> "heap vs wheel " ^ m)
                 (Checks.compare_points ~expected:t.point ~actual:heap))
        | exception e -> fail t.wp [ "heap run raised " ^ Printexc.to_string e ])
      timed
  end;
  {
    attempted = wl;
    first_timed_ns;
    timed;
    top_heap_words;
    digest;
    traced_digest;
    failures = List.rev !failures;
    ledgers;
    layer_metrics;
  }

(* JSON rendering: numbers with every digit, strings escaped. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let json_list l = "[" ^ String.concat ", " l ^ "]"

let point_fields (wp : Workload.point) =
  [
    ("name", json_string (point_name wp));
    ("label", json_string wp.Workload.label);
    ("system", json_string wp.Workload.system);
    ("load", json_float wp.Workload.load);
  ]

let to_json o =
  let timed t =
    json_obj
      (point_fields t.wp
      @ [
          ("completed", string_of_int t.point.Run.completed);
          ("host_ns", string_of_int t.host_ns);
          ("minor_words", json_float t.minor_words);
          ("ref_ns", json_float t.ref_ns);
        ])
  in
  let ledger l =
    json_obj
      (point_fields l.lp
      @ List.map
          (fun (k, v) -> (k, json_float v))
          [
            ("completed", float_of_int l.completed);
            ("events", float_of_int l.events);
            ("cycle_ns", l.cycle_ns);
            ("total_ns", l.total_ns);
            ("engine_ns", l.engine_ns);
            ("submit_ns", l.submit_ns);
            ("complete_ns", l.complete_ns);
            ("cluster_ns", l.cluster_ns);
            ("residual_ns", l.residual_ns);
          ])
  in
  json_obj
    [
      ("first_timed_ns", string_of_int o.first_timed_ns);
      ("points", json_list (List.map timed o.timed));
      ("top_heap_words", string_of_int o.top_heap_words);
      ("digest", json_string o.digest);
      ( "traced_digest",
        match o.traced_digest with None -> "null" | Some d -> json_string d );
      ("attempted", string_of_int (List.length o.attempted));
      ("failed", string_of_int (failed_points ~attempted:o.attempted o.failures));
      ( "failures",
        json_list (List.map (fun (n, m) -> json_string (n ^ ": " ^ m)) o.failures) );
      ("ledger", json_list (List.map ledger o.ledgers));
      ("layers", json_obj (List.map (fun (k, v) -> (k, json_float v)) o.layer_metrics));
    ]
