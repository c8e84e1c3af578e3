(* Every figure is data: a header plus panels, each a table whose rows are
   some label cells followed by the cells that the row's sweep points
   render. [render] runs all of a figure's points in one [Sweep.run] (on
   [jobs] domains, idle domains stealing) and prints the panels in order,
   so the table shape is written once and enumeration and rendering cannot
   disagree. Each point's randomness comes from a seed derived from
   [master_seed] and the point's stable key, so the rendered output is
   byte-identical for every [jobs] value. *)

module Dist = Engine.Dist

let requests ~scale base = max 4_000 (int_of_float (float_of_int base *. scale))

let cores = 16

let master_seed = 42

type row = { label : string list; cells : string list Sweep.point list }

type panel = {
  title : string option;
  note : string option;
  columns : string list;
  rows : row list;
}

let panel ?title ?note columns rows = { title; note; columns; rows }

(* A row rendered by a single sweep point, and a row of text only. *)
let row label key cells = { label; cells = [ Sweep.point ~key cells ] }

let text label = { label; cells = [] }

(* Split [l] after its first [n] elements. *)
let take n l = (List.filteri (fun i _ -> i < n) l, List.filteri (fun i _ -> i >= n) l)

let render ~jobs header panels =
  let points = List.concat_map (fun p -> List.concat_map (fun r -> r.cells) p.rows) panels in
  let results = Sweep.run ~jobs ~seed:master_seed points in
  Output.print_header header;
  ignore
    (List.fold_left
       (fun results p ->
         Option.iter Output.print_subheader p.title;
         Option.iter (Output.printf "%s\n") p.note;
         let results, rows =
           List.fold_left_map
             (fun results r ->
               let mine, rest = take (List.length r.cells) results in
               (rest, r.label @ List.concat mine))
             results p.rows
         in
         Output.print_table ~columns:p.columns ~rows;
         results)
       results panels
      : string list list)

(* A figure point's config: [cores] cores and [base] requests at scale 1. *)
let cfg ?(base = 25_000) ?rpc_packets ?selection ~scale ~system ~service ~seed () =
  Run.config ~system ~service ~cores ~requests:(requests ~scale base) ?rpc_packets ?selection
    ~seed ()

let info p key = Option.value ~default:0. (Run.info_value p key)

let count p key = string_of_int (int_of_float (info p key))

let meets ~slo (p : Run.point) = if p.p99 <= slo then "meets" else "violates"

(* The three service-time distributions of §3.4/§6.1, at unit mean. *)
let dists_of_mean mean =
  [ Dist.deterministic mean; Dist.exponential mean; Dist.bimodal1 ~mean ]

(* ---- Figure 2 ---- *)

let fig2 ~jobs ~scale =
  let open Models.Queueing in
  let specs =
    [
      { servers = cores; policy = Ps; topology = Partitioned };
      { servers = cores; policy = Fcfs; topology = Partitioned };
      { servers = cores; policy = Fcfs; topology = Central };
      { servers = cores; policy = Ps; topology = Central };
    ]
  in
  let loads = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 0.95 ] in
  let service_mean = 1.0 in
  let dists =
    [
      Dist.deterministic service_mean;
      Dist.exponential service_mean;
      Dist.bimodal1 ~mean:service_mean;
      Dist.bimodal2 ~mean:service_mean;
    ]
  in
  render ~jobs "Figure 2: p99 latency vs load, idealized queueing models (n=16, S=1)"
    (List.map
       (fun dist ->
         panel
           ~title:(Printf.sprintf "distribution: %s" (Dist.name dist))
           ("load" :: List.map name specs)
           (List.map
              (fun load ->
                {
                  label = [ Output.f2 load ];
                  cells =
                    List.map
                      (fun spec ->
                        Sweep.point
                          ~key:(Printf.sprintf "fig2/%s/%s/%g" (Dist.name dist) (name spec) load)
                          (fun ~seed ->
                            let r =
                              simulate spec ~service:dist ~load
                                ~requests:(requests ~scale 40_000) ~seed
                            in
                            [ Output.f2 (Stats.Tally.p99 r.latencies) ]))
                      specs;
                })
              loads))
       dists)

(* ---- Max-load-at-SLO figures (3 and 7) ---- *)

let slo_figure ~figkey ~jobs ~scale ~title ~service_means ~systems =
  let makers =
    [
      (fun m -> Dist.deterministic m);
      (fun m -> Dist.exponential m);
      (fun m -> Dist.bimodal1 ~mean:m);
    ]
  in
  render ~jobs title
    (List.map
       (fun make_dist ->
         panel
           ~title:(Printf.sprintf "distribution: %s" (Dist.name (make_dist 1.0)))
           ("S(us)" :: List.map Run.system_name systems)
           (List.map
              (fun mean ->
                let service = make_dist mean in
                {
                  label = [ Printf.sprintf "%g" mean ];
                  cells =
                    List.map
                      (fun system ->
                        Sweep.point
                          ~key:
                            (Printf.sprintf "%s/%s/%g/%s" figkey (Dist.name service) mean
                               (Run.system_name system))
                          (fun ~seed ->
                            let load, _ =
                              Run.max_load_at_slo
                                (cfg ~scale ~system ~service ~seed ())
                                ~slo_p99:(10. *. mean) ~resolution:0.02 ()
                            in
                            [ Output.pct load ]))
                      systems;
                })
              service_means))
       makers)

let fig3 ~jobs ~scale =
  slo_figure ~figkey:"fig3" ~jobs ~scale
    ~title:"Figure 3: max load @ SLO (p99 <= 10*S) vs service time -- baselines"
    ~service_means:[ 5.; 10.; 25.; 50.; 100.; 200. ]
    ~systems:
      [
        Run.Model_central_fcfs;
        Run.Model_partitioned_fcfs;
        Run.Linux_floating;
        Run.Linux_partitioned;
        Run.Ix 1;
      ]

let fig7 ~jobs ~scale =
  slo_figure ~figkey:"fig7" ~jobs ~scale
    ~title:"Figure 7: max load @ SLO (p99 <= 10*S) vs service time -- with ZygOS"
    ~service_means:[ 2.; 5.; 10.; 15.; 20.; 30.; 40.; 50. ]
    ~systems:
      [
        Run.Model_central_fcfs;
        Run.Model_partitioned_fcfs;
        Run.Zygos;
        Run.Linux_floating;
        Run.Linux_partitioned;
        Run.Ix 1;
      ]

(* ---- Load-sweep tables: one row per (system, load) ---- *)

let sweep_rows ~figkey ~systems ~loads cells =
  List.concat_map
    (fun system ->
      let name = Run.system_name system in
      List.map
        (fun load ->
          row [ name; Output.f2 load ]
            (Printf.sprintf "%s/%s/%g" figkey name load)
            (cells system load))
        loads)
    systems

(* Figures 6, 9 and 10b: throughput, p99 and the SLO verdict per point. *)
let slo_panel ?title ~slo ?rpc_packets ~figkey ~scale ~service ~systems ~loads () =
  panel ?title
    [ "system"; "load"; "tput(MRPS)"; "p99(us)"; Printf.sprintf "SLO %.0fus" slo ]
    (sweep_rows ~figkey ~systems ~loads (fun system load ~seed ->
         let p = Run.run_point (cfg ?rpc_packets ~scale ~system ~service ~seed ()) ~load in
         [ Output.f3 p.Run.throughput; Output.f1 p.Run.p99; meets ~slo p ]))

let fig6 ~jobs ~scale =
  let loads = [ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ] in
  let systems =
    [ Run.Model_central_fcfs; Run.Linux_floating; Run.Ix 1; Run.Zygos; Run.Zygos_no_interrupts ]
  in
  render ~jobs
    "Figure 6: p99 latency vs throughput (SLO = 10*S), three distributions x {10us, 25us}"
    (List.concat_map
       (fun mean ->
         List.map
           (fun service ->
             slo_panel
               ~title:(Printf.sprintf "%s, S = %gus" (Dist.name service) mean)
               ~slo:(10. *. mean)
               ~figkey:(Printf.sprintf "fig6/%s/%g" (Dist.name service) mean)
               ~scale ~service ~systems ~loads ())
           (dists_of_mean mean))
       [ 10.; 25. ])

(* ---- Figure 8 ---- *)

let fig8 ~jobs ~scale =
  let service = Dist.exponential 25. in
  let loads = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.77; 0.85; 0.9; 0.95 ] in
  render ~jobs "Figure 8: steal rate vs throughput (exponential, S = 25us)"
    [
      panel
        [ "system"; "load"; "tput(MRPS)"; "steals/event"; "IPIs/event" ]
        (sweep_rows ~figkey:"fig8" ~systems:[ Run.Zygos; Run.Zygos_no_interrupts ] ~loads
           (fun system load ~seed ->
             let p = Run.run_point (cfg ~scale ~system ~service ~seed ()) ~load in
             let events = info p "local_events" +. info p "stolen_events" in
             let ipis_per_event = if events = 0. then 0. else info p "ipis_sent" /. events in
             [
               Output.f3 p.Run.throughput;
               Output.pct (info p "steal_fraction");
               Output.f3 ipis_per_event;
             ]));
    ]

(* ---- Figure 9 ---- *)

let fig9 ~jobs ~scale =
  (* For sub-2µs tasks the per-request overheads dominate: real systems
     saturate at 30–60% of the zero-overhead capacity, so the sweep
     covers the low-load range (the paper's Fig. 9 x-axis is absolute
     MRPS for the same reason). *)
  let loads = [ 0.05; 0.1; 0.15; 0.2; 0.25; 0.3; 0.35; 0.4; 0.45; 0.5; 0.55; 0.6 ] in
  let systems = [ Run.Linux_floating; Run.Ix 1; Run.Ix 64; Run.Zygos ] in
  render ~jobs "Figure 9: memcached ETC and USR (SLO 500us at p99)"
    (List.map
       (fun kind ->
         let wl = Kvstore.Workload.create kind in
         let service = Kvstore.Workload.service_dist wl ~samples:20_000 in
         slo_panel
           ~title:
             (Printf.sprintf "%s: mean task %.2fus, GET fraction %.1f%%"
                (Kvstore.Workload.name kind) (Dist.mean service)
                (100. *. Kvstore.Workload.get_fraction kind))
           ~slo:500.
           ~figkey:(Printf.sprintf "fig9/%s" (Kvstore.Workload.name kind))
           ~scale ~service ~systems ~loads ())
       [ Kvstore.Workload.Etc; Kvstore.Workload.Usr ])

(* ---- Silo / TPC-C (Figures 10a, 10b, Table 1) ---- *)

let paper_silo_mean_us = 33.

type silo_run = {
  samples : float array;  (* normalized service times, µs *)
  by_type : (string * float array) list;
  raw_mean : float;  (* measured mean on this machine, µs *)
}

let silo_run_memo : (float * silo_run) option ref = ref None

(* zygos.allow determinism: fig10a is the one real-time measurement in the
   suite — it times actual Silo/TPC-C executions on this machine, so the
   wall clock is the measurement, not simulation state. *)
let[@zygos.allow "determinism"] run_silo ~scale =
  match !silo_run_memo with
  | Some (s, run) when s >= scale -> run
  | _ ->
      let tpcc = Silo.Tpcc.load () in
      let worker = Silo.Db.worker (Silo.Tpcc.db tpcc) ~id:0 in
      let rng = Engine.Rng.create ~seed:1234 in
      let n = requests ~scale 30_000 in
      let all = Stats.Tally.create () in
      let per_type = Hashtbl.create 8 in
      for _ = 1 to n do
        let tx = Silo.Tpcc.standard_mix rng in
        let t0 = Unix.gettimeofday () in
        (match Silo.Tpcc.execute tpcc worker rng tx with
        | Silo.Tpcc.Committed | Silo.Tpcc.Rolled_back | Silo.Tpcc.Conflicted -> ());
        let us = (Unix.gettimeofday () -. t0) *. 1e6 in
        Stats.Tally.record all us;
        let tally =
          match Hashtbl.find_opt per_type (Silo.Tpcc.tx_name tx) with
          | Some t -> t
          | None ->
              let t = Stats.Tally.create () in
              Hashtbl.add per_type (Silo.Tpcc.tx_name tx) t;
              t
        in
        Stats.Tally.record tally us
      done;
      let raw_mean = Stats.Tally.mean all in
      (* Normalize to the paper's 33µs mean service time so the 1000µs SLO
         of §6.3 carries over directly; the *shape* is as measured. *)
      let k = paper_silo_mean_us /. raw_mean in
      let normalize tally = Array.map (fun x -> x *. k) (Stats.Tally.samples tally) in
      let run =
        {
          samples = normalize all;
          by_type =
            Hashtbl.fold (fun name tally acc -> (name, normalize tally) :: acc) per_type [];
          raw_mean;
        }
      in
      silo_run_memo := Some (scale, run);
      run

let silo_service_samples ~scale = (run_silo ~scale).samples

let fig10a ~jobs ~scale =
  (* One real-time measured execution, not a simulation grid: the rows
     have no sweep points, and the Unix.gettimeofday timings would not be
     deterministic anyway. *)
  let run = run_silo ~scale in
  let pct_of samples p =
    let t = Stats.Tally.create () in
    Array.iter (Stats.Tally.record t) samples;
    Stats.Tally.percentile t p
  in
  render ~jobs "Figure 10a: CCDF of Silo/TPC-C service time (real execution)"
    [
      panel
        ~note:
          (Printf.sprintf
             "measured mean on this machine: %.1fus; samples normalized to the paper's %.0fus \
              mean"
             run.raw_mean paper_silo_mean_us)
        [ "transaction"; "count"; "mean"; "p50"; "p90"; "p99"; "p99.9" ]
        (List.map
           (fun (name, samples) ->
             text
               [
                 name;
                 string_of_int (Array.length samples);
                 Output.f1
                   (Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples));
                 Output.f1 (pct_of samples 50.);
                 Output.f1 (pct_of samples 90.);
                 Output.f1 (pct_of samples 99.);
                 Output.f1 (pct_of samples 99.9);
               ])
           (("Mix", run.samples)
           :: List.sort (fun (a, _) (b, _) -> String.compare a b) run.by_type));
      panel ~title:"Mix CCDF (service time us, P[X > x])" [ "x(us)"; "P[X>x]" ]
        (List.map
           (fun { Stats.Ccdf.value; prob } -> text [ Output.f1 value; Printf.sprintf "%.4f" prob ])
           (Stats.Ccdf.of_samples ~points:14 run.samples));
    ]

let silo_systems = [ Run.Linux_floating; Run.Ix 1; Run.Zygos ]

let silo_slo = 1000.

(* TPC-C requests/responses exceed one MTU; model them as 3 packets each
   way (the per-packet costs multiply; see EXPERIMENTS.md §Calibration). *)
let silo_rpc_packets = 3

let fig10b ~jobs ~scale =
  render ~jobs "Figure 10b: Silo/TPC-C p99 end-to-end latency vs throughput (SLO 1000us)"
    [
      slo_panel ~slo:silo_slo ~rpc_packets:silo_rpc_packets ~figkey:"fig10b" ~scale
        ~service:(Dist.empirical (silo_service_samples ~scale))
        ~systems:silo_systems
        ~loads:[ 0.2; 0.35; 0.5; 0.6; 0.7; 0.8; 0.85; 0.9; 0.95 ]
        ();
    ]

let table1 ~jobs ~scale =
  let service = Dist.empirical (silo_service_samples ~scale) in
  let service_p99 =
    let t = Stats.Tally.create () in
    Array.iter (Stats.Tally.record t) (silo_service_samples ~scale);
    Stats.Tally.p99 t
  in
  let slo5 = 5. *. service_p99 in
  let capacity = float_of_int cores /. Dist.mean service in
  (* One point per system: the 1000µs bisection, the three tail probes at
     fractions of the max load, and the 5×p99 bisection — all under the
     same derived seed so the table is one coherent experiment. *)
  let points =
    List.map
      (fun system ->
        Sweep.point
          ~key:(Printf.sprintf "table1/%s" (Run.system_name system))
          (fun ~seed ->
            let cfg = cfg ~rpc_packets:silo_rpc_packets ~scale ~system ~service ~seed () in
            let max_load, point = Run.max_load_at_slo cfg ~slo_p99:silo_slo ~resolution:0.02 () in
            let tail_at frac =
              let p = Run.run_point cfg ~load:(max_load *. frac) in
              Printf.sprintf "%.0fus (%.1fx) @%.0f KTPS" p.Run.p99 (p.Run.p99 /. service_p99)
                (1000. *. p.Run.throughput)
            in
            let tails = (tail_at 0.5, tail_at 0.75, tail_at 0.9) in
            let _, point5 = Run.max_load_at_slo cfg ~slo_p99:slo5 ~resolution:0.02 () in
            (point.Run.throughput, tails, point5.Run.throughput)))
      silo_systems
  in
  (* The speedup column divides by another row's throughput, so the rows
     are rendered from the joined results rather than by their own points. *)
  let results = Sweep.run ~jobs ~seed:master_seed points in
  let linux_tput = match results with (tput, _, _) :: _ -> tput | [] -> assert false in
  let ktps tput = Printf.sprintf "%.0f KTPS" (1000. *. tput) in
  render ~jobs "Table 1: Silo/TPC-C max load @ 1000us SLO and tails at 50/75/90% of max"
    [
      panel
        ~note:
          (Printf.sprintf "zero-overhead capacity: %.0f KTPS; service p99 = %.0fus"
             (1000. *. capacity) service_p99)
        [ "system"; "max load@SLO"; "speedup"; "tail@50%"; "tail@75%"; "tail@90%" ]
        (List.map2
           (fun system (tput, (t50, t75, t90), _) ->
             text
               [
                 Run.system_name system; ktps tput; Printf.sprintf "%.2fx" (tput /. linux_tput);
                 t50; t75; t90;
               ])
           silo_systems results);
      (* Our measured TPC-C service tail is heavier than the paper's (p99
         here vs 203µs there), so the fixed 1000µs SLO is a much tighter
         multiple of p99 (2.7x vs the paper's ~5x) — which is the §7
         tradeoff. Also report max load at the paper's SLO-to-tail ratio. *)
      panel
        ~title:
          (Printf.sprintf
             "same experiment at the paper's SLO-to-tail ratio (SLO = 5 x p99 = %.0fus)" slo5)
        [ "system"; "max load@5xp99" ]
        (List.map2
           (fun system (_, _, tput5) -> text [ Run.system_name system; ktps tput5 ])
           silo_systems results);
    ]

(* ---- Figure 11 ---- *)

let fig11 ~jobs ~scale =
  let service = Dist.deterministic 10. in
  let loads = [ 0.3; 0.5; 0.65; 0.8; 0.85; 0.9; 0.93; 0.95; 0.97 ] in
  let systems = [ Run.Ix 64; Run.Ix 1; Run.Zygos ] in
  render ~jobs
    "Figure 11: SLO choice (100us vs 1000us), fixed 10us tasks -- IX B=1, IX B=64, ZygOS"
    [
      panel
        [ "system"; "load"; "tput(MRPS)"; "p99(us)"; "SLO 100us"; "SLO 1000us" ]
        (sweep_rows ~figkey:"fig11" ~systems ~loads (fun system load ~seed ->
             let p = Run.run_point (cfg ~scale ~system ~service ~seed ()) ~load in
             [
               Output.f3 p.Run.throughput;
               Output.f1 p.Run.p99;
               meets ~slo:100. p;
               meets ~slo:1000. p;
             ]));
      panel ~title:"max throughput under each SLO"
        [ "system"; "MRPS @100us"; "MRPS @1000us" ]
        (List.map
           (fun system ->
             let name = Run.system_name system in
             row [ name ] ("fig11/best/" ^ name) (fun ~seed ->
                 let best slo =
                   let _, p =
                     Run.max_load_at_slo
                       (cfg ~scale ~system ~service ~seed ())
                       ~slo_p99:slo ~resolution:0.02 ()
                   in
                   Output.f3 p.Run.throughput
                 in
                 [ best 100.; best 1000. ]))
           systems);
    ]

(* ---- Ablations (DESIGN.md §5) ---- *)

let ablate_poll ~jobs ~scale =
  let service = Dist.exponential 10. in
  let p99 ~order system load =
    Sweep.point
      ~key:(Printf.sprintf "ablate-poll/%s/%g" order load)
      (fun ~seed ->
        [ Output.f1 (Run.run_point (cfg ~scale ~system ~service ~seed ()) ~load).Run.p99 ])
  in
  render ~jobs "Ablation: randomized vs round-robin steal-victim order (exp, 10us)"
    [
      panel
        [ "load"; "p99 randomized"; "p99 round-robin" ]
        (List.map
           (fun load ->
             {
               label = [ Output.f2 load ];
               cells =
                 [ p99 ~order:"random" Run.Zygos load; p99 ~order:"rr" Run.Zygos_round_robin load ];
             })
           [ 0.5; 0.7; 0.8; 0.85; 0.9 ]);
    ]

let ablate_batch ~jobs ~scale =
  let service = Dist.deterministic 10. in
  render ~jobs "Ablation: IX bounded-batching B sweep (fixed 10us tasks)"
    [
      panel
        [ "batch"; "load"; "tput(MRPS)"; "p99(us)" ]
        (List.concat_map
           (fun b ->
             List.map
               (fun load ->
                 row
                   [ Printf.sprintf "B=%d" b; Output.f2 load ]
                   (Printf.sprintf "ablate-batch/b%d/%g" b load)
                   (fun ~seed ->
                     let p =
                       Run.run_point
                         (cfg ~base:20_000 ~scale ~system:(Run.Ix b) ~service ~seed ())
                         ~load
                     in
                     [ Output.f3 p.Run.throughput; Output.f1 p.Run.p99 ]))
               [ 0.5; 0.7; 0.85; 0.93 ])
           [ 1; 2; 8; 64 ]);
    ]

(* Extension (paper §2.3 Observation 2 / §7): FCFS is tail-optimal only
   for low dispersion. A preemptive centralized scheduler — the design
   direction of the follow-up Shinjuku line — recovers the PS advantage on
   bimodal-2 at the price of context-switch overhead on benign
   workloads. *)
let ext_preempt ~jobs ~scale =
  let systems = [ Run.Ix 1; Run.Zygos; Run.Preemptive 5.; Run.Preemptive 1. ] in
  render ~jobs "Extension: preemptive scheduling vs FCFS under extreme dispersion (S = 10us)"
    (List.map
       (fun (title, service) ->
         panel ~title
           [ "system"; "load"; "p99(us)"; "p50(us)"; "preempts/req" ]
           (sweep_rows
              ~figkey:("ext-preempt/" ^ Dist.name service)
              ~systems ~loads:[ 0.3; 0.5; 0.7 ]
              (fun system load ~seed ->
                let p = Run.run_point (cfg ~scale ~system ~service ~seed ()) ~load in
                [
                  Output.f1 p.Run.p99;
                  Output.f1 p.Run.p50;
                  Output.f2 (info p "preemptions_per_request");
                ])))
       [
         ("bimodal-2 (0.1% of requests are 500x the mean)", Dist.bimodal2 ~mean:10.);
         ("deterministic (preemption cannot help, only cost)", Dist.deterministic 10.);
       ])

(* Extension (§5): RSS-reprogramming control plane against persistent
   connection skew, vs static IX (suffers) and ZygOS (stealing absorbs
   it). *)
let ext_rebalance ~jobs ~scale =
  let service = Dist.exponential 10. in
  let selection = Net.Loadgen.Hot_cold { hot_fraction = 0.05; hot_load = 0.5 } in
  render ~jobs "Extension: RSS control plane under persistent connection skew (exp, S = 10us)"
    [
      panel ~note:"skew: 5% of connections carry 50% of the load; rebalance window 200us"
        [ "system"; "load"; "p99(us)"; "tput(MRPS)"; "slot moves"; "order violations" ]
        (sweep_rows ~figkey:"ext-rebalance"
           ~systems:[ Run.Ix 1; Run.Ix_rebalanced 200.; Run.Zygos ]
           ~loads:[ 0.3; 0.5; 0.65; 0.8 ]
           (fun system load ~seed ->
             let p = Run.run_point (cfg ~selection ~scale ~system ~service ~seed ()) ~load in
             [
               Output.f1 p.Run.p99;
               Output.f3 p.Run.throughput;
               count p "rebalance_moves";
               string_of_int p.Run.order_violations;
             ]));
    ]

(* Extension (§5): workload consolidation — the IX control plane's energy
   proportionality function, on the centralized preemptive system where
   core parking is safe. *)
let ext_consolidate ~jobs ~scale =
  let service = Dist.exponential 10. in
  let run ~mode system load cells =
    Sweep.point
      ~key:(Printf.sprintf "ext-consolidate/%s/%g" mode load)
      (fun ~seed -> cells (Run.run_point (cfg ~scale ~system ~service ~seed ()) ~load))
  in
  render ~jobs
    "Extension: workload consolidation (core parking) vs static 16 cores (exp, S = 10us)"
    [
      panel
        [ "load"; "p99 static(us)"; "p99 consolidated(us)"; "avg active cores" ]
        (List.map
           (fun load ->
             {
               label = [ Output.f2 load ];
               cells =
                 [
                   run ~mode:"off" (Run.Preemptive 10.) load (fun p -> [ Output.f1 p.Run.p99 ]);
                   run ~mode:"on" (Run.Preemptive_consolidated 10.) load (fun p ->
                       [
                         Output.f1 p.Run.p99;
                         Output.f1
                           (Option.value ~default:(float_of_int cores)
                              (Run.info_value p "avg_active_cores"));
                       ]);
                 ];
             })
           [ 0.1; 0.2; 0.35; 0.5; 0.7; 0.85 ]);
    ]

(* Chaos: the robustness experiment — degradation curves under injected
   network faults, a straggler core, and retry storms past saturation,
   for the three main systems. Goodput (distinct requests completed
   within the SLO) is the headline metric; raw p99 rides along. *)
let chaos ~jobs ~scale =
  let service = Dist.exponential 10. in
  let slo = 100. in
  let systems = [ Run.Linux_floating; Run.Ix 1; Run.Zygos ] in
  let req = requests ~scale 20_000 in
  (* (a) lossy network x offered load, client retries recovering losses *)
  let lossy =
    let retry = Net.Loadgen.retry ~timeout:300. () in
    List.concat_map
      (fun system ->
        let name = Run.system_name system in
        List.concat_map
          (fun fr ->
            List.map
              (fun load ->
                row [ name; Output.f3 fr; Output.f2 load ]
                  (Printf.sprintf "chaos/lossy/%s/%g/%g" name fr load)
                  (fun ~seed ->
                    let faults =
                      if fr = 0. then None
                      else Some (Net.Faults.plan ~drop:fr ~duplicate:(fr /. 2.) ~reorder:fr ())
                    in
                    let cfg =
                      Run.config ~system ~service ~cores ~requests:req ~retry ~slo ~seed
                        ?faults ()
                    in
                    let p = Run.run_point cfg ~load in
                    [
                      Output.f3 p.Run.goodput;
                      Output.f1 p.Run.p99;
                      count p "fault_drops";
                      count p "client_retries";
                    ]))
              [ 0.3; 0.6; 0.8 ])
          [ 0.; 0.01; 0.05 ])
      systems
  in
  (* (b) straggler core: ZygOS steals around it, IX cannot *)
  let straggler =
    List.map
      (fun system ->
        let name = Run.system_name system in
        row [ name ] ("chaos/straggler/" ^ name) (fun ~seed ->
            let base_cfg = Run.config ~system ~service ~cores ~requests:req ~seed () in
            let base = Run.run_point base_cfg ~load:0.7 in
            let rate = 0.7 *. float_of_int cores /. Dist.mean service in
            let measure = float_of_int req /. rate in
            let stragglers =
              [
                Core.Corefault.
                  { core = 0; start = 0.2 *. measure; duration = 0.25 *. measure; slowdown = 10. };
              ]
            in
            let cfg = Run.config ~system ~service ~cores ~requests:req ~stragglers ~seed () in
            let p = Run.run_point cfg ~load:0.7 in
            [
              Output.f1 base.Run.p99;
              Output.f1 p.Run.p99;
              Output.f2 (p.Run.p99 /. Float.max 1e-9 base.Run.p99);
            ]))
      systems
  in
  (* (c) retry storm past saturation: load shedding keeps goodput alive *)
  let storm =
    let retry = Net.Loadgen.retry ~timeout:200. ~max_retries:4 () in
    List.concat_map
      (fun (label, shed) ->
        List.map
          (fun load ->
            row [ label; Output.f2 load ]
              (Printf.sprintf "chaos/storm/%s/%g" label load)
              (fun ~seed ->
                let cfg =
                  Run.config ~system:(Run.Ix 1) ~service ~cores ~requests:req ~retry ~slo
                    ~shed ~seed ()
                in
                let p = Run.run_point cfg ~load in
                [
                  Output.f3 p.Run.goodput;
                  Output.f3 p.Run.throughput;
                  Output.f1 p.Run.p99;
                  count p "shed";
                ]))
          [ 0.8; 0.95; 1.1; 1.3 ])
      [
        ("no-shed", Systems.Overload.No_shed);
        ("queue-len", Systems.Overload.Queue_length (8 * cores));
      ]
  in
  render ~jobs "Chaos: degradation under faults & overload (exp, S = 10us, SLO = 100us)"
    [
      panel ~title:"lossy network x offered load (client retries on)"
        [ "system"; "fault rate"; "load"; "goodput(MRPS)"; "p99(us)"; "drops"; "retries" ]
        lossy;
      panel ~title:"straggler core (core 0 at 10x for 25% of the run, load 0.7)"
        [ "system"; "p99 clean(us)"; "p99 straggler(us)"; "degradation" ]
        straggler;
      panel ~title:"overload + retries: shedding (queue bound 8/core) vs none, ix"
        [ "policy"; "load"; "goodput(MRPS)"; "tput(MRPS)"; "p99(us)"; "shed" ]
        storm;
    ]

(* Rack-scale two-level scheduling (RackSched over our single-server
   models): N servers behind a ToR dispatcher, compared against the
   rack-wide M/G/(N*cores) centralized bound, under estimate staleness
   and injected server failures. *)
let rack ~jobs ~scale =
  let servers = 4 in
  let service = Dist.exponential 10. in
  let req = requests ~scale 20_000 in
  let policies = Cluster.Policy.[ Static_hash; Random; Po2; Jsq; Jbsq 32 ] in
  let pname = Cluster.Policy.name in
  let rcfg ?(policy = Cluster.Policy.Jsq) ?feedback_delay ?detect ?hedge ?failplan ?slo
      ~seed () =
    Rackrun.config ~servers ~system:Run.Zygos ~cores ~requests:req ~seed ?feedback_delay
      ?detect ?hedge ?failplan ?slo ~policy ~service ()
  in
  (* The measurement window of a rack point at [load]. *)
  let measure load = float_of_int req /. (load *. float_of_int (servers * cores) /. Dist.mean service) in
  let tail (p : Run.point) = [ Output.f3 p.throughput; Output.f1 p.p99; Output.f1 p.p999 ] in
  (* (a) inter-server policy x load, 5us-stale estimates *)
  let loads_a = [ 0.3; 0.5; 0.7; 0.85; 0.95 ] in
  let policy_rows =
    List.concat_map
      (fun policy ->
        List.map
          (fun load ->
            row [ pname policy; Output.f2 load ]
              (Printf.sprintf "rack/policy/%s/%g" (pname policy) load)
              (fun ~seed -> tail (Rackrun.run (rcfg ~policy ~feedback_delay:5. ~seed ()) ~load)))
          loads_a)
      policies
    @ List.map
        (fun load ->
          row [ "central-bound"; Output.f2 load ]
            (Printf.sprintf "rack/bound/%g" load)
            (fun ~seed -> tail (Rackrun.central_bound (rcfg ~seed ()) ~load)))
        loads_a
  in
  (* (b) estimate staleness at fixed load: queue-aware policies degrade
     as feedback lags; jbsq's credit gate keeps the bound exact *)
  let stale_rows =
    List.concat_map
      (fun policy ->
        List.map
          (fun delay ->
            row [ pname policy; Output.f1 delay ]
              (Printf.sprintf "rack/stale/%s/%g" (pname policy) delay)
              (fun ~seed ->
                let p = Rackrun.run (rcfg ~policy ~feedback_delay:delay ~seed ()) ~load:0.85 in
                [ Output.f1 p.Run.p99; Output.f1 p.Run.p999 ]))
          [ 0.; 5.; 25.; 100. ])
      Cluster.Policy.[ Po2; Jsq; Jbsq 32 ]
  in
  (* (c) one degraded server: queue-aware policies route around the
     rack-scale straggler that static hashing keeps feeding *)
  let degraded_rows =
    List.map
      (fun policy ->
        row [ pname policy ] ("rack/degraded/" ^ pname policy) (fun ~seed ->
            let load = 0.6 in
            let clean = Rackrun.run (rcfg ~policy ~feedback_delay:5. ~seed ()) ~load in
            let failplan =
              [
                Cluster.Failplan.Degraded
                  {
                    server = 0;
                    slowdown = 10.;
                    start = 0.2 *. measure load;
                    duration = 0.25 *. measure load;
                  };
              ]
            in
            let p = Rackrun.run (rcfg ~policy ~feedback_delay:5. ~failplan ~seed ()) ~load in
            [
              Output.f1 clean.Run.p99;
              Output.f1 p.Run.p99;
              Output.f2 (p.Run.p99 /. Float.max 1e-9 clean.Run.p99);
            ]))
      policies
  in
  (* (d) server crash: timeout detection + failover re-dispatch recover
     the goodput a crash window would otherwise swallow *)
  let detect =
    Cluster.Dispatch.
      {
        retry = Net.Loadgen.retry ~timeout:300. ~max_retries:3 ();
        health = Cluster.Health.config ();
      }
  in
  let crash_rows =
    List.map
      (fun (label, policy, detect, hedge) ->
        row [ label ] ("rack/crash/" ^ label) (fun ~seed ->
            let load = 0.5 in
            let failplan =
              [
                Cluster.Failplan.Crash
                  { server = 0; start = 0.3 *. measure load; duration = 0.25 *. measure load };
              ]
            in
            let p = Rackrun.run (rcfg ~policy ?detect ?hedge ~failplan ~slo:1000. ~seed ()) ~load in
            [
              Output.f3 p.Run.goodput;
              Output.f1 p.Run.p99;
              count p "rack_lost_requests";
              count p "rack_failovers";
              count p "health_detections";
              count p "health_recoveries";
              count p "rack_hedges";
            ]))
      [
        ("jsq-nodetect", Cluster.Policy.Jsq, None, None);
        ("jsq-detect", Cluster.Policy.Jsq, Some detect, None);
        ("jsq-detect-hedge", Cluster.Policy.Jsq, Some detect, Some 200.);
        ("hash-detect", Cluster.Policy.Static_hash, Some detect, None);
        ("jbsq32-detect", Cluster.Policy.Jbsq 32, Some detect, None);
      ]
  in
  render ~jobs
    (Printf.sprintf
       "Rack: %d x zygos-16 behind a ToR dispatcher (exp, S = 10us) vs M/G/%d bound" servers
       (servers * cores))
    [
      panel ~title:"policy x load (5us feedback delay)"
        [ "policy"; "load"; "tput(MRPS)"; "p99(us)"; "p999(us)" ]
        policy_rows;
      panel ~title:"estimate staleness x policy (load 0.85)"
        [ "policy"; "delay(us)"; "p99(us)"; "p999(us)" ]
        stale_rows;
      panel ~title:"one degraded server (server 0 at 10x for 25% of the run, load 0.6)"
        [ "policy"; "p99 clean(us)"; "p99 degraded(us)"; "degradation" ]
        degraded_rows;
      panel
        ~title:
          "server 0 crashes for 25% of the run (load 0.5, SLO 1000us, detect: 300us timeout x3)"
        [ "variant"; "goodput(MRPS)"; "p99(us)"; "lost"; "failovers"; "detect"; "recover"; "hedges" ]
        crash_rows;
    ]

type target = jobs:int -> scale:float -> unit

let all_targets : (string * target) list =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("table1", table1);
    ("fig11", fig11);
    ("ablate-poll", ablate_poll);
    ("ablate-batch", ablate_batch);
    ("ext-preempt", ext_preempt);
    ("ext-rebalance", ext_rebalance);
    ("ext-consolidate", ext_consolidate);
    ("chaos", chaos);
    ("rack", rack);
  ]
