type workload =
  | Tpcc of Silo.Tpcc.t
  | Kv of Kvstore.Workload.t * Kvstore.Store.t

type t = {
  workload : workload;
  rng : Engine.Rng.t;
  worker : Silo.Db.worker option;  (* for Tpcc *)
  clamp_at : float;  (* raw µs cap filtering host-noise artifacts *)
  scale_factor : float;  (* measured µs -> simulated µs *)
  target_mean : float;
  mutable ops : int;
}

(* zygos.allow determinism: appserve drives a live Runtime.Executor with
   real domains, so latencies here are genuine wall-clock measurements. *)
let[@zygos.allow "determinism"] now_us () = Unix.gettimeofday () *. 1e6

let execute_one workload rng worker =
  match workload with
  | Tpcc tpcc ->
      let tx = Silo.Tpcc.standard_mix rng in
      let t0 = now_us () in
      (match Silo.Tpcc.execute tpcc (Option.get worker) rng tx with
      | Silo.Tpcc.Committed | Silo.Tpcc.Rolled_back | Silo.Tpcc.Conflicted -> ());
      now_us () -. t0
  | Kv (wl, store) ->
      let cmd = Kvstore.Workload.next_command wl rng in
      let t0 = now_us () in
      ignore (Kvstore.Protocol.execute store cmd : Kvstore.Protocol.response);
      now_us () -. t0

let create ?(seed = 2026) ?(calibrate_over = 2000) ~target_mean_us workload =
  if target_mean_us < 0. then invalid_arg "Appserve.create: negative target mean";
  if calibrate_over < 1 then invalid_arg "Appserve.create: calibrate_over < 1";
  let rng = Engine.Rng.create ~seed in
  let worker =
    match workload with
    | Tpcc tpcc -> Some (Silo.Db.worker (Silo.Tpcc.db tpcc) ~id:4242)
    | Kv (wl, store) ->
        if Kvstore.Store.size store = 0 then Kvstore.Workload.populate wl store;
        None
  in
  let samples = Array.init calibrate_over (fun _ -> execute_one workload rng worker) in
  Array.sort Float.compare samples;
  (* Wall-clock measurement on a shared host picks up OCaml GC slices and
     OS scheduling noise — milliseconds-long artifacts unrelated to the
     application. The paper disabled Silo's GC for the same reason
     ("it adds experimental variability", §6.3.1); we cap raw durations at
     25x the measured median. Genuine slow transactions (Delivery is
     ~25-50x the median) sit right at that knee; artifact spikes are two
     orders of magnitude above it. *)
  let median = samples.(calibrate_over / 2) in
  let clamp_at = 25. *. Float.max 1e-3 median in
  let clamped = Array.map (fun x -> Float.min x clamp_at) samples in
  let raw_mean = Array.fold_left ( +. ) 0. clamped /. float_of_int calibrate_over in
  let scale_factor =
    if target_mean_us = 0. || raw_mean <= 0. then 1. else target_mean_us /. raw_mean
  in
  {
    workload;
    rng;
    worker;
    clamp_at;
    scale_factor;
    target_mean = (if target_mean_us = 0. then raw_mean else target_mean_us);
    ops = calibrate_over;
  }

let service_fn t ~conn =
  ignore conn;
  t.ops <- t.ops + 1;
  let raw = Float.min t.clamp_at (execute_one t.workload t.rng t.worker) in
  Float.max 0.01 (raw *. t.scale_factor)

let mean_us t = t.target_mean

let executed t = t.ops

let run_point t ~system ~load ?(cores = 16) ?(conns = 2752) ?(requests = 15_000) ?(seed = 42)
    () =
  (match system with
  | Run.Ix_rebalanced _ | Run.Model_central_fcfs | Run.Model_partitioned_fcfs ->
      invalid_arg "Appserve.run_point: unsupported system kind"
  | _ -> ());
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create ~seed in
  let loadgen_rng = Engine.Rng.split rng in
  let system_rng = Engine.Rng.split rng in
  let rate = load *. float_of_int cores /. t.target_mean in
  (* The nominal distribution is only used for the mean; service_fn
     overrides per-request sampling. *)
  let nominal = Engine.Dist.deterministic t.target_mean in
  let pool = Net.Request.create_pool ~recycle:true () in
  let gen =
    Net.Loadgen.create sim ~rng:loadgen_rng ~pool ~conns ~rate ~service:nominal
      ~service_fn:(fun ~conn -> service_fn t ~conn)
      ()
  in
  let iface =
    Run.make_server system sim (Systems.Params.default ~cores ()) ~rng:system_rng ~pool ~conns
      ~respond:(fun req -> Net.Loadgen.complete gen req)
  in
  Net.Loadgen.set_target gen iface.Systems.Iface.submit;
  let measure = float_of_int requests /. rate in
  Net.Loadgen.start gen ~warmup:(0.2 *. measure) ~measure;
  Engine.Sim.run sim;
  Run.point_of_tally ~load ~offered_rate:rate ~throughput:(Net.Loadgen.throughput gen)
    ~goodput:(Net.Loadgen.goodput gen)
    ~order_violations:(Net.Loadgen.order_violations gen)
    ~info:(iface.Systems.Iface.info ()) (Net.Loadgen.tally gen)
