(* The traced run: each point rebuilt from the layers' public
   constructors, splitting the RNG in the same order as
   [Experiments.Run.run_point] and [Experiments.Rackrun.run], with spans
   around every ingress call, every response and [Sim.run]. The checks
   hold the rebuilt point to the library's own bit for bit, so the
   composition can only measure the simulation, never change it. *)

module Sim = Engine.Sim
module Rng = Engine.Rng
module Dist = Engine.Dist
module Request = Net.Request
module Loadgen = Net.Loadgen
module Run = Experiments.Run
module Rackrun = Experiments.Rackrun

type result = {
  point : Run.point;
  stats : Sim.stats;
  spans : Spans.t;
  build_ns : int;  (** constructors up to [Loadgen.start] *)
  reduce_ns : int;  (** [Run.point_of_tally]: mean, p50, p99, p999 *)
  mean_depth : float;  (** mean [Sim.live] at the client's ingress calls *)
  sim_end : float;  (** simulated time at the end of [Sim.run] (µs) *)
  sends : int;  (** client transmissions: generated plus retries *)
  distinct : int;  (** distinct completions reaching the client *)
  measured_generated : int;
  retries : int;
  timeouts : int;
  duplicates : int;
  pool_hwm : int;
  pool_allocated : int;
  wc_violations : int;  (** summed over the point's ZygOS servers *)
}

let make_system sim params ~kind ~rng ~pool ~conns ~respond =
  match kind with
  | Run.Linux_floating -> Systems.Linux.floating sim params ~pool ~conns ~respond
  | Run.Ix b ->
      Systems.Ix.create sim (Systems.Params.with_ix_batch params b) ~pool ~conns ~respond
  | Run.Zygos -> Systems.Zygos.create sim params ~rng ~pool ~conns ~respond ()
  | k -> invalid_arg ("Compose: system not benchmarked: " ^ Run.system_name k)

let is_zygos = function Run.Zygos -> true | _ -> false

let client_info gen =
  [
    ("client_retries", float_of_int (Loadgen.retries gen));
    ("client_timeouts", float_of_int (Loadgen.timeouts gen));
    ("client_retry_exhausted", float_of_int (Loadgen.retry_exhausted gen));
    ("duplicate_completions", float_of_int (Loadgen.duplicate_completions gen));
  ]

type probe = {
  log : Spans.t;
  sim : Sim.t;
  pool : Request.pool;
  mutable depth_sum : int;
  mutable ingress_calls : int;
  mutable completes : int;
}

let probe sim pool =
  { log = Spans.create (); sim; pool; depth_sum = 0; ingress_calls = 0; completes = 0 }

let wrap p kind f req =
  let s = Spans.enter p.log kind ~req:(Request.id p.pool req) in
  f req;
  Spans.leave p.log s

let ingress p kind f req =
  p.depth_sum <- p.depth_sum + Sim.live p.sim;
  p.ingress_calls <- p.ingress_calls + 1;
  wrap p kind f req

let respond p gen req =
  p.completes <- p.completes + 1;
  wrap p Spans.Complete (Loadgen.complete gen) req

(* Start the generator, run the simulation under a [Run] span, and reduce
   the tally exactly as the library's runners do. *)
let finish p gen ~t0 ~load ~offered_rate ~info ~wc ~measure =
  let warmup = 0.2 *. measure in
  Loadgen.start gen ~warmup ~measure;
  let build_ns = Spans.now_ns () - t0 in
  let s = Spans.enter p.log Spans.Run ~req:(-1) in
  Sim.run p.sim;
  Spans.leave p.log s;
  let stats = Sim.stats p.sim in
  let info = info stats in
  let r0 = Spans.now_ns () in
  let point =
    Run.point_of_tally ~load ~offered_rate ~throughput:(Loadgen.throughput gen)
      ~goodput:(Loadgen.goodput gen) ~order_violations:(Loadgen.order_violations gen) ~info
      (Loadgen.tally gen)
  in
  let reduce_ns = Spans.now_ns () - r0 in
  {
    point;
    stats;
    spans = p.log;
    build_ns;
    reduce_ns;
    mean_depth = float_of_int p.depth_sum /. float_of_int (max 1 p.ingress_calls);
    sim_end = Sim.now p.sim;
    sends = Loadgen.generated gen + Loadgen.retries gen;
    distinct = p.completes - Loadgen.duplicate_completions gen;
    measured_generated = Loadgen.measured_generated gen;
    retries = Loadgen.retries gen;
    timeouts = Loadgen.timeouts gen;
    duplicates = Loadgen.duplicate_completions gen;
    pool_hwm = Request.hwm p.pool;
    pool_allocated = Request.allocated p.pool;
    wc_violations = wc ();
  }

(* Mirrors [Run.run_real_point] for a fault-free, unguarded config. *)
let single (c : Run.config) ~load =
  let t0 = Spans.now_ns () in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:c.Run.seed in
  let loadgen_rng = Rng.split rng in
  let system_rng = Rng.split rng in
  let rate = load *. float_of_int c.Run.cores /. Dist.mean c.Run.service in
  let recycle = Option.is_none c.Run.faults && Option.is_none c.Run.retry in
  let pool = Request.create_pool ~recycle () in
  let p = probe sim pool in
  let gen =
    Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:c.Run.conns ~rate ~service:c.Run.service
      ~selection:c.Run.selection ~slo:c.Run.slo ?retry:c.Run.retry ()
  in
  let params =
    Systems.Params.with_stragglers
      (Systems.Params.with_rpc_packets
         (Systems.Params.default ~cores:c.Run.cores ())
         c.Run.rpc_packets)
      c.Run.stragglers
  in
  let system =
    make_system sim params ~kind:c.Run.system ~rng:system_rng ~pool ~conns:c.Run.conns
      ~respond:(respond p gen)
  in
  Loadgen.set_target gen (ingress p Spans.Submit system.Systems.Iface.submit);
  let info (s : Sim.stats) =
    system.Systems.Iface.info () @ client_info gen
    @ [
        ("sim_events_scheduled", float_of_int s.Sim.scheduled);
        ("sim_events_fired", float_of_int s.Sim.fired);
        ("sim_events_cancelled", float_of_int s.Sim.cancelled);
        ("sim_events_reused", float_of_int s.Sim.reused);
        ("sim_pool_slots", float_of_int s.Sim.pool_slots);
      ]
  in
  let wc () =
    if is_zygos c.Run.system then Systems.Zygos.work_conservation_violations system else 0
  in
  finish p gen ~t0 ~load ~offered_rate:rate ~info ~wc
    ~measure:(float_of_int c.Run.requests /. rate)

(* Mirrors [Rackrun.run]; each server's ingress and egress are wrapped
   so the ToR's own time can be told apart from the servers'. *)
let rack (c : Rackrun.config) ~load =
  let t0 = Spans.now_ns () in
  let sim = Sim.create () in
  let rng = Rng.create ~seed:c.Rackrun.seed in
  let loadgen_rng = Rng.split rng in
  let rate =
    load *. float_of_int (c.Rackrun.cores * c.Rackrun.servers) /. Dist.mean c.Rackrun.service
  in
  let pool = Request.create_pool ~recycle:false () in
  let p = probe sim pool in
  let gen =
    Loadgen.create sim ~rng:loadgen_rng ~pool ~conns:c.Rackrun.conns ~rate
      ~service:c.Rackrun.service ~slo:c.Rackrun.slo ?retry:c.Rackrun.retry ()
  in
  let measure = float_of_int c.Rackrun.requests /. rate in
  let warmup = 0.2 *. measure in
  let rack_cfg =
    Cluster.Rack.config ~servers:c.Rackrun.servers ~policy:c.Rackrun.policy
      ~feedback_delay:c.Rackrun.feedback_delay ~feedback_until:(warmup +. measure)
      ?detect:c.Rackrun.detect ?hedge:c.Rackrun.hedge ~failplan:c.Rackrun.failplan ()
  in
  let zygos = ref [] in
  let make_server ~i ~rng ~respond =
    let params =
      Systems.Params.with_stragglers
        (Systems.Params.with_rpc_packets
           (Systems.Params.default ~cores:c.Rackrun.cores ())
           c.Rackrun.rpc_packets)
        (Cluster.Failplan.stragglers c.Rackrun.failplan ~server:i ~cores:c.Rackrun.cores)
    in
    let system =
      make_system sim params ~kind:c.Rackrun.system ~rng ~pool ~conns:c.Rackrun.conns
        ~respond:(wrap p Spans.Tor_respond respond)
    in
    if is_zygos c.Rackrun.system then zygos := system :: !zygos;
    { system with Systems.Iface.submit = wrap p Spans.Submit system.Systems.Iface.submit }
  in
  let rack =
    Cluster.Rack.create sim rack_cfg ~rng ~pool ~make_server ~respond:(respond p gen)
  in
  let iface = Cluster.Rack.iface rack in
  Loadgen.set_target gen (ingress p Spans.Tor_submit iface.Systems.Iface.submit);
  let info (_ : Sim.stats) = iface.Systems.Iface.info () @ client_info gen in
  let wc () =
    List.fold_left (fun acc s -> acc + Systems.Zygos.work_conservation_violations s) 0 !zygos
  in
  finish p gen ~t0 ~load ~offered_rate:rate ~info ~wc ~measure

let run (w : Workload.point) =
  match w.Workload.scenario with
  | Workload.Single c -> single c ~load:w.Workload.load
  | Workload.Rack c -> rack c ~load:w.Workload.load
