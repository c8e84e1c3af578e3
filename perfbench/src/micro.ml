(* Per-layer microbenchmarks. Each keeps its state bounded so that every
   timed iteration does the same work: a steady event-queue depth, a
   tally cleared on a fixed cycle, a scheduler whose connections return
   to idle after each cycle. Each reports the median ns per operation
   over [reps] timed rounds. *)

module Sim = Engine.Sim
module S = Core.Sched.Sim_sched

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time_per_op ~reps ~ops f =
  median_of
    (List.init reps (fun _ ->
         let t0 = Spans.now_ns () in
         f ops;
         float_of_int (Spans.now_ns () - t0) /. float_of_int ops))

(* One [schedule_fn] + fire cycle with [depth] events pending: every
   fired event schedules its successor after an exponential delay whose
   mean [mean_delay] is the workload's own (Little's law: depth over the
   event rate), so the queue holds the depth and time spread the
   workload reached. *)
let engine_cycle_ns ~reps ~ops ~depth ~mean_delay =
  let sim = Sim.create () in
  let clk = Sim.clock_buffer sim and key = Sim.key_buffer sim in
  let rng = Engine.Rng.create ~seed:1 in
  let dist = Engine.Dist.exponential (Float.max mean_delay 1e-3) in
  let delays = Array.init 4096 (fun _ -> Engine.Dist.sample dist rng) in
  let k = ref 0 in
  let rec fire _ =
    key.(0) <- clk.(0) +. delays.(!k land 4095);
    incr k;
    ignore (Sim.schedule_fn_keyed sim fire 0)
  in
  for _ = 1 to max 1 depth do
    fire 0
  done;
  let steps n =
    for _ = 1 to n do
      ignore (Sim.step sim)
    done
  in
  steps (ops / 4);
  time_per_op ~reps ~ops steps

(* [Stats.Tally.record], the tally cleared every 4096 samples so the
   reservoir never grows past its first doubling. *)
let tally_record_ns ~reps ~ops =
  let t = Stats.Tally.create () in
  time_per_op ~reps ~ops (fun n ->
      for i = 1 to n do
        if i land 4095 = 0 then Stats.Tally.clear t;
        Stats.Tally.record t 12.5
      done)

(* [Net.Rss.queue_of_conn] over the paper's 2752 connections. *)
let rss_queue_of_conn_ns ~reps ~ops ~queues ~conns =
  let rss = Net.Rss.create ~queues () in
  let sink = ref 0 in
  let r =
    time_per_op ~reps ~ops (fun n ->
        for i = 1 to n do
          sink := !sink + Net.Rss.queue_of_conn rss (i mod conns)
        done)
  in
  ignore (Sys.opaque_identity !sink);
  r

let sched ~cores ~conns =
  let s = S.create ~cores in
  let pcbs = Array.init conns (fun c -> S.register s ~conn:c ~home:(c mod cores)) in
  (s, pcbs)

(* Deliver one event to an idle connection, dispatch it from its home
   core's shuffle queue, complete it: Idle -> Ready -> Busy -> Idle. *)
let sched_local_cycle_ns ~reps ~ops ~cores ~conns =
  let s, pcbs = sched ~cores ~conns in
  time_per_op ~reps ~ops (fun n ->
      for i = 1 to n do
        let pcb = pcbs.(i mod conns) in
        S.deliver s pcb i;
        if not (S.poll_local s ~core:(S.home pcb)) then failwith "Micro: local poll missed";
        S.complete s (S.batch_pcb s ~core:(S.home pcb))
      done)

(* The same cycle, but the next core steals the batch: its own queue is
   empty and the victim is first in its steal order. *)
let sched_steal_cycle_ns ~reps ~ops ~cores ~conns =
  let s, pcbs = sched ~cores ~conns in
  let order = Array.init cores (fun c -> [| c |]) in
  time_per_op ~reps ~ops (fun n ->
      for i = 1 to n do
        let pcb = pcbs.(i mod conns) in
        let home = S.home pcb in
        let thief = (home + 1) mod cores in
        S.deliver s pcb i;
        if not (S.poll s ~core:thief ~steal_order:order.(home)) then
          failwith "Micro: steal missed";
        S.complete s (S.batch_pcb s ~core:thief)
      done)
