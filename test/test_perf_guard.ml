(* Perf-regression guard for the allocation-free engine hot path.

   Two invariants, asserted on a warmed-up steady-state window so pool
   growth is excluded:

   - the engine's schedule/fire cycle allocates nothing on the minor
     heap: events are a long-lived fn plus an int payload, and event
     times travel through flat one-element float arrays in both
     directions ([Heap.add_key] / [pop_into]), so no float is boxed;
   - the event pool recycles its slots: [reused / scheduled] approaches 1
     and [pool_slots] stays at the high-water mark of concurrently
     pending events.

   The per-event bound sits essentially at zero, so any pooled-record or
   re-boxing regression trips it immediately. *)

let fn_words_per_event_bound = 0.5

module Sim = Engine.Sim

(* One self-rescheduling long-lived fn with an int payload: steady state
   with a single pending event, exercising schedule + queue + fire on
   every step, so the loop must allocate nothing at all. *)
let test_fn_minor_words_per_event () =
  let sim = Sim.create () in
  let rec tick _ = ignore (Sim.schedule_fn_after sim ~delay:1.0 tick 0 : Sim.handle) in
  tick 0;
  for _ = 1 to 1_000 do
    ignore (Sim.step sim : bool)
  done;
  let events = 50_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to events do
    ignore (Sim.step sim : bool)
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  if per_event > fn_words_per_event_bound then
    Alcotest.failf "schedule_fn steady state allocates %.2f minor words/event (want <= %g)"
      per_event fn_words_per_event_bound

(* Same guard at depth 512 (a realistic pending-event population), so a
   regression in the queue's sift path can't hide behind a depth-1 run. *)
let test_fn_deep_minor_words () =
  let sim = Sim.create () in
  let rec tick _ = ignore (Sim.schedule_fn_after sim ~delay:512.0 tick 0 : Sim.handle) in
  for _ = 1 to 512 do
    tick 0
  done;
  for _ = 1 to 2_048 do
    ignore (Sim.step sim : bool)
  done;
  let events = 50_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to events do
    ignore (Sim.step sim : bool)
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int events in
  if per_event > fn_words_per_event_bound then
    Alcotest.failf "deep schedule_fn loop allocates %.2f minor words/event (want <= %g)"
      per_event fn_words_per_event_bound

let test_pool_reuse_ratio () =
  let sim = Sim.create () in
  let rec tick _ = ignore (Sim.schedule_fn_after sim ~delay:1.0 tick 0 : Sim.handle) in
  for _ = 1 to 64 do
    tick 0
  done;
  for _ = 1 to 100_000 do
    ignore (Sim.step sim : bool)
  done;
  let s = Sim.stats sim in
  let ratio = float_of_int s.Sim.reused /. float_of_int s.Sim.scheduled in
  if ratio < 0.99 then
    Alcotest.failf "pool reuse ratio %.4f (reused %d / scheduled %d), want >= 0.99" ratio
      s.Sim.reused s.Sim.scheduled;
  if s.Sim.pool_slots > 128 then
    Alcotest.failf "pool grew to %d slots for 64 concurrent events" s.Sim.pool_slots

(* PR 8 extends the guard from the bare engine cycle to the whole
   request path: one fig6-style ZygOS point (the bench's
   "experiments: ns per simulated request" config) must stay within a
   fixed minor-words-per-simulated-request budget, point setup and
   tally collection included. The floor is not 0: the engine cycle and
   every pooled structure on the path (requests, events, parser, RSS)
   are allocation-free, but non-flambda OCaml still boxes floats that
   cross the remaining non-inlined call boundaries — two RNG
   [exponential] draws per request (arrival gap, service sample, ~6
   words each) plus the [~cost]/[~delay]/[~arrival]/latency floats
   handed to segment starts, wakes, request allocs and tally records
   (~2 words per crossing). Measured 2026-08: ~70 words/request; the
   bound leaves headroom for compiler-version drift while still
   tripping on any new per-request allocation (a single stray closure
   or list cell per request costs 3+ words). *)
let request_path_words_bound = 85.

let test_request_path_minor_words () =
  let requests = 1_500 in
  let cfg =
    Experiments.Run.config ~cores:4 ~conns:128 ~requests ~seed:1
      ~system:Experiments.Run.Zygos ~service:(Engine.Dist.exponential 10.) ()
  in
  let point () = ignore (Experiments.Run.run_point cfg ~load:0.5 : Experiments.Run.point) in
  point ();
  let iters = 2 in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    point ()
  done;
  let per_req = (Gc.minor_words () -. w0) /. float_of_int (iters * requests) in
  if per_req > request_path_words_bound then
    Alcotest.failf "request path allocates %.1f minor words/request (want <= %g)" per_req
      request_path_words_bound

(* A steal or IPI walk draws one victim per step; at 64 cores a full
   walk takes 63 steps, and must allocate nothing doing it. *)
let test_walk_minor_words () =
  let p = Core.Steal_policy.create ~rng:(Engine.Rng.create ~seed:5) ~cores:64 ~self:0 in
  let walk () =
    for k = 0 to Core.Steal_policy.victims p - 1 do
      ignore (Core.Steal_policy.random_victim p k : int)
    done
  in
  walk ();
  let walks = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to walks do
    walk ()
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 0. then
    Alcotest.failf "%d walks of 63 steps allocated %g minor words (want 0)" walks words

(* The ZygOS idle loop must cost engine events in proportion to the work
   there is, not to the core count: at the paper's 2752 connections and
   load 0.3, where most cores are idle most of the time, each completed
   request may fire at most [events_per_req_bound] events, and 64 cores
   may cost at most [events_core_ratio_bound] times what 16 cost. An
   idle loop that schedules one wake event per idle core per packet
   fires ~24 events per request here at 16 cores and ~59 at 64. *)
let events_per_req_bound = 10.

let events_core_ratio_bound = 1.2

let test_zygos_events_per_request () =
  let per_req cores =
    let cfg =
      Experiments.Run.config ~cores ~conns:2752 ~requests:6_000 ~seed:1
        ~system:Experiments.Run.Zygos ~service:(Engine.Dist.exponential 10.) ()
    in
    let p = Experiments.Run.run_point cfg ~load:0.3 in
    let fired = Option.value ~default:0. (Experiments.Run.info_value p "sim_events_fired") in
    let r = fired /. float_of_int p.Experiments.Run.completed in
    if r > events_per_req_bound then
      Alcotest.failf "zygos %d cores fires %.2f events/request (want <= %g)" cores r
        events_per_req_bound;
    r
  in
  let r16 = per_req 16 and r64 = per_req 64 in
  if r64 /. r16 > events_core_ratio_bound then
    Alcotest.failf "64 cores fire %.2fx the events/request of 16 (%.2f vs %.2f; want <= %g)"
      (r64 /. r16) r64 r16 events_core_ratio_bound

let test_end_to_end_reuse_ratio () =
  (* The same invariant through the full stack: a ZygOS point's event
     pool must serve almost every schedule from the free list. *)
  let cfg =
    Experiments.Run.config ~cores:4 ~conns:64 ~requests:4_000 ~seed:11
      ~system:Experiments.Run.Zygos ~service:(Engine.Dist.exponential 10.) ()
  in
  let p = Experiments.Run.run_point cfg ~load:0.7 in
  let get key = Option.value ~default:0. (List.assoc_opt key p.Experiments.Run.info) in
  let scheduled = get "sim_events_scheduled" and reused = get "sim_events_reused" in
  if scheduled <= 0. then Alcotest.fail "no events scheduled";
  let ratio = reused /. scheduled in
  if ratio < 0.9 then
    Alcotest.failf "end-to-end reuse ratio %.4f (reused %g / scheduled %g), want >= 0.9"
      ratio reused scheduled

let () =
  Alcotest.run "perf-guard"
    [
      ( "allocation-free hot path",
        [
          Alcotest.test_case "schedule_fn minor words/event = 0" `Quick
            test_fn_minor_words_per_event;
          Alcotest.test_case "deep schedule_fn minor words/event = 0" `Quick
            test_fn_deep_minor_words;
          Alcotest.test_case "event-pool reuse ratio ~ 1" `Quick test_pool_reuse_ratio;
          Alcotest.test_case "63-step walk minor words = 0" `Quick test_walk_minor_words;
          Alcotest.test_case "zygos events/request bounded, flat in cores" `Quick
            test_zygos_events_per_request;
          Alcotest.test_case "zygos point reuse ratio >= 0.9" `Quick
            test_end_to_end_reuse_ratio;
          Alcotest.test_case "request path minor words/request bounded" `Quick
            test_request_path_minor_words;
        ] );
    ]
