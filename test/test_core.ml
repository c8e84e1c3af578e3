(* Tests for lib/core: the ZygOS shuffle layer — PCB state machine,
   per-connection ordering, work conservation, steal accounting — plus the
   steal policy and the remote-syscall queue. Includes a model-based
   property test and a真 multicore stress test of the Mutex instantiation. *)

module S = Core.Sched.Sim_sched
module Mt = Core.Sched.Mt_sched
module Policy = Core.Steal_policy
module RQ = Core.Remote_queue.Make (Core.Platform.Nolock)

(* ---- unit tests on the state machine ---- *)

let mk ?(cores = 4) ?(conns = 8) () =
  let sched = S.create ~cores in
  let pcbs = Array.init conns (fun c -> S.register sched ~conn:c ~home:(c mod cores)) in
  (sched, pcbs)

(* The batch [core]'s last successful claim parked in its scratch:
   (pcb, events in arrival order, victim core or -1 if local). *)
let claimed sched ~core =
  ( S.batch_pcb sched ~core,
    List.init (S.batch_size sched ~core) (S.batch_event sched ~core),
    S.batch_stolen_from sched ~core )

let test_deliver_makes_ready () =
  let sched, pcbs = mk () in
  Alcotest.(check bool) "idle initially" true (S.state pcbs.(0) = S.Idle);
  S.deliver sched pcbs.(0) "a";
  Alcotest.(check bool) "ready" true (S.state pcbs.(0) = S.Ready);
  Alcotest.(check int) "in home queue" 1 (S.queue_length sched ~core:0);
  S.deliver sched pcbs.(0) "b";
  Alcotest.(check int) "still once in queue" 1 (S.queue_length sched ~core:0);
  Alcotest.(check int) "two events pending" 2 (S.pending_events pcbs.(0))

let test_dispatch_batches () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "a";
  S.deliver sched pcbs.(0) "b";
  if not (S.poll_local sched ~core:0) then Alcotest.fail "expected local dispatch";
  (match claimed sched ~core:0 with
  | pcb, batch, -1 ->
      Alcotest.(check (list string)) "whole batch in order" [ "a"; "b" ] batch;
      Alcotest.(check bool) "busy" true (S.state pcb = S.Busy);
      S.complete sched pcb;
      Alcotest.(check bool) "idle after" true (S.state pcb = S.Idle)
  | _ -> Alcotest.fail "expected local dispatch");
  Alcotest.(check bool) "queue drained" false (S.poll_local sched ~core:0)

let test_events_during_busy_reready () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "a";
  if not (S.poll_local sched ~core:0) then Alcotest.fail "expected dispatch";
  let pcb = S.batch_pcb sched ~core:0 in
  S.deliver sched pcbs.(0) "late";
  Alcotest.(check bool) "still busy" true (S.state pcb = S.Busy);
  Alcotest.(check int) "not re-queued while busy" 0 (S.queue_length sched ~core:0);
  S.complete sched pcb;
  Alcotest.(check bool) "ready again" true (S.state pcb = S.Ready);
  Alcotest.(check int) "re-enqueued" 1 (S.queue_length sched ~core:0)

let test_steal () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "a";
  (* core 1 steals from core 0 *)
  if not (S.poll sched ~core:1 ~steal_order:[| 0; 2; 3 |]) then
    Alcotest.fail "expected steal from core 0";
  match claimed sched ~core:1 with
  | pcb, [ "a" ], 0 ->
      S.complete sched pcb;
      let c = S.counters sched ~core:1 in
      Alcotest.(check int) "steal counted" 1 c.S.steal_dispatches;
      Alcotest.(check int) "stolen events" 1 c.S.stolen_events;
      Alcotest.(check (float 1e-9)) "steal fraction" 1.0 (S.steal_fraction sched)
  | _ -> Alcotest.fail "expected steal from core 0"

let test_local_preferred_over_steal () =
  let sched, pcbs = mk () in
  S.deliver sched pcbs.(0) "remote";
  S.deliver sched pcbs.(1) "local";
  (* conn 1 homes on core 1; core 1 must take its own work first. *)
  if not (S.poll sched ~core:1 ~steal_order:[| 0; 2; 3 |]) then
    Alcotest.fail "expected local dispatch first";
  match claimed sched ~core:1 with
  | pcb, [ "local" ], -1 -> S.complete sched pcb
  | _ -> Alcotest.fail "expected local dispatch first"

let test_complete_non_busy_raises () =
  let sched, pcbs = mk () in
  Alcotest.check_raises "complete idle pcb" (Invalid_argument "Sched.complete: pcb not busy")
    (fun () -> S.complete sched pcbs.(0))

let test_register_validation () =
  let sched, _ = mk () in
  Alcotest.check_raises "home out of range" (Invalid_argument "Sched.register: home out of range")
    (fun () -> ignore (S.register sched ~conn:99 ~home:7 : string S.pcb));
  Alcotest.check_raises "cores < 1" (Invalid_argument "Sched.create: cores < 1") (fun () ->
      ignore (S.create ~cores:0 : string S.t))

let test_has_ready () =
  let sched, pcbs = mk () in
  Alcotest.(check bool) "nothing ready" false (S.has_ready sched);
  S.deliver sched pcbs.(3) "x";
  Alcotest.(check bool) "ready somewhere" true (S.has_ready sched)

(* ---- model-based property test ----

   Drive the scheduler with random operations and check the §4.3/§4.4
   invariants against a reference model: per-connection event order is
   preserved across arbitrary interleavings of dispatch/steal/complete,
   no event is lost or duplicated, and a connection is never dispatched
   concurrently. *)

type op = Deliver of int (* conn *) | Dispatch of int (* core *) | Complete of int (* conn *)

let op_gen ~conns ~cores =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun c -> Deliver (c mod conns)) small_nat);
        (3, map (fun c -> Dispatch (c mod cores)) small_nat);
        (3, map (fun c -> Complete (c mod conns)) small_nat);
      ])

let prop_scheduler_model =
  let conns = 6 and cores = 3 in
  QCheck.Test.make ~name:"random ops preserve ordering and conservation" ~count:500
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 200) (op_gen ~conns ~cores))
       ~print:(fun ops -> string_of_int (List.length ops)))
    (fun ops ->
      let sched = S.create ~cores in
      let pcbs = Array.init conns (fun c -> S.register sched ~conn:c ~home:(c mod cores)) in
      let next_event_id = ref 0 in
      let delivered = Array.make conns [] in
      let executed = Array.make conns [] in
      let in_flight : (int, (int S.pcb * int list)) Hashtbl.t = Hashtbl.create 8 in
      let policies =
        Array.init cores (fun self -> Policy.create ~rng:(Engine.Rng.create ~seed:1) ~cores ~self)
      in
      List.iter
        (fun op ->
          match op with
          | Deliver conn ->
              let id = !next_event_id in
              incr next_event_id;
              delivered.(conn) <- id :: delivered.(conn);
              S.deliver sched pcbs.(conn) id
          | Dispatch core ->
              let p = policies.(core) in
              let order = Array.init (Policy.victims p) (Policy.random_victim p) in
              if S.poll sched ~core ~steal_order:order then begin
                let pcb, batch, _ = claimed sched ~core in
                let conn = S.conn pcb in
                if Hashtbl.mem in_flight conn then
                  QCheck.Test.fail_report "connection dispatched twice concurrently";
                Hashtbl.add in_flight conn (pcb, batch)
              end
          | Complete conn -> (
              match Hashtbl.find_opt in_flight conn with
              | None -> ()
              | Some (pcb, batch) ->
                  Hashtbl.remove in_flight conn;
                  (* executed logs are kept newest-first *)
                  executed.(conn) <- List.rev_append batch executed.(conn);
                  S.complete sched pcb))
        ops;
      (* Drain: finish in-flight batches, then dispatch until empty. *)
      let flushed = Hashtbl.fold (fun conn v acc -> (conn, v) :: acc) in_flight [] in
      List.iter
        (fun (conn, (pcb, batch)) ->
          Hashtbl.remove in_flight conn;
          executed.(conn) <- List.rev_append batch executed.(conn);
          S.complete sched pcb)
        flushed;
      let rec drain () =
        if S.poll sched ~core:0 ~steal_order:(Array.init cores (fun i -> i)) then begin
          let pcb, batch, _ = claimed sched ~core:0 in
          executed.(S.conn pcb) <- List.rev_append batch executed.(S.conn pcb);
          S.complete sched pcb;
          drain ()
        end
      in
      drain ();
      (* Work conservation: nothing ready remains. *)
      if S.has_ready sched then QCheck.Test.fail_report "events left behind";
      (* Per-connection order and no loss/duplication. *)
      Array.iteri
        (fun conn log ->
          let got = List.rev executed.(conn) in
          let want = List.rev log in
          if got <> want then
            QCheck.Test.fail_reportf "conn %d: executed %s, delivered %s" conn
              (String.concat "," (List.map string_of_int got))
              (String.concat "," (List.map string_of_int want)))
        delivered;
      true)

(* ---- steal policy ---- *)

let full_walk p = Array.init (Policy.victims p) (Policy.random_victim p)

let test_policy_permutation () =
  let rng = Engine.Rng.create ~seed:2 in
  let p = Policy.create ~rng ~cores:8 ~self:3 in
  for _ = 1 to 50 do
    let sorted = List.sort compare (Array.to_list (full_walk p)) in
    Alcotest.(check (list int)) "permutation of others" [ 0; 1; 2; 4; 5; 6; 7 ] sorted
  done

(* Whatever partial walks came before, a full walk visits the other
   cores exactly once each: the victim array stays a permutation of
   them across walks that stop early. *)
let prop_walk_multiset =
  QCheck.Test.make ~name:"walk preserves multiset" ~count:200
    QCheck.(triple int (int_range 2 70) (small_list small_nat))
    (fun (seed, cores, partial) ->
      let self = seed land max_int mod cores in
      let p = Policy.create ~rng:(Engine.Rng.create ~seed) ~cores ~self in
      let n = Policy.victims p in
      List.iter (fun k -> ignore (List.init (k mod (n + 1)) (Policy.random_victim p))) partial;
      List.sort compare (Array.to_list (full_walk p))
      = List.init n (fun i -> if i < self then i else i + 1))

let test_policy_round_robin () =
  let rng = Engine.Rng.create ~seed:3 in
  let p = Policy.create ~rng ~cores:4 ~self:2 in
  Alcotest.(check (list int)) "rr order" [ 3; 0; 1 ] (List.init 3 (Policy.rr_victim p));
  Alcotest.check_raises "past the last victim"
    (Invalid_argument "Steal_policy.rr_victim: step out of range") (fun () ->
      ignore (Policy.rr_victim p 3 : int))

let test_policy_randomizes () =
  let rng = Engine.Rng.create ~seed:4 in
  let p = Policy.create ~rng ~cores:16 ~self:0 in
  let a = full_walk p in
  let differs = ref false in
  for _ = 1 to 20 do
    if full_walk p <> a then differs := true
  done;
  Alcotest.(check bool) "order varies across walks" true !differs

(* Step [k] of a walk is one [Rng.int r (victims - k)] draw: on a copy of
   the same state, a reference forward Fisher–Yates yields the same
   victims and leaves the generator at the same point, however far the
   walk goes and whatever an earlier walk left in the victim array. *)
let prop_walk_draws =
  QCheck.Test.make ~name:"k-step walk = k Rng.int draws" ~count:300
    QCheck.(quad int (int_range 2 70) small_nat small_nat)
    (fun (seed, cores, earlier, steps) ->
      let self = seed land max_int mod cores in
      let rng = Engine.Rng.create ~seed in
      let ref_rng = Engine.Rng.copy rng in
      let p = Policy.create ~rng ~cores ~self in
      let n = Policy.victims p in
      let a = Array.init n (fun i -> if i < self then i else i + 1) in
      let ref_step k =
        let j = k + Engine.Rng.int ref_rng (n - k) in
        let v = a.(j) in
        a.(j) <- a.(k);
        a.(k) <- v;
        v
      in
      let e = earlier mod (n + 1) and k = steps mod (n + 1) in
      List.init e (Policy.random_victim p) = List.init e ref_step
      && List.init k (Policy.random_victim p) = List.init k ref_step
      && Int64.equal (Engine.Rng.next_int64 rng) (Engine.Rng.next_int64 ref_rng))

(* The first and the second victim of a walk are each uniform over the
   other cores, across back-to-back two-step walks on one policy (each
   starting from the array the last one left). Pearson chi-square with
   14 degrees of freedom; 36.12 is its 0.999 quantile. *)
let test_walk_uniform () =
  let cores = 16 and self = 5 and walks = 100_000 in
  let p = Policy.create ~rng:(Engine.Rng.create ~seed:6) ~cores ~self in
  let first = Array.make cores 0 and second = Array.make cores 0 in
  for _ = 1 to walks do
    let v0 = Policy.random_victim p 0 in
    let v1 = Policy.random_victim p 1 in
    if v0 = v1 then Alcotest.fail "a walk revisited a victim";
    first.(v0) <- first.(v0) + 1;
    second.(v1) <- second.(v1) + 1
  done;
  let chi2 counts =
    let expected = float_of_int walks /. float_of_int (cores - 1) in
    let acc = ref 0. in
    Array.iteri
      (fun v n ->
        if v = self then Alcotest.(check int) "self never a victim" 0 n
        else acc := !acc +. (((float_of_int n -. expected) ** 2.) /. expected))
      counts;
    !acc
  in
  List.iter
    (fun (name, counts) ->
      let x = chi2 counts in
      if x > 36.12 then Alcotest.failf "%s victim: chi-square %.2f > 36.12 (df 14)" name x)
    [ ("first", first); ("second", second) ]

let test_policy_validation () =
  let rng = Engine.Rng.create ~seed:5 in
  Alcotest.check_raises "self out of range"
    (Invalid_argument "Steal_policy.create: self out of range") (fun () ->
      ignore (Policy.create ~rng ~cores:4 ~self:4 : Policy.t))

(* ---- remote queue ---- *)

let test_remote_queue_fifo () =
  let q = RQ.create () in
  Alcotest.(check bool) "empty" true (RQ.is_empty q);
  List.iter (RQ.push q) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (RQ.length q);
  Alcotest.(check (list int)) "drain order" [ 1; 2; 3 ] (RQ.drain q);
  Alcotest.(check (list int)) "drained empty" [] (RQ.drain q);
  Alcotest.(check int) "pushed total" 3 (RQ.pushed_total q)

(* ---- real multicore stress of the Mutex instantiation ---- *)

let test_mt_sched_stress () =
  let cores = 4 and conns = 16 and per_conn = 300 in
  let sched = Mt.create ~cores in
  let pcbs = Array.init conns (fun c -> Mt.register sched ~conn:c ~home:(c mod cores)) in
  let executed = Array.init conns (fun _ -> Atomic.make []) in
  let total = Atomic.make 0 in
  let stop = Atomic.make false in
  let worker core =
    let rng = Engine.Rng.create ~seed:(100 + core) in
    let policy = Policy.create ~rng ~cores ~self:core in
    let rec steal k =
      k < Policy.victims policy
      && (Mt.steal_from sched ~core ~victim:(Policy.random_victim policy k) || steal (k + 1))
    in
    let rec loop () =
      if Mt.poll_local sched ~core || (Mt.has_ready sched && steal 0) then begin
        let pcb = Mt.batch_pcb sched ~core in
        let log = executed.(Mt.conn pcb) in
        for i = 0 to Mt.batch_size sched ~core - 1 do
          let ev = Mt.batch_event sched ~core i in
          let rec push () =
            let old = Atomic.get log in
            if not (Atomic.compare_and_set log old (ev :: old)) then push ()
          in
          push ();
          ignore (Atomic.fetch_and_add total 1 : int)
        done;
        Mt.complete sched pcb;
        loop ()
      end
      else if not (Atomic.get stop) then loop ()
    in
    loop ()
  in
  let domains = List.init cores (fun core -> Domain.spawn (fun () -> worker core)) in
  (* Producer: deliver events with per-conn sequence numbers. *)
  for seq = 0 to per_conn - 1 do
    for conn = 0 to conns - 1 do
      Mt.deliver sched pcbs.(conn) seq
    done
  done;
  let deadline = Unix.gettimeofday () +. 30. in
  while Atomic.get total < conns * per_conn && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Atomic.set stop true;
  List.iter Domain.join domains;
  Alcotest.(check int) "all events executed" (conns * per_conn) (Atomic.get total);
  Array.iteri
    (fun conn log ->
      let got = List.rev (Atomic.get log) in
      let want = List.init per_conn Fun.id in
      if got <> want then Alcotest.failf "conn %d out of order or lossy" conn)
    executed

let () =
  Alcotest.run "core"
    [
      ( "sched",
        [
          Alcotest.test_case "deliver makes ready" `Quick test_deliver_makes_ready;
          Alcotest.test_case "dispatch batches" `Quick test_dispatch_batches;
          Alcotest.test_case "busy re-ready" `Quick test_events_during_busy_reready;
          Alcotest.test_case "steal" `Quick test_steal;
          Alcotest.test_case "local first" `Quick test_local_preferred_over_steal;
          Alcotest.test_case "complete non-busy" `Quick test_complete_non_busy_raises;
          Alcotest.test_case "register validation" `Quick test_register_validation;
          Alcotest.test_case "has_ready" `Quick test_has_ready;
          QCheck_alcotest.to_alcotest prop_scheduler_model;
        ] );
      ( "steal-policy",
        [
          Alcotest.test_case "permutation" `Quick test_policy_permutation;
          Alcotest.test_case "round robin" `Quick test_policy_round_robin;
          Alcotest.test_case "randomizes" `Quick test_policy_randomizes;
          Alcotest.test_case "validation" `Quick test_policy_validation;
          QCheck_alcotest.to_alcotest prop_walk_draws;
          QCheck_alcotest.to_alcotest prop_walk_multiset;
          Alcotest.test_case "walk victims uniform (chi-square)" `Quick test_walk_uniform;
        ] );
      ("remote-queue", [ Alcotest.test_case "fifo" `Quick test_remote_queue_fifo ]);
      ("multicore", [ Alcotest.test_case "mt stress" `Slow test_mt_sched_stress ]);
    ]
