(* The benchmark's own tests: the ledger adds up, a mismatching output is
   counted as a failed point, and a seed other than the tuning seed runs
   clean on every workload. Points run at a few percent of their
   benchmark size. *)

open Perfbench
module Run = Experiments.Run

let small name = Workload.make name ~seed:3 ~scale:0.05

let test_ledger_adds_up () =
  List.iter
    (fun name ->
      List.iter
        (fun wp ->
          let r = Compose.run wp in
          let sp = r.Compose.spans in
          let selves = List.map (Spans.self_ns sp) Spans.kinds in
          List.iter (fun s -> Alcotest.(check bool) "self time >= 0" true (s >= 0)) selves;
          (* Every wrapped call runs inside [Sim.run], so the self times
             partition the run span exactly. *)
          Alcotest.(check int) "self times partition Sim.run"
            (Spans.total_ns sp Spans.Run) (List.fold_left ( + ) 0 selves);
          let l = Pass.ledger_of wp r ~cycle_ns:70. in
          Alcotest.(check (float 1e-6)) "ledger sums to its traced total" l.Pass.total_ns
            (Pass.ledger_sum l))
        (small name))
    [ "zygos-16"; "rack-failover" ]

let test_mismatch_counts_as_failed () =
  let wp = List.hd (small "baselines-16") in
  let p = Workload.run wp in
  Alcotest.(check (list string)) "identical points agree" []
    (Checks.compare_points ~expected:p ~actual:p);
  let seeded = { p with Run.p99 = Float.succ p.Run.p99; Run.completed = p.Run.completed + 1 } in
  let msgs = Checks.compare_points ~expected:p ~actual:seeded in
  Alcotest.(check int) "both fields reported" 2 (List.length msgs);
  let name = Pass.point_name wp in
  Alcotest.(check int) "one failed point, however many checks" 1
    (Pass.failed_points ~attempted:[ wp ] (List.map (fun m -> (name, m)) msgs));
  Alcotest.(check bool) "digest sees one ulp" false
    (String.equal (Checks.digest [ p ]) (Checks.digest [ seeded ]))

let test_second_seed_clean () =
  List.iter
    (fun workload ->
      let o =
        Pass.run ~workload ~seed:2 ~scale:0.05 ~traced:true ~check_composition:true
          ~check_heap:true ()
      in
      Alcotest.(check (list (pair string string))) (workload ^ " checks") [] o.Pass.failures;
      Alcotest.(check (option string)) "traced digest" (Some o.Pass.digest) o.Pass.traced_digest)
    Workload.names

let test_rack_steal_fraction () =
  let cfg =
    Experiments.Rackrun.config ~servers:4 ~system:Run.Zygos ~requests:2000 ~seed:5
      ~policy:Cluster.Policy.Jsq ~service:(Engine.Dist.exponential 10.) ()
  in
  let p = Experiments.Rackrun.run cfg ~load:0.7 in
  let f = Pass.steal_fraction [ p ] in
  Alcotest.(check bool) "a fraction of dispatched events" true (f > 0. && f <= 1.)

let () =
  Alcotest.run "perfbench"
    [
      ( "ledger",
        [
          Alcotest.test_case "adds up to the traced total" `Quick test_ledger_adds_up;
          Alcotest.test_case "rack steal fraction from summed counts" `Quick
            test_rack_steal_fraction;
        ] );
      ( "checks",
        [
          Alcotest.test_case "seeded mismatch is a failed point" `Quick
            test_mismatch_counts_as_failed;
          Alcotest.test_case "second seed runs clean" `Quick test_second_seed_clean;
        ] );
    ]
