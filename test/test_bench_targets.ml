(* Regression net over deliverable (d): every bench target must run to
   completion at a tiny scale without raising, and the registry must stay
   complete. The heavyweight sweep targets (fig3/fig6/fig7) are exercised
   once each at the minimum request budget; everything else too. Output is
   captured through [Output.capture]; every deterministic target's output
   is pinned by its MD5, so a refactor of the figure code must keep every
   byte. fig10a/fig10b/table1 time real Silo transactions and are only run.
   Every target that runs the randomized ZygOS idle loop (fig6-9, fig11,
   ablate-poll, ext-preempt, ext-rebalance, chaos, rack) was re-captured
   when its steal walk began drawing victims one at a time. *)

let goldens =
  [
    ("fig2", "9c8ac536b8650544a5ed9a8183c2ea80");
    ("fig3", "cbbab8886af499f69fd5eeb5d80fc0b5");
    ("fig6", "c5b51518cf782450e54cb40842c7c7d5");
    ("fig7", "00bf75f368d44bbd4e629dfb2ffacac1");
    ("fig8", "8fa69bcec9c2aca8913985b1e18cca2d");
    ("fig9", "16dda862cf477da4763331539ff2e0a6");
    ("fig11", "6808d0f9d592a66da9d7d27fbbd2712f");
    ("ablate-poll", "df8c7a56ad237efdd0c5a0790be611a0");
    ("ablate-batch", "234c1366d28e45b4ec98492e8144c9b3");
    ("ext-preempt", "378f3ea2d41554541d949cc3c4b6ffdc");
    ("ext-rebalance", "538ff8a5f44083fe8fef180e7b1c1318");
    ("ext-consolidate", "6266086fbdbf0c11e23f6db9d3eac371");
    ("chaos", "c937b9d61bad6646abb8695d2680251c");
    ("rack", "03164d1a25e08e704901002ad6228bf1");
  ]

let fast_targets =
  [ "fig2"; "fig8"; "fig9"; "fig10a"; "fig10b"; "table1"; "fig11"; "ablate-poll";
    "ablate-batch"; "ext-preempt"; "ext-rebalance"; "ext-consolidate"; "chaos"; "rack" ]

let slow_targets = [ "fig3"; "fig7"; "fig6" ]

let run_target ?(jobs = 1) name =
  match List.assoc_opt name Experiments.Figures.all_targets with
  | None -> Alcotest.failf "target %s missing from registry" name
  | Some f -> (
      let out = Experiments.Output.capture (fun () -> f ~jobs ~scale:0.01) in
      match List.assoc_opt name goldens with
      | Some md5 -> Alcotest.(check string) (name ^ " output MD5") md5 Digest.(to_hex (string out))
      | None -> ())

(* jobs:2 so every fast target also exercises the pooled path. *)
let test_fast_targets () = List.iter (run_target ~jobs:2) fast_targets

let test_slow_targets () = List.iter (run_target ~jobs:1) slow_targets

let test_registry_complete () =
  let names = List.map fst Experiments.Figures.all_targets in
  List.iter
    (fun n -> if not (List.mem n names) then Alcotest.failf "missing: %s" n)
    (fast_targets @ slow_targets);
  List.iter
    (fun n ->
      if not (List.mem_assoc n goldens || List.mem n [ "fig10a"; "fig10b"; "table1" ]) then
        Alcotest.failf "target %s has no output MD5" n)
    names

(* CLI checks run the binary (the dune deps make it available). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* Exit code, stdout and stderr of [main.exe args]. *)
let run_cli args =
  let out = Filename.temp_file "zygos_cli" ".out" and err = Filename.temp_file "zygos_cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let rc =
        Sys.command
          (Printf.sprintf "../bin/main.exe %s >%s 2>%s" args (Filename.quote out)
             (Filename.quote err))
      in
      (rc, read_file out, read_file err))

(* An unknown figure target exits non-zero and names the valid ones. *)
let test_unknown_target_cli () =
  let rc, _, err = run_cli "no-such-target" in
  if rc = 0 then Alcotest.fail "unknown target must exit non-zero";
  List.iter
    (fun needle ->
      if not (contains err needle) then
        Alcotest.failf "stderr must mention %S, got:\n%s" needle err)
    [ "unknown target"; "valid targets:"; "rack"; "fig2"; "chaos" ]

let test_point_cli () =
  let rc, out, err =
    run_cli "point --system ix --cores 2 --conns 16 --requests 500 --load 0.5"
  in
  if rc <> 0 then Alcotest.failf "zygos point exited %d:\n%s" rc err;
  if not (contains out "completed=") then Alcotest.failf "no completed= line in:\n%s" out

(* A zero load (or core count, ...) is a usage error, not a crash. *)
let test_point_cli_rejects_zero () =
  List.iter
    (fun flag ->
      let rc, _, err = run_cli (Printf.sprintf "point %s 0" flag) in
      if rc = 0 then Alcotest.failf "point %s 0 must exit non-zero" flag;
      if contains err "uncaught exception" || not (contains err flag) then
        Alcotest.failf "point %s 0 must be a usage error naming the flag, got:\n%s" flag err)
    [ "--load"; "--cores"; "--conns"; "--requests"; "--mean"; "--packets" ]

let () =
  Alcotest.run "bench-targets"
    [
      ( "targets",
        [
          Alcotest.test_case "registry complete" `Quick test_registry_complete;
          Alcotest.test_case "unknown target exits non-zero" `Quick
            test_unknown_target_cli;
          Alcotest.test_case "point subcommand" `Quick test_point_cli;
          Alcotest.test_case "point rejects zero" `Quick test_point_cli_rejects_zero;
          Alcotest.test_case "fast targets run" `Slow test_fast_targets;
          Alcotest.test_case "sweep targets run" `Slow test_slow_targets;
        ] );
    ]
