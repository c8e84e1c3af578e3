(* One benchmark pass in a fresh process; prints one JSON line. Driven by
   perfbench/run.py, which repeats passes and aggregates them:

     main.exe --workload zygos-16 --seed 1 --trace 0 --pass 0 *)

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 and pass = ref 0 in
  let trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set_int trace, "0|1 traced pass with the layer ledger");
      ("--pass", Arg.Set_int pass, "N pass index: 0 checks the composition, 1 heap vs wheel");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the spans as CSV");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--trace 0|1] [--pass N] [--trace-out FILE]";
  if not (List.exists (String.equal !workload) Perfbench.Workload.names) then begin
    prerr_endline
      ("unknown workload '" ^ !workload ^ "'; expected one of: "
      ^ String.concat ", " Perfbench.Workload.names);
    exit 2
  end;
  let o =
    Perfbench.Pass.run ~workload:!workload ~seed:!seed ~scale:1. ~traced:(!trace = 1)
      ~check_composition:(!pass = 0) ~check_heap:(!pass = 1)
      ?trace_out:(if String.equal !trace_out "" then None else Some !trace_out)
      ()
  in
  print_endline (Perfbench.Pass.to_json o)
