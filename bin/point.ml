(* zygos point: run a single latency/throughput experiment from the
   command line.

   Examples:
     zygos point --system zygos --dist exp --mean 10 --load 0.8
     zygos point --system ix --dist bimodal1 --mean 25 --sweep 0.2,0.5,0.8
     zygos point --system zygos --dist exp --mean 10 --slo 100 *)

open Cmdliner
module Run = Experiments.Run

let system_conv =
  let parse = function
    | "linux-partitioned" -> Ok Run.Linux_partitioned
    | "linux-floating" -> Ok Run.Linux_floating
    | "ix" -> Ok (Run.Ix 1)
    | "ix-b64" -> Ok (Run.Ix 64)
    | "zygos" -> Ok Run.Zygos
    | "zygos-noint" -> Ok Run.Zygos_no_interrupts
    | "model-central" -> Ok Run.Model_central_fcfs
    | "model-partitioned" -> Ok Run.Model_partitioned_fcfs
    | "ix-rebalanced" -> Ok (Run.Ix_rebalanced 200.)
    | s -> (
        match String.index_opt s 'q' with
        | Some 8 when String.length s > 9 && String.sub s 0 8 = "preempt-" -> (
            match float_of_string_opt (String.sub s 9 (String.length s - 9)) with
            | Some q when q > 0. -> Ok (Run.Preemptive q)
            | _ -> Error (`Msg (Printf.sprintf "bad preempt quantum in %S" s)))
        | _ -> Error (`Msg (Printf.sprintf "unknown system %S" s)))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Run.system_name s))

(* Numeric arguments that would make the run meaningless (a zero rate, no
   cores, no requests) are usage errors, reported before any simulation. *)
let checked conv what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int "a positive integer" (fun n -> n > 0)

let positive_float = checked Arg.float "a positive number" (fun f -> f > 0. && Float.is_finite f)

let fraction = checked Arg.float "a fraction in (0, 1)" (fun f -> f > 0. && f < 1.)

let dist_names = [ "fixed"; "exp"; "bimodal1"; "bimodal2" ]

let make_dist name mean =
  match name with
  | "fixed" -> Engine.Dist.deterministic mean
  | "exp" -> Engine.Dist.exponential mean
  | "bimodal1" -> Engine.Dist.bimodal1 ~mean
  | "bimodal2" -> Engine.Dist.bimodal2 ~mean
  | s -> invalid_arg ("unknown distribution " ^ s)

let system =
  Arg.(
    value
    & opt system_conv Run.Zygos
    & info [ "system" ] ~docv:"SYSTEM"
        ~doc:
          "System to simulate: linux-partitioned, linux-floating, ix, ix-b64, zygos, \
           zygos-noint, preempt-q<QUANTUM>, ix-rebalanced, model-central, \
           model-partitioned.")

let dist =
  Arg.(
    value
    & opt (enum (List.map (fun d -> (d, d)) dist_names)) "exp"
    & info [ "dist" ] ~docv:"DIST" ~doc:"Service-time distribution.")

let mean =
  Arg.(value & opt positive_float 10. & info [ "mean" ] ~docv:"US" ~doc:"Mean service time (µs).")

let load =
  Arg.(
    value & opt positive_float 0.7
    & info [ "load" ] ~docv:"FRACTION"
        ~doc:"Offered load as a fraction of the capacity of $(b,--cores) cores.")

let sweep =
  Arg.(
    value
    & opt (some (list positive_float)) None
    & info [ "sweep" ] ~docv:"L1,L2,..." ~doc:"Run several loads instead of one.")

let slo =
  Arg.(
    value
    & opt (some float) None
    & info [ "slo" ] ~docv:"US"
        ~doc:"Find the max load whose p99 meets this SLO (µs) instead of running one point.")

let cores = Arg.(value & opt positive_int 16 & info [ "cores" ] ~docv:"N" ~doc:"Worker cores.")

let conns =
  Arg.(value & opt positive_int 2752 & info [ "conns" ] ~docv:"N" ~doc:"Client connections.")

let requests =
  Arg.(
    value & opt positive_int 30_000
    & info [ "requests" ] ~docv:"N" ~doc:"Measured requests per point.")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

let packets =
  Arg.(
    value & opt positive_int 1
    & info [ "packets" ] ~docv:"N" ~doc:"Network packets per request each way.")

let hot_skew =
  Arg.(
    value
    & opt (some (pair ~sep:':' fraction fraction)) None
    & info [ "skew" ] ~docv:"FRAC:LOAD"
        ~doc:
          "Persistent connection skew: the first FRAC of connections receive LOAD of the \
           traffic (e.g. 0.05:0.5).")

let print_point (p : Run.point) =
  Printf.printf
    "load=%.3f offered=%.3f MRPS tput=%.3f MRPS mean=%.1fus p50=%.1fus p99=%.1fus p999=%.1fus \
     completed=%d order_violations=%d\n"
    p.load p.offered_rate p.throughput p.mean p.p50 p.p99 p.p999 p.completed p.order_violations;
  List.iter (fun (k, v) -> Printf.printf "  %s = %g\n" k v) p.info

let run system dist mean load sweep slo cores conns requests seed packets hot_skew =
  let service = make_dist dist mean in
  let selection =
    match hot_skew with
    | None -> Net.Loadgen.Uniform
    | Some (hot_fraction, hot_load) -> Net.Loadgen.Hot_cold { hot_fraction; hot_load }
  in
  let cfg =
    Run.config ~system ~service ~cores ~conns ~requests ~seed ~rpc_packets:packets ~selection ()
  in
  Printf.printf "system=%s dist=%s mean=%gus cores=%d conns=%d requests=%d\n"
    (Run.system_name system) dist mean cores conns requests;
  match (slo, sweep) with
  | Some slo_us, _ ->
      let max_load, point = Run.max_load_at_slo cfg ~slo_p99:slo_us () in
      Printf.printf "max load @ p99<=%.0fus: %.2f (%.3f MRPS)\n" slo_us max_load
        point.Run.throughput;
      print_point point
  | None, Some loads -> List.iter (fun l -> print_point (Run.run_point cfg ~load:l)) loads
  | None, None -> print_point (Run.run_point cfg ~load)

let cmd =
  let doc = "single-point ZygOS/IX/Linux tail-latency simulations" in
  Cmd.v
    (Cmd.info "zygos point" ~doc)
    Term.(
      const run $ system $ dist $ mean $ load $ sweep $ slo $ cores $ conns $ requests $ seed
      $ packets $ hot_skew)

(* [argv.(0)] is the subcommand name; the flags follow it. *)
let main argv = exit (Cmd.eval ~argv cmd)
