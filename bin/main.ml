(* zygos: run the paper's figure/table generators, optionally in
   parallel on a domain pool, or one experiment point ([zygos point], see
   point.ml).

   Examples:
     dune exec zygos -- fig6 -j 4
     dune exec zygos -- fig8 ablate-batch
     ZYGOS_BENCH_SCALE=0.05 dune exec zygos -- all -j 2
     dune exec zygos -- point --system ix --load 0.8

   Figure output goes to stdout and is byte-identical for every -j value
   (per-point seeds derive from stable point keys, and rendering happens
   after the pool joins, in enumeration order). Run metadata and pool
   statistics go to stderr so stdout can be diffed across -j values. *)

let usage () =
  Printf.eprintf
    "usage: zygos [TARGET...] [-j N] [--scale S] [--equeue heap|wheel]\n\
     \       zygos point [--system SYSTEM] [--load L] ... (see zygos point --help)\n\
     \  TARGET   one of: %s (default: all)\n\
     \  -j N     run sweep points on N domains (default 1; also ZYGOS_JOBS)\n\
     \  --scale S  request-budget multiplier (default 1.0; also ZYGOS_BENCH_SCALE)\n\
     \  --equeue Q  event-queue back end: heap or wheel (default wheel;\n\
     \              output is byte-identical either way)\n"
    (String.concat " " (List.map fst Experiments.Figures.all_targets));
  exit 1

let env_float name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0. -> f
      | _ ->
          Printf.eprintf "%s must be a positive float\n" name;
          exit 1)
  | None -> default

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
      match int_of_string_opt s with
      | Some i when i >= 1 -> i
      | _ ->
          Printf.eprintf "%s must be a positive integer\n" name;
          exit 1)
  | None -> default

let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && String.equal argv.(1) "point" then
    Point.main (Array.sub argv 1 (Array.length argv - 1));
  let jobs = ref (env_int "ZYGOS_JOBS" 1) in
  let scale = ref (env_float "ZYGOS_BENCH_SCALE" 1.0) in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | ("-j" | "--jobs") :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            jobs := j;
            parse rest
        | _ -> usage ())
    | "--scale" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. ->
            scale := s;
            parse rest
        | _ -> usage ())
    | "--equeue" :: v :: rest -> (
        (* before any sweep spawns pool workers: every Sim.create () in
           every domain then picks this back end *)
        match Engine.Equeue.kind_of_string v with
        | Some k ->
            Engine.Sim.set_default_queue k;
            parse rest
        | None -> usage ())
    | ("-h" | "--help") :: _ -> usage ()
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" -> (
        match int_of_string_opt (String.sub a 2 (String.length a - 2)) with
        | Some j when j >= 1 ->
            jobs := j;
            parse rest
        | _ -> usage ())
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest ->
        names := a :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match List.rev !names with
    | [] | [ "all" ] -> List.map fst Experiments.Figures.all_targets
    | names ->
        List.iter
          (fun n ->
            let known (name, _) = String.equal name n in
            if not (List.exists known Experiments.Figures.all_targets) then begin
              Printf.eprintf "unknown target %S\nvalid targets: %s all\n" n
                (String.concat " " (List.map fst Experiments.Figures.all_targets));
              exit 2
            end)
          names;
        names
  in
  Printf.eprintf "zygos: targets [%s], scale=%g, jobs=%d\n%!"
    (String.concat " " selected) !scale !jobs;
  Experiments.Sweep.reset_totals ();
  List.iter
    (fun name ->
      (* Progress reporting on stderr: wall-clock never reaches the
         figures themselves, which are seeded-simulation outputs. *)
      let t0 = (Unix.gettimeofday () [@zygos.allow "determinism"]) in
      let _, target =
        List.find (fun (n, _) -> String.equal n name) Experiments.Figures.all_targets
      in
      target ~jobs:!jobs ~scale:!scale;
      flush stdout;
      Printf.eprintf "[%s done in %.1fs]\n%!" name
        ((Unix.gettimeofday () [@zygos.allow "determinism"]) -. t0))
    selected;
  let totals = Experiments.Sweep.read_totals () in
  if totals.Experiments.Sweep.points > 0 then
    Printf.eprintf
      "[sweep pool: %d points over %d sweeps, %d steals, busy %.1fs / wall %.1fs, max %d \
       workers]\n"
      totals.Experiments.Sweep.points totals.Experiments.Sweep.sweeps
      totals.Experiments.Sweep.steals totals.Experiments.Sweep.busy_s
      totals.Experiments.Sweep.wall_s totals.Experiments.Sweep.workers
