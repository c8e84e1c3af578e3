(* The benchmark's workloads. Every point serves exp(10 µs) requests from
   an open-loop Poisson generator over uniformly chosen connections, at
   the paper's 16 cores and 2752 connections. *)

module Run = Experiments.Run
module Rackrun = Experiments.Rackrun

type scenario = Single of Run.config | Rack of Rackrun.config

type point = {
  label : string;  (** load level: "low", "mid" or "high" *)
  system : string;
  load : float;
  scenario : scenario;
}

let names = [ "zygos-16"; "baselines-16"; "rack-failover" ]

let cores = 16

let conns = 2752

let service = Engine.Dist.exponential 10.

(* Measured requests per point at scale 1. A pass of any workload then
   takes a few tenths of a second, so a run holds dozens of passes. *)
let base_requests = function
  | "zygos-16" -> 12_000
  | "baselines-16" -> 24_000
  | "rack-failover" -> 16_000
  | name -> invalid_arg ("Workload.base_requests: " ^ name)

let levels = [ ("low", 0.3); ("mid", 0.6); ("high", 0.9) ]

(* The rack runs below its storm point: with server 0 crashed the other
   three carry 4/3 of the load, and at 0.9 client retries feed back into
   a growing backlog. *)
let rack_levels = [ ("low", 0.3); ("mid", 0.5); ("high", 0.6) ]

let single ~system ~requests ~seed (label, load) =
  let config = Run.config ~cores ~conns ~requests ~seed ~system ~service () in
  { label; system = Run.system_name system; load; scenario = Single config }

(* The rack/crash figure panel plus client retries: server 0 is down
   for a quarter of the measured window (sim time 0.3 to 0.55 of it; the
   window opens at 0.2 after warm-up). The ToR detects the crash by
   timeout (300 µs x3), fails over and hedges at 200 µs; clients retry
   after 2000 µs, twice. *)
let rack ~requests ~seed (label, load) =
  let servers = 4 in
  let rate = load *. float_of_int (servers * cores) /. Engine.Dist.mean service in
  let measure = float_of_int requests /. rate in
  let failplan =
    [ Cluster.Failplan.Crash { server = 0; start = 0.3 *. measure; duration = 0.25 *. measure } ]
  in
  let detect =
    Cluster.Dispatch.
      {
        retry = Net.Loadgen.retry ~timeout:300. ~max_retries:3 ();
        health = Cluster.Health.config ();
      }
  in
  let config =
    Rackrun.config ~servers ~system:(Run.Ix 1) ~cores ~conns ~requests ~seed ~detect
      ~hedge:200. ~failplan
      ~retry:(Net.Loadgen.retry ~timeout:2000. ~max_retries:2 ())
      ~slo:1000. ~policy:(Cluster.Policy.Jbsq 32) ~service ()
  in
  { label; system = "rack-ix"; load; scenario = Rack config }

let make name ~seed ~scale =
  if not (scale > 0.) then invalid_arg "Workload.make: scale must be positive";
  let requests = max 100 (int_of_float (scale *. float_of_int (base_requests name))) in
  match name with
  | "zygos-16" -> List.map (single ~system:Run.Zygos ~requests ~seed) levels
  | "baselines-16" ->
      List.concat_map
        (fun system -> List.map (single ~system ~requests ~seed) levels)
        [ Run.Ix 1; Run.Linux_floating ]
  | _ -> List.map (rack ~requests ~seed) rack_levels

let fault_free p = match p.scenario with Single _ -> true | Rack _ -> false

(* The point itself, untraced, through the library's own runner. *)
let run p =
  match p.scenario with
  | Single c -> Run.run_point c ~load:p.load
  | Rack c -> Rackrun.run c ~load:p.load
