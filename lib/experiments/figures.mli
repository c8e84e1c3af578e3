(** Regeneration of every table and figure in the paper's evaluation
    (§2.3, §3.4, §6, §7), printing the same rows/series the paper plots.

    Every generator is data: a header plus panels, each a table whose rows
    are label cells followed by the cells that the row's sweep points
    render. One render step runs all of a figure's points in one {!Sweep} on
    [jobs] domains (idle domains steal; [jobs = 1] stays in the calling
    domain) and prints the panels in order. Per-point seeds are derived
    from the point's stable key (see {!Sweep.point_seed}), so the rendered
    output is byte-identical for every [jobs] value.

    [scale] multiplies the per-point measured-request budget (1.0 = the
    defaults recorded in EXPERIMENTS.md; 0.2 for a quick pass). All output
    goes through {!Output} (stdout unless captured). *)

type target = jobs:int -> scale:float -> unit

val fig2 : target
(** Queueing-model p99 vs load, 4 models × 4 distributions (n = 16). *)

val fig3 : target
(** Baselines: max load meeting p99 <= 10·S̄ as a function of S̄ —
    Linux-partitioned/floating, IX, and the two model bounds. *)

val fig6 : target
(** p99 latency vs throughput, {fixed, exp, bimodal-1} × {10µs, 25µs}:
    Linux-floating, IX, ZygOS, ZygOS-no-interrupts, M/G/16/FCFS. *)

val fig7 : target
(** Max load @ SLO vs S̄ with ZygOS included (1–50µs). *)

val fig8 : target
(** Steal rate vs throughput, ZygOS with and without IPIs (exp, 25µs). *)

val fig9 : target
(** memcached ETC/USR: p99 vs throughput for Linux, IX B=1, IX B=64,
    ZygOS. *)

val silo_service_samples : scale:float -> float array
(** Measured service times (µs) of a real TPC-C run on the Silo engine,
    normalized to the paper's 33µs mean (see EXPERIMENTS.md); memoized so
    fig10a/fig10b/table1 share one run. *)

val fig10a : target
(** CCDF of Silo/TPC-C service time per transaction type and for the
    mix. One real measured execution — [jobs] is ignored. *)

val fig10b : target
(** Silo/TPC-C p99 end-to-end latency vs throughput on Linux, IX, ZygOS. *)

val table1 : target
(** Max load @ 1000µs SLO, speedups, and tails at 50/75/90% of max. *)

val fig11 : target
(** IX B=1 / B=64 / ZygOS under 100µs and 1000µs SLOs (fixed 10µs). *)

val ablate_poll : target
(** Ablation: randomized vs round-robin idle-loop victim order. *)

val ablate_batch : target
(** Ablation: IX batching bound B and ZygOS receive-batch sweep. *)

val ext_preempt : target
(** Extension: preemptive centralized scheduling (quantum + switch cost)
    vs FCFS systems under extreme dispersion (bimodal-2) — Observation 2
    of §2.3 turned into a system. *)

val ext_rebalance : target
(** Extension (§5 "control plane interactions", left as future work by the
    paper): a control plane that re-programs the RSS indirection table to
    fight persistent load imbalance, compared with static IX and with
    ZygOS's work stealing under a skewed connection load. *)

val ext_consolidate : target
(** Extension (§5): the IX control plane's energy-proportionality
    function — dynamic core parking/unparking by measured utilization —
    on the centralized preemptive system, vs a static 16-core
    allocation. *)

val chaos : target
(** Robustness: degradation curves under injected network faults (drop /
    duplicate / reorder), a straggler core, and retry storms past
    saturation — goodput and p99 for Linux-floating, IX, and ZygOS, with
    and without server-side load shedding. *)

val rack : target
(** Rack tier: 4 ZygOS servers behind a ToR dispatcher. Inter-server
    policy (hash / random / po2 / jsq / jbsq) x load against the
    rack-wide M/G/64 centralized bound; estimate-staleness sweep; one
    degraded server (queue-aware policies route around it, static
    hashing collapses); and a crash window with timeout detection,
    failover re-dispatch, and hedged requests. *)

val all_targets : (string * target) list
(** Name → generator, in run order (the bench executable's registry). *)
