(* Fixed-seed sweep determinism regression.

   The golden values below were captured from the seed implementation of
   the engine (boxed heap entries, per-event record allocation) before the
   SoA-heap/event-pool rewrite. The rewrite must not change simulation
   results at all: the same seeds must yield byte-identical points —
   throughput, every percentile, completion counts and ordering-violation
   counts. Floats are written as hex literals so the comparison is exact,
   with no parsing round-trip. *)

module Run = Experiments.Run

type golden = {
  g_system : Run.system_kind;
  g_load : float;
  g_throughput : float;
  g_mean : float;
  g_p50 : float;
  g_p99 : float;
  g_p999 : float;
  g_completed : int;
  g_order_violations : int;
}

(* Captured with: cores=4, conns=64, requests=2000, seed=7,
   service=exponential(10µs), loads [0.3; 0.7]. *)
let goldens =
  [
    {
      g_system = Run.Linux_floating;
      g_load = 0x1.3333333333333p-2;
      g_throughput = 0x1.ebc408d8ec95bp-4;
      g_mean = 0x1.74eadee7b14a4p+4;
      g_p50 = 0x1.39579c55f8ep+4;
      g_p99 = 0x1.2601f37c6448p+6;
      g_p999 = 0x1.d2acf2a279c8p+6;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Linux_floating;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.b6ae7d566cf41p-3;
      g_mean = 0x1.8e5635b17d5edp+10;
      g_p50 = 0x1.565c2baa49992p+10;
      g_p99 = 0x1.0cbad8934c1a1p+12;
      g_p999 = 0x1.279f551cda5c2p+12;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Ix 1;
      g_load = 0x1.3333333333333p-2;
      g_throughput = 0x1.eb851eb851eb8p-4;
      g_mean = 0x1.094fd32f8c5dp+4;
      g_p50 = 0x1.5e994770758p+3;
      g_p99 = 0x1.5ca89f6599ap+6;
      g_p999 = 0x1.1ca014b55dep+7;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Ix 1;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.1d92b7fe08aefp-2;
      g_mean = 0x1.933c516e9f8b8p+5;
      g_p50 = 0x1.edd4469b7d5p+4;
      g_p99 = 0x1.edb39613e19p+7;
      g_p999 = 0x1.24c9d3ea0fdfp+8;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Zygos;
      g_load = 0x1.3333333333333p-2;
      g_throughput = 0x1.eb851eb851eb8p-4;
      g_mean = 0x1.a00e003005d62p+3;
      g_p50 = 0x1.343cdabca5p+3;
      g_p99 = 0x1.a4414cec587p+5;
      g_p999 = 0x1.63ef50baa9ap+6;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Zygos;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.1f94855da2728p-2;
      g_mean = 0x1.955e912d2b1bcp+4;
      g_p50 = 0x1.36e46feb95dp+4;
      g_p99 = 0x1.9c9d9c67c648p+6;
      g_p999 = 0x1.82ab03f713b2p+7;
      g_completed = 1999;
      g_order_violations = 0;
    };
  ]

let exact = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%h" x) Float.equal

let test_fixed_seed_sweep () =
  let service = Engine.Dist.exponential 10. in
  List.iter
    (fun system ->
      let cfg =
        Run.config ~cores:4 ~conns:64 ~requests:2_000 ~seed:7 ~system ~service ()
      in
      let expected = List.filter (fun g -> g.g_system = system) goldens in
      let points = Run.sweep cfg ~loads:(List.map (fun g -> g.g_load) expected) in
      List.iter2
        (fun g (p : Run.point) ->
          let ctx fmt =
            Printf.sprintf "%s load=%g %s" (Run.system_name system) g.g_load fmt
          in
          Alcotest.check exact (ctx "throughput") g.g_throughput p.Run.throughput;
          Alcotest.check exact (ctx "mean") g.g_mean p.Run.mean;
          Alcotest.check exact (ctx "p50") g.g_p50 p.Run.p50;
          Alcotest.check exact (ctx "p99") g.g_p99 p.Run.p99;
          Alcotest.check exact (ctx "p999") g.g_p999 p.Run.p999;
          Alcotest.(check int) (ctx "completed") g.g_completed p.Run.completed;
          Alcotest.(check int) (ctx "order_violations") g.g_order_violations
            p.Run.order_violations)
        expected points)
    [ Run.Linux_floating; Run.Ix 1; Run.Zygos ]

(* Paper-scale ZygOS goldens: the idle loop's victim shuffles run over
   cores-1 = 15, 32 and 63 victims here (the 4-core points above only
   ever shuffle 3), and 33 and 64 cores straddle and fill 32-bit words
   of any per-core bitmap. The fixed-service points put many events at
   equal times, where the order of same-instant IPIs shows in the
   results. Captured with: conns=1024, requests=3000, seed=11, service
   exponential(10µs) at loads [0.3; 0.8] and fixed(10µs) at
   [0.7; 0.75]. *)
type paper_golden = {
  p_system : Run.system_kind;
  p_cores : int;
  p_fixed : bool;  (* fixed(10µs) service, else exponential(10µs) *)
  p_load : float;
  p_throughput : float;
  p_mean : float;
  p_p50 : float;
  p_p99 : float;
  p_p999 : float;
  p_completed : int;
  p_steal_fraction : float;
  p_ipis_sent : int;
  p_local_events : int;
  p_stolen_events : int;
  p_remote_batches : int;
}

let paper_goldens =
  [
    {
      p_system = Run.Zygos;
      p_cores = 16;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.ff822bbecaab9p-2;
      p_mean = 0x1.9d59f1686711dp+3;
      p_p50 = 0x1.3e0a350fd56p+3;
      p_p99 = 0x1.97faa9d6d148p+5;
      p_p999 = 0x1.201934d4cc6p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.56f96f96f96f9p-2;
      p_ipis_sent = 2814;
      p_local_events = 2490;
      p_stolen_events = 1254;
      p_remote_batches = 1253;
    };
    {
      p_system = Run.Zygos;
      p_cores = 16;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.4fdf3b645a1cbp+0;
      p_mean = 0x1.c57dafb67dcd7p+4;
      p_p50 = 0x1.8b0e817420e8p+4;
      p_p99 = 0x1.57d2a8390a34p+6;
      p_p999 = 0x1.c3332e18b13ap+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.6992992992993p-1;
      p_ipis_sent = 4245;
      p_local_events = 1100;
      p_stolen_events = 2644;
      p_remote_batches = 2610;
    };
    {
      p_system = Run.Zygos;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.24436492093acp+0;
      p_mean = 0x1.0fb20ae569b68p+4;
      p_p50 = 0x1.0718f7eafc0cp+4;
      p_p99 = 0x1.c9e1d1b0f7dp+4;
      p_p999 = 0x1.118a2ca9655p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.829ee58469ee6p-1;
      p_ipis_sent = 6530;
      p_local_events = 909;
      p_stolen_events = 2803;
      p_remote_batches = 2797;
    };
    {
      p_system = Run.Zygos;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.3a29c779a6b51p+0;
      p_mean = 0x1.334a66adfb119p+4;
      p_p50 = 0x1.22fa2be37a4p+4;
      p_p99 = 0x1.11d4f24867d1p+5;
      p_p999 = 0x1.542cb3b2595ep+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.713dcb08d3dcbp-1;
      p_ipis_sent = 5839;
      p_local_events = 1035;
      p_stolen_events = 2677;
      p_remote_batches = 2670;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.07bf1e8e60807p+0;
      p_mean = 0x1.a531a0cf7841cp+3;
      p_p50 = 0x1.45939b3fd81cp+3;
      p_p99 = 0x1.8b589abf2909p+5;
      p_p999 = 0x1.1de65f01208ap+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.77cb7cb7cb7cbp-2;
      p_ipis_sent = 3414;
      p_local_events = 2370;
      p_stolen_events = 1374;
      p_remote_batches = 1371;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.59eadd590c0aep+1;
      p_mean = 0x1.a08960aace42ap+4;
      p_p50 = 0x1.73619c0b69bcp+4;
      p_p99 = 0x1.294a38df8071p+6;
      p_p999 = 0x1.a1e9a1092d1ccp+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.8532532532532p-1;
      p_ipis_sent = 4934;
      p_local_events = 898;
      p_stolen_events = 2846;
      p_remote_batches = 2795;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.2e7b0b3919264p+1;
      p_mean = 0x1.079d47f15eb42p+4;
      p_p50 = 0x1.fe6666666668p+3;
      p_p99 = 0x1.b3ef55cc1ae2p+4;
      p_p999 = 0x1.25df183b41a5p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.a211a7b9611a8p-1;
      p_ipis_sent = 7469;
      p_local_events = 681;
      p_stolen_events = 3031;
      p_remote_batches = 3021;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.45096bb98c7e3p+1;
      p_mean = 0x1.210d6e479f462p+4;
      p_p50 = 0x1.17ca0059f174p+4;
      p_p99 = 0x1.def86e3d8622p+4;
      p_p999 = 0x1.3c6a51853054p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.9c469ee58469fp-1;
      p_ipis_sent = 6993;
      p_local_events = 723;
      p_stolen_events = 2989;
      p_remote_batches = 2972;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.ff04577d95571p+0;
      p_mean = 0x1.a8e7178db418ap+3;
      p_p50 = 0x1.49ad52a39d1p+3;
      p_p99 = 0x1.9d2b5dfdebc2p+5;
      p_p999 = 0x1.34a4f16f27c78p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.7483483483483p-2;
      p_ipis_sent = 3603;
      p_local_events = 2382;
      p_stolen_events = 1362;
      p_remote_batches = 1360;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.4fa74ed597be4p+2;
      p_mean = 0x1.811fead0100cbp+4;
      p_p50 = 0x1.529ff6342a1ap+4;
      p_p99 = 0x1.214b81b05d69cp+6;
      p_p999 = 0x1.93754c08faefp+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.8d20d20d20d21p-1;
      p_ipis_sent = 5815;
      p_local_events = 840;
      p_stolen_events = 2904;
      p_remote_batches = 2818;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.261442f4b8ebbp+2;
      p_mean = 0x1.06fe1cabcbbbap+4;
      p_p50 = 0x1.fa9a8d12c818p+3;
      p_p99 = 0x1.ca74222dd638p+4;
      p_p999 = 0x1.446b4391ef6b8p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.abdcb08d3dcb1p-1;
      p_ipis_sent = 8128;
      p_local_events = 610;
      p_stolen_events = 3102;
      p_remote_batches = 3092;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.3bb2fec56d5dp+2;
      p_mean = 0x1.241bfe1e32b1ep+4;
      p_p50 = 0x1.1739b68479fap+4;
      p_p99 = 0x1.07b366757053p+5;
      p_p999 = 0x1.4de4282f8e11p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.bcb08d3dcb08dp-1;
      p_ipis_sent = 7669;
      p_local_events = 488;
      p_stolen_events = 3224;
      p_remote_batches = 3183;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 16;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.ffd60e94ee393p-2;
      p_mean = 0x1.f7b5cb2ba62bdp+3;
      p_p50 = 0x1.818cb4a5929p+3;
      p_p99 = 0x1.e5b8963f1238p+5;
      p_p999 = 0x1.622afd5c3086p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.67ee7ee7ee7eep-4;
      p_ipis_sent = 0;
      p_local_events = 3415;
      p_stolen_events = 329;
      p_remote_batches = 326;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 16;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.4f6f6246d55fdp+0;
      p_mean = 0x1.154e171a4b767p+5;
      p_p50 = 0x1.e7f562efa238p+4;
      p_p99 = 0x1.b010defa387cp+6;
      p_p999 = 0x1.0d66f16bdae8p+7;
      p_completed = 3120;
      p_steal_fraction = 0x1.0cb7cb7cb7cb8p-1;
      p_ipis_sent = 0;
      p_local_events = 1779;
      p_stolen_events = 1965;
      p_remote_batches = 1920;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.245bdc107e441p+0;
      p_mean = 0x1.2108a1f817c84p+4;
      p_p50 = 0x1.15f51fd3eb6p+4;
      p_p99 = 0x1.21c264768a34p+5;
      p_p999 = 0x1.710a4ac7ac0cp+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.611a7b9611a7cp-2;
      p_ipis_sent = 0;
      p_local_events = 2432;
      p_stolen_events = 1280;
      p_remote_batches = 1271;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.3a5e353f7ced9p+0;
      p_mean = 0x1.43a3de0065ffdp+4;
      p_p50 = 0x1.31a44ed9963ap+4;
      p_p99 = 0x1.690eeff5e69cp+5;
      p_p999 = 0x1.b3be256af6bp+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.abdcb08d3dcb1p-2;
      p_ipis_sent = 0;
      p_local_events = 2161;
      p_stolen_events = 1551;
      p_remote_batches = 1535;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 33;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.08p+0;
      p_mean = 0x1.f9805e2069c86p+3;
      p_p50 = 0x1.8617c7ea943p+3;
      p_p99 = 0x1.dd3ae4d576bcp+5;
      p_p999 = 0x1.63565db2acfcp+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.992992992992ap-4;
      p_ipis_sent = 0;
      p_local_events = 3370;
      p_stolen_events = 374;
      p_remote_batches = 369;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 33;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.59b13165d3998p+1;
      p_mean = 0x1.fb55427b40d59p+4;
      p_p50 = 0x1.b4208ff09e2dp+4;
      p_p99 = 0x1.9e58026acadb8p+6;
      p_p999 = 0x1.08951d8a0474p+7;
      p_completed = 3120;
      p_steal_fraction = 0x1.071c71c71c71cp-1;
      p_ipis_sent = 0;
      p_local_events = 1820;
      p_stolen_events = 1924;
      p_remote_batches = 1867;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.2e94467381d7dp+1;
      p_mean = 0x1.27b4ee6c6e949p+4;
      p_p50 = 0x1.1dbbccc81edep+4;
      p_p99 = 0x1.25efc257c95dp+5;
      p_p999 = 0x1.62329f39f7ecp+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.76e58469ee584p-2;
      p_ipis_sent = 0;
      p_local_events = 2353;
      p_stolen_events = 1359;
      p_remote_batches = 1347;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.4467381d7dbf5p+1;
      p_mean = 0x1.40befe60166a9p+4;
      p_p50 = 0x1.32ba720c3831p+4;
      p_p99 = 0x1.4c2503c44b94p+5;
      p_p999 = 0x1.dd85cac7680ep+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.ab4f72c234f73p-2;
      p_ipis_sent = 0;
      p_local_events = 2163;
      p_stolen_events = 1549;
      p_remote_batches = 1530;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 64;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.fe86833c6002ap+0;
      p_mean = 0x1.046d19210190ep+4;
      p_p50 = 0x1.8ab871357398p+3;
      p_p99 = 0x1.fa19a19533f2p+5;
      p_p999 = 0x1.593ac4ba61ebp+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.869069069069p-4;
      p_ipis_sent = 0;
      p_local_events = 3387;
      p_stolen_events = 357;
      p_remote_batches = 354;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 64;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.4f1b7f70b1d23p+2;
      p_mean = 0x1.f558e3b5dded2p+4;
      p_p50 = 0x1.b7323550db3p+4;
      p_p99 = 0x1.89a5fb2568704p+6;
      p_p999 = 0x1.071acfdc232dap+7;
      p_completed = 3120;
      p_steal_fraction = 0x1.e4a64a64a64a6p-2;
      p_ipis_sent = 0;
      p_local_events = 1972;
      p_stolen_events = 1772;
      p_remote_batches = 1665;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.2599ed7c6fbd2p+2;
      p_mean = 0x1.2cbec9c193585p+4;
      p_p50 = 0x1.1dac3255cc54p+4;
      p_p99 = 0x1.448e5b9f5d7ap+5;
      p_p999 = 0x1.98a9946f5cf1p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.5c69ee58469eep-2;
      p_ipis_sent = 0;
      p_local_events = 2449;
      p_stolen_events = 1263;
      p_remote_batches = 1239;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.39db22d0e5604p+2;
      p_mean = 0x1.3f495e3bb07f3p+4;
      p_p50 = 0x1.2f1774ae6176p+4;
      p_p99 = 0x1.4fae3a2f91a38p+5;
      p_p999 = 0x1.a1bd569796a68p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.92c234f72c235p-2;
      p_ipis_sent = 0;
      p_local_events = 2252;
      p_stolen_events = 1460;
      p_remote_batches = 1416;
    };
  ]

let test_paper_scale_zygos () =
  List.iter
    (fun ((system, cores), fixed) ->
      let service =
        if fixed then Engine.Dist.deterministic 10. else Engine.Dist.exponential 10.
      in
      let cfg = Run.config ~cores ~conns:1024 ~requests:3_000 ~seed:11 ~system ~service () in
      let expected =
        List.filter
          (fun g -> g.p_system = system && g.p_cores = cores && g.p_fixed = fixed)
          paper_goldens
      in
      let points = Run.sweep cfg ~loads:(List.map (fun g -> g.p_load) expected) in
      List.iter2
        (fun g (p : Run.point) ->
          let ctx fmt =
            Printf.sprintf "%s cores=%d %s load=%g %s" (Run.system_name system) cores
              (if fixed then "fixed" else "exp")
              g.p_load fmt
          in
          let counter key =
            match Run.info_value p key with
            | Some v -> v
            | None -> Alcotest.failf "%s" (ctx ("missing " ^ key))
          in
          let count key = int_of_float (counter key) in
          Alcotest.check exact (ctx "throughput") g.p_throughput p.Run.throughput;
          Alcotest.check exact (ctx "mean") g.p_mean p.Run.mean;
          Alcotest.check exact (ctx "p50") g.p_p50 p.Run.p50;
          Alcotest.check exact (ctx "p99") g.p_p99 p.Run.p99;
          Alcotest.check exact (ctx "p999") g.p_p999 p.Run.p999;
          Alcotest.(check int) (ctx "completed") g.p_completed p.Run.completed;
          Alcotest.(check int) (ctx "order_violations") 0 p.Run.order_violations;
          Alcotest.check exact (ctx "steal_fraction") g.p_steal_fraction
            (counter "steal_fraction");
          Alcotest.(check int) (ctx "ipis_sent") g.p_ipis_sent (count "ipis_sent");
          Alcotest.(check int) (ctx "local_events") g.p_local_events (count "local_events");
          Alcotest.(check int) (ctx "stolen_events") g.p_stolen_events (count "stolen_events");
          Alcotest.(check int) (ctx "remote_batches") g.p_remote_batches
            (count "remote_batches");
          Alcotest.(check int) (ctx "ring_drops") 0 (count "ring_drops");
          Alcotest.(check int) (ctx "wc_violations") 0 (count "wc_violations"))
        expected points)
    (List.concat_map
       (fun system ->
         List.concat_map
           (fun cores -> [ ((system, cores), false); ((system, cores), true) ])
           [ 16; 33; 64 ])
       [ Run.Zygos; Run.Zygos_no_interrupts ])

let test_sweep_is_repeatable () =
  (* Two runs of the same config in one process must agree exactly (no
     hidden global state in the pooled engine). *)
  let service = Engine.Dist.exponential 10. in
  let cfg = Run.config ~cores:4 ~conns:32 ~requests:500 ~seed:3 ~system:Run.Zygos ~service () in
  let a = Run.run_point cfg ~load:0.6 in
  let b = Run.run_point cfg ~load:0.6 in
  Alcotest.check exact "throughput" a.Run.throughput b.Run.throughput;
  Alcotest.check exact "p99" a.Run.p99 b.Run.p99;
  Alcotest.(check int) "completed" a.Run.completed b.Run.completed

let () =
  Alcotest.run "determinism"
    [
      ( "fixed-seed sweep",
        [
          Alcotest.test_case "golden points across engine rewrite" `Quick
            test_fixed_seed_sweep;
          Alcotest.test_case "same-process repeatability" `Quick test_sweep_is_repeatable;
          Alcotest.test_case "paper-scale zygos points (16/33/64 cores)" `Quick
            test_paper_scale_zygos;
        ] );
    ]
