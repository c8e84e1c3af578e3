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
   service=exponential(10µs), loads [0.3; 0.7]. The ZygOS points were
   re-captured when the idle loop's steal walk started drawing victims
   one at a time instead of a full permutation per poll: same
   distribution, different RNG realization (the distribution is checked
   in test_zygos_model.ml). *)
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
      g_mean = 0x1.a0411c7f61bedp+3;
      g_p50 = 0x1.33b4343db5p+3;
      g_p99 = 0x1.a6fb60fe44ap+5;
      g_p999 = 0x1.63ef50baa9ap+6;
      g_completed = 1999;
      g_order_violations = 0;
    };
    {
      g_system = Run.Zygos;
      g_load = 0x1.6666666666666p-1;
      g_throughput = 0x1.1f94855da2728p-2;
      g_mean = 0x1.96d8d1a1b9cddp+4;
      g_p50 = 0x1.303771ccc8dp+4;
      g_p99 = 0x1.be37c2b0579p+6;
      g_p999 = 0x1.107247b17848p+7;
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

(* Paper-scale ZygOS goldens: the idle loop's victim walks run over up
   to cores-1 = 15, 32 and 63 victims here (the 4-core points above only
   ever walk 3), and 33 and 64 cores straddle and fill 32-bit words
   of any per-core bitmap. The fixed-service points put many events at
   equal times, where the order of same-instant IPIs shows in the
   results. Captured with: conns=1024, requests=3000, seed=11, service
   exponential(10µs) at loads [0.3; 0.8] and fixed(10µs) at
   [0.7; 0.75], and re-captured with the one-victim-at-a-time steal
   walk like the ZygOS points above. *)
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
      p_mean = 0x1.9d76e0792bb18p+3;
      p_p50 = 0x1.3f17874a559p+3;
      p_p99 = 0x1.97fc3a8c83bcp+5;
      p_p999 = 0x1.201934d4cc6p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.55e15e15e15e1p-2;
      p_ipis_sent = 2818;
      p_local_events = 2494;
      p_stolen_events = 1250;
      p_remote_batches = 1249;
    };
    {
      p_system = Run.Zygos;
      p_cores = 16;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.4fa74ed597be4p+0;
      p_mean = 0x1.c6e93157402bcp+4;
      p_p50 = 0x1.923c3f80c7bcp+4;
      p_p99 = 0x1.54d7509fc14b8p+6;
      p_p999 = 0x1.c4d1218ab7fp+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.671c71c71c71cp-1;
      p_ipis_sent = 4199;
      p_local_events = 1118;
      p_stolen_events = 2626;
      p_remote_batches = 2595;
    };
    {
      p_system = Run.Zygos;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.2474538ef34d6p+0;
      p_mean = 0x1.0d8821c7a230dp+4;
      p_p50 = 0x1.054cc82ff8f8p+4;
      p_p99 = 0x1.c13c964bc36p+4;
      p_p999 = 0x1.1860a167527ap+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.8069ee58469eep-1;
      p_ipis_sent = 6481;
      p_local_events = 925;
      p_stolen_events = 2787;
      p_remote_batches = 2780;
    };
    {
      p_system = Run.Zygos;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.39db22d0e5604p+0;
      p_mean = 0x1.34274c38c0f24p+4;
      p_p50 = 0x1.22f993797dbcp+4;
      p_p99 = 0x1.10f8804f92d4p+5;
      p_p999 = 0x1.5895f0336111p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.78d3dcb08d3ddp-1;
      p_ipis_sent = 5809;
      p_local_events = 980;
      p_stolen_events = 2732;
      p_remote_batches = 2723;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.07bf1e8e60807p+0;
      p_mean = 0x1.a4718aac6fea5p+3;
      p_p50 = 0x1.42d462b58bep+3;
      p_p99 = 0x1.86e7a51c5bfep+5;
      p_p999 = 0x1.16a4f16f27c8p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.73b13b13b13b1p-2;
      p_ipis_sent = 3383;
      p_local_events = 2385;
      p_stolen_events = 1359;
      p_remote_batches = 1356;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.59945b6c3760dp+1;
      p_mean = 0x1.9e7a6f61f5d26p+4;
      p_p50 = 0x1.6d2f53db31b8p+4;
      p_p99 = 0x1.2933dce3d63bp+6;
      p_p999 = 0x1.7f04ac621c54p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.8578578578578p-1;
      p_ipis_sent = 4865;
      p_local_events = 896;
      p_stolen_events = 2848;
      p_remote_batches = 2794;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.2ead81adea897p+1;
      p_mean = 0x1.066c0198bac7dp+4;
      p_p50 = 0x1.fe5d46a3be38p+3;
      p_p99 = 0x1.bfea70f40b3p+4;
      p_p999 = 0x1.2b26726d87a5p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.9c69ee58469eep-1;
      p_ipis_sent = 7502;
      p_local_events = 722;
      p_stolen_events = 2990;
      p_remote_batches = 2981;
    };
    {
      p_system = Run.Zygos;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.443126e978d5p+1;
      p_mean = 0x1.26f57a0058875p+4;
      p_p50 = 0x1.1b84b0e09bbp+4;
      p_p99 = 0x1.f8c86ad2d64cp+4;
      p_p999 = 0x1.4c28148c6166p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.a234f72c234f7p-1;
      p_ipis_sent = 7108;
      p_local_events = 680;
      p_stolen_events = 3032;
      p_remote_batches = 3016;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.feda661283904p+0;
      p_mean = 0x1.ab2346409694p+3;
      p_p50 = 0x1.4946841f98dp+3;
      p_p99 = 0x1.9b91c4645228p+5;
      p_p999 = 0x1.31fb4ddd36c7p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.7a87a87a87a88p-2;
      p_ipis_sent = 3711;
      p_local_events = 2360;
      p_stolen_events = 1384;
      p_remote_batches = 1382;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = false;
      p_load = 0x1.999999999999ap-1;
      p_throughput = 0x1.4fdf3b645a1cbp+2;
      p_mean = 0x1.830b36a921042p+4;
      p_p50 = 0x1.57d0fac8e6ecp+4;
      p_p99 = 0x1.14bd6ae4a218cp+6;
      p_p999 = 0x1.86f8c08265e34p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.90d20d20d20d2p-1;
      p_ipis_sent = 5756;
      p_local_events = 813;
      p_stolen_events = 2931;
      p_remote_batches = 2856;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.25fbcb7643e26p+2;
      p_mean = 0x1.070a0217b2b93p+4;
      p_p50 = 0x1.fa095e54a3a2p+3;
      p_p99 = 0x1.d0b6a8f3487cp+4;
      p_p999 = 0x1.5c445edf67fd8p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.ab9611a7b9612p-1;
      p_ipis_sent = 8099;
      p_local_events = 612;
      p_stolen_events = 3100;
      p_remote_batches = 3086;
    };
    {
      p_system = Run.Zygos;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.3c36113404ea5p+2;
      p_mean = 0x1.2279b85fa112p+4;
      p_p50 = 0x1.16498b9f8aa6p+4;
      p_p99 = 0x1.07a38401fc89p+5;
      p_p999 = 0x1.6535db7ea547p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.b469ee58469eep-1;
      p_ipis_sent = 7690;
      p_local_events = 548;
      p_stolen_events = 3164;
      p_remote_batches = 3130;
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
      p_throughput = 0x1.4ec79c9a8e449p+0;
      p_mean = 0x1.18c3acba50158p+5;
      p_p50 = 0x1.e4a6fab86932p+4;
      p_p99 = 0x1.cd0cc15e3726p+6;
      p_p999 = 0x1.0c46f7fe8944p+7;
      p_completed = 3120;
      p_steal_fraction = 0x1.08e38e38e38e4p-1;
      p_ipis_sent = 0;
      p_local_events = 1807;
      p_stolen_events = 1937;
      p_remote_batches = 1892;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.2474538ef34d6p+0;
      p_mean = 0x1.21a513f9cf41bp+4;
      p_p50 = 0x1.1563fc4bd4cp+4;
      p_p99 = 0x1.235e026bbe46p+5;
      p_p999 = 0x1.57d447cfebd8p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.688d3dcb08d3ep-2;
      p_ipis_sent = 0;
      p_local_events = 2405;
      p_stolen_events = 1307;
      p_remote_batches = 1299;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 16;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.3972474538ef3p+0;
      p_mean = 0x1.3cab3ad521694p+4;
      p_p50 = 0x1.2c7c743762d8p+4;
      p_p99 = 0x1.620cfe3e01ep+5;
      p_p999 = 0x1.b7eb41cf3644p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.9d8469ee5846ap-2;
      p_ipis_sent = 0;
      p_local_events = 2213;
      p_stolen_events = 1499;
      p_remote_batches = 1485;
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
      p_throughput = 0x1.59ce075f6fd23p+1;
      p_mean = 0x1.f5c5760072acdp+4;
      p_p50 = 0x1.bccfff4151cep+4;
      p_p99 = 0x1.7175d46b199bp+6;
      p_p999 = 0x1.cc8fe1810134p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.0578578578578p-1;
      p_ipis_sent = 0;
      p_local_events = 1832;
      p_stolen_events = 1912;
      p_remote_batches = 1841;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.2ec6bce8533b1p+1;
      p_mean = 0x1.26a74dfb09badp+4;
      p_p50 = 0x1.1af120719ebp+4;
      p_p99 = 0x1.230d011d99d4p+5;
      p_p999 = 0x1.6f01668bab32p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.78d3dcb08d3ddp-2;
      p_ipis_sent = 0;
      p_local_events = 2346;
      p_stolen_events = 1366;
      p_remote_batches = 1347;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 33;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.43e00d1b71759p+1;
      p_mean = 0x1.3c004923864b5p+4;
      p_p50 = 0x1.2def95b2972cp+4;
      p_p99 = 0x1.43c34753fccep+5;
      p_p999 = 0x1.902f59ea7b1fp+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.aa7b9611a7b96p-2;
      p_ipis_sent = 0;
      p_local_events = 2166;
      p_stolen_events = 1546;
      p_remote_batches = 1530;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 64;
      p_fixed = false;
      p_load = 0x1.3333333333333p-2;
      p_throughput = 0x1.fe86833c6002ap+0;
      p_mean = 0x1.046dfd8c8fbc6p+4;
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
      p_throughput = 0x1.501727f31c7b2p+2;
      p_mean = 0x1.e362b9373668cp+4;
      p_p50 = 0x1.a45a1e03d79ep+4;
      p_p99 = 0x1.6728cc860513cp+6;
      p_p999 = 0x1.cadb57b7a852p+6;
      p_completed = 3120;
      p_steal_fraction = 0x1.d66d66d66d66dp-2;
      p_ipis_sent = 0;
      p_local_events = 2024;
      p_stolen_events = 1720;
      p_remote_batches = 1617;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.6666666666666p-1;
      p_throughput = 0x1.25b264fae4c67p+2;
      p_mean = 0x1.3146569d70819p+4;
      p_p50 = 0x1.227f46dc2e4p+4;
      p_p99 = 0x1.4e519f87b2c08p+5;
      p_p999 = 0x1.c8b872eff341p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.5f2c234f72c23p-2;
      p_ipis_sent = 0;
      p_local_events = 2439;
      p_stolen_events = 1273;
      p_remote_batches = 1242;
    };
    {
      p_system = Run.Zygos_no_interrupts;
      p_cores = 64;
      p_fixed = true;
      p_load = 0x1.8p-1;
      p_throughput = 0x1.39db22d0e5604p+2;
      p_mean = 0x1.41dde6954eb17p+4;
      p_p50 = 0x1.2d5befa7e0cap+4;
      p_p99 = 0x1.5a7be0cc884p+5;
      p_p999 = 0x1.aba36506fe4p+5;
      p_completed = 3059;
      p_steal_fraction = 0x1.90469ee58469fp-2;
      p_ipis_sent = 0;
      p_local_events = 2261;
      p_stolen_events = 1451;
      p_remote_batches = 1404;
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
