type t = {
  cores : int;
  ring_capacity : int;
  rpc_packets : int;
  linux_epoll : float;
  linux_syscall : float;
  linux_netstack : float;
  linux_wakeup : float;
  linux_lock : float;
  dp_rx : float;
  dp_tx : float;
  dp_loop : float;
  ix_batch : int;
  zy_rx_batch : int;
  zy_shuffle : float;
  zy_steal : float;
  zy_remote_syscall : float;
  zy_ipi_latency : float;
  zy_ipi_handler : float;
  zy_poll_delay : float;
  zy_interrupts : bool;
  zy_poll_random : bool;
  stragglers : Core.Corefault.spec list;
}

let validate t =
  let bad msg = invalid_arg (Printf.sprintf "Params: %s" msg) in
  let overhead name x =
    if Float.is_nan x || x < 0. || x = infinity then
      bad (Printf.sprintf "%s must be a finite non-negative time, got %g" name x)
  in
  if t.cores < 1 then bad "cores < 1";
  (* ZygOS packs a core id into the low 16 bits of its IPI-rx events *)
  if t.cores > 0xffff then bad (Printf.sprintf "cores = %d > 65535" t.cores);
  if t.ring_capacity < 1 then bad "ring_capacity < 1";
  if t.rpc_packets < 1 then bad "rpc_packets < 1";
  if t.ix_batch < 1 then bad "ix_batch < 1";
  if t.zy_rx_batch < 1 then bad "zy_rx_batch < 1";
  overhead "linux_epoll" t.linux_epoll;
  overhead "linux_syscall" t.linux_syscall;
  overhead "linux_netstack" t.linux_netstack;
  overhead "linux_wakeup" t.linux_wakeup;
  overhead "linux_lock" t.linux_lock;
  overhead "dp_rx" t.dp_rx;
  overhead "dp_tx" t.dp_tx;
  overhead "dp_loop" t.dp_loop;
  overhead "zy_shuffle" t.zy_shuffle;
  overhead "zy_steal" t.zy_steal;
  overhead "zy_remote_syscall" t.zy_remote_syscall;
  overhead "zy_ipi_latency" t.zy_ipi_latency;
  overhead "zy_ipi_handler" t.zy_ipi_handler;
  overhead "zy_poll_delay" t.zy_poll_delay;
  List.iter Core.Corefault.validate_spec t.stragglers;
  List.iter
    (fun (s : Core.Corefault.spec) ->
      if s.core >= t.cores then
        bad (Printf.sprintf "straggler core %d out of range (cores = %d)" s.core t.cores))
    t.stragglers;
  t

let default ?(cores = 16) () =
  validate
    {
      cores;
      ring_capacity = 4096;
      rpc_packets = 1;
      (* Linux: ~10 µs/request in total, dominated by two syscalls, the
         kernel TCP/IP stack both ways and an epoll_wait per event —
         calibrated against the Linux saturation points of Fig. 6 (about
         half of IX's throughput for 10µs tasks). *)
      linux_epoll = 2.0;
      linux_syscall = 1.6;
      linux_netstack = 1.9;
      linux_wakeup = 1.5;
      linux_lock = 0.5;
      (* Dataplane: ~1.1 µs/request (IX reaches 90% efficiency at 25µs tasks
         in Fig. 3, implying roughly this overhead). *)
      dp_rx = 0.45;
      dp_tx = 0.40;
      dp_loop = 0.25;
      ix_batch = 1;
      (* ZygOS adds buffering/synchronization (§1: "measurable for extremely
         small tasks"): ~0.3µs over IX on the local path, more when
         stealing. *)
      zy_rx_batch = 64;
      zy_shuffle = 0.15;
      zy_steal = 0.35;
      zy_remote_syscall = 0.25;
      zy_ipi_latency = 0.9;
      zy_ipi_handler = 0.5;
      zy_poll_delay = 0.2;
      zy_interrupts = true;
      zy_poll_random = true;
      stragglers = [];
    }

let no_interrupts t = { t with zy_interrupts = false }

let with_ix_batch t b =
  if b < 1 then invalid_arg "Params.with_ix_batch: b < 1";
  { t with ix_batch = b }

let with_rpc_packets t n =
  if n < 1 then invalid_arg "Params.with_rpc_packets: n < 1";
  { t with rpc_packets = n }

let with_stragglers t specs = validate { t with stragglers = specs }

let corefaults t = Core.Corefault.create t.stragglers
