(* A fixed reference workload, independent of the repository's code, that
   gauges how fast the host runs right now. The simulator's host time
   swings by a third or more as other load on a shared machine comes and
   goes, for tens of seconds at a time; timing this loop next to every
   point lets the benchmark report host time at one reference speed.

   The mix resembles the simulator's: a binary min-heap of 4096 pending
   keys (branchy queue work, like the event queue) and a dependent walk
   over a 2 MiB table (scattered loads, like per-connection state). Any
   edit to this loop rescales every host time the benchmark reports, so
   figures from before and after it cannot be compared. *)

let heap_size = 4096

let table_words = 1 lsl 18

(* Both arrays live outside the OCaml heap, so the loop neither counts in
   the peak heap nor shifts the collector's pacing. *)
let table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let t = Bigarray.(Array1.create int c_layout table_words) in
  for i = 0 to table_words - 1 do
    t.{i} <- (i * 40503) land (table_words - 1)
  done;
  t

let heap : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  Bigarray.(Array1.create int c_layout heap_size)

let sift_down n =
  let x = heap.{0} in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let c = if l + 1 < n && heap.{l + 1} < heap.{l} then l + 1 else l in
      if heap.{c} < x then begin
        heap.{!i} <- heap.{c};
        i := c
      end
      else continue := false
    end
  done;
  heap.{!i} <- x

(* Replace the minimum with a key [delta] above it: a pop and a push. *)
let[@inline never] step seed delta =
  heap.{0} <- heap.{0} + delta;
  sift_down heap_size;
  table.{seed land (table_words - 1)}

(* Host ns per operation over [ops] operations, from the same start
   state every call. *)
let ns_per_op ~ops =
  for i = 0 to heap_size - 1 do
    heap.{i} <- i
  done;
  let x = ref 1 in
  let t0 = Spans.now_ns () in
  for _ = 1 to ops do
    let next = step !x ((!x land 1023) + 1) in
    x := (next * 1103515245) + 12345
  done;
  let ns = Spans.now_ns () - t0 in
  ignore (Sys.opaque_identity !x);
  float_of_int ns /. float_of_int ops
