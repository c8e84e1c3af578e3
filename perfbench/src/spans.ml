(* In-memory span log for the traced run. Spans are kept in flat int
   arrays (no record per span) so tracing adds a bounded, allocation-light
   cost per wrapped call; per-kind call counts, total and self time are
   folded in when a span closes, because by then all its children have
   closed. *)

type kind = Run | Submit | Complete | Tor_submit | Tor_respond

let kinds = [ Run; Submit; Complete; Tor_submit; Tor_respond ]

let index = function
  | Run -> 0
  | Submit -> 1
  | Complete -> 2
  | Tor_submit -> 3
  | Tor_respond -> 4

let name = function
  | Run -> "sim.run"
  | Submit -> "iface.submit"
  | Complete -> "loadgen.complete"
  | Tor_submit -> "rack.submit"
  | Tor_respond -> "rack.respond"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable kind : int array;
  mutable req : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable child : int array;  (* time covered by direct children *)
  mutable top : int;  (* innermost open span, -1 when none *)
  calls : int array;
  total : int array;
  self : int array;
}

let nkinds = List.length kinds

let create () =
  let cap = 1024 in
  {
    n = 0;
    kind = Array.make cap 0;
    req = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    child = Array.make cap 0;
    top = -1;
    calls = Array.make nkinds 0;
    total = Array.make nkinds 0;
    self = Array.make nkinds 0;
  }

let grow t =
  let cap = 2 * Array.length t.kind in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kind <- g t.kind;
  t.req <- g t.req;
  t.parent <- g t.parent;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.child <- g t.child

let enter t k ~req =
  if t.n = Array.length t.kind then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.kind.(i) <- index k;
  t.req.(i) <- req;
  t.parent.(i) <- t.top;
  t.child.(i) <- 0;
  t.top <- i;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  let stop = now_ns () in
  t.stop.(i) <- stop;
  let d = stop - t.start.(i) in
  let p = t.parent.(i) in
  t.top <- p;
  if p >= 0 then t.child.(p) <- t.child.(p) + d;
  let k = t.kind.(i) in
  t.calls.(k) <- t.calls.(k) + 1;
  t.total.(k) <- t.total.(k) + d;
  t.self.(k) <- t.self.(k) + d - t.child.(i)

let calls t k = t.calls.(index k)

let total_ns t k = t.total.(index k)

let self_ns t k = t.self.(index k)

let csv_header = "point,span,kind,req,parent,start_ns,stop_ns\n"

(* One CSV row per span: the point it belongs to, span id, kind, request
   id (-1 for Sim.run), parent span (-1 for roots), monotonic start and
   stop in ns. *)
let write oc ~point t =
  let names = Array.of_list (List.map name kinds) in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s,%d,%s,%d,%d,%d,%d\n" point i names.(t.kind.(i)) t.req.(i)
      t.parent.(i) t.start.(i) t.stop.(i)
  done
