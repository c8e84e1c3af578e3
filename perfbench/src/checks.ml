(* Output checks. A simulated point is compared bit for bit (floats by
   their IEEE bits), and each failed check is reported as a message; a
   point with any message counts as failed. *)

module Run = Experiments.Run

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rec same_info a b =
  match (a, b) with
  | [], [] -> true
  | (ka, va) :: ra, (kb, vb) :: rb -> String.equal ka kb && same_float va vb && same_info ra rb
  | _ -> false

(* Mismatches between the library's point and the traced composition's. *)
let compare_points ~(expected : Run.point) ~(actual : Run.point) =
  let f name a b = if same_float a b then [] else [ Printf.sprintf "%s: %h <> %h" name a b ] in
  let i name a b = if a = b then [] else [ Printf.sprintf "%s: %d <> %d" name a b ] in
  List.concat
    [
      f "p50" expected.Run.p50 actual.Run.p50;
      f "p99" expected.Run.p99 actual.Run.p99;
      f "p999" expected.Run.p999 actual.Run.p999;
      f "mean" expected.Run.mean actual.Run.mean;
      f "throughput" expected.Run.throughput actual.Run.throughput;
      f "goodput" expected.Run.goodput actual.Run.goodput;
      i "completed" expected.Run.completed actual.Run.completed;
      i "order_violations" expected.Run.order_violations actual.Run.order_violations;
      (if same_info expected.Run.info actual.Run.info then [] else [ "info counters differ" ]);
    ]

let info p key = Option.value ~default:0. (Run.info_value p key)

(* Invariants of one point: on a fault-free point nothing is reordered
   or dropped. *)
let point_invariants ~fault_free (p : Run.point) =
  let fail cond msg = if cond then [ msg ] else [] in
  List.concat
    [
      fail (fault_free && p.Run.order_violations <> 0)
        (Printf.sprintf "order_violations = %d" p.Run.order_violations);
      fail
        (fault_free && info p "ring_drops" <> 0.)
        (Printf.sprintf "ring_drops = %g" (info p "ring_drops"));
      fail (p.Run.completed = 0) "no request completed";
    ]

(* Conservation, from the counters only a rebuilt point exposes: on a
   fault-free point every measured request completes exactly once; with
   failover and retries it completes at most once. ZygOS never leaves a
   ready shuffle queue unserved. *)
let conservation ~fault_free (p : Run.point) ~measured_generated ~wc_violations =
  let fail cond msg = if cond then [ msg ] else [] in
  List.concat
    [
      fail (wc_violations <> 0) (Printf.sprintf "work_conservation_violations = %d" wc_violations);
      fail
        (fault_free && p.Run.completed <> measured_generated)
        (Printf.sprintf "completed %d of %d measured requests" p.Run.completed measured_generated);
      fail
        (p.Run.completed > measured_generated)
        (Printf.sprintf "completed %d > %d measured requests" p.Run.completed measured_generated);
    ]

(* A canonical rendering of every simulated output of a point; floats in
   hex so the digest sees every bit. *)
let render (p : Run.point) =
  let b = Buffer.create 512 in
  Printf.bprintf b "%h %h %h %h %h %h %h %h %d %d" p.Run.load p.Run.offered_rate p.Run.throughput
    p.Run.goodput p.Run.mean p.Run.p50 p.Run.p99 p.Run.p999 p.Run.completed
    p.Run.order_violations;
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%h" k v) p.Run.info;
  Buffer.contents b

let digest points = Digest.to_hex (Digest.string (String.concat "\n" (List.map render points)))
