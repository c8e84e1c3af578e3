type t = {
  rng : Engine.Rng.t;
  self : int;
  cores : int;
  others : int array;  (* all cores but self; permuted in place by walks *)
}

let create ~rng ~cores ~self =
  if cores < 1 then invalid_arg "Steal_policy.create: cores < 1";
  if self < 0 || self >= cores then invalid_arg "Steal_policy.create: self out of range";
  let others = Array.init (cores - 1) (fun i -> if i < self then i else i + 1) in
  { rng; self; cores; others }

let[@zygos.hot] victims t = Array.length t.others

(* One forward Fisher–Yates step: slots [0, k) hold the walk so far, so a
   uniform pick from [k, n) is a uniform pick among the victims not yet
   visited, whatever order earlier walks left the array in. *)
let[@zygos.hot] random_victim t k =
  let a = t.others in
  let n = Array.length a in
  if k < 0 || k >= n then invalid_arg "Steal_policy.random_victim: step out of range";
  let j = k + Engine.Rng.int t.rng (n - k) in
  let v = Array.unsafe_get a j in
  Array.unsafe_set a j (Array.unsafe_get a k);
  Array.unsafe_set a k v;
  v

let[@zygos.hot] rr_victim t k =
  if k < 0 || k >= Array.length t.others then
    invalid_arg "Steal_policy.rr_victim: step out of range";
  let v = t.self + 1 + k in
  if v >= t.cores then v - t.cores else v
