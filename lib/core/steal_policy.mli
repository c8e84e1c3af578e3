(** Idle-loop polling policy (§5, "Idle loop polling logic").

    A ZygOS core that finds nothing to do polls, in priority order:
    (a) the head of its own NIC hardware descriptor ring,
    (b) the shuffle queues of all other cores,
    (c) the unprocessed software packet queues of all other cores,
    (d) the NIC hardware descriptor rings of all other cores;
    for steps (b)–(d) the order in which the other cores are visited is
    randomized to avoid herding of thieves onto one victim.

    This module produces that order one victim at a time: a {e walk} asks
    for victim [0], then [1], and so on, and stops as soon as it has found
    what it polls for, so it draws randomness only as far as it goes. It
    also provides the deterministic round-robin order used by the
    `ablate-poll` ablation. *)

type t

val create : rng:Engine.Rng.t -> cores:int -> self:int -> t
(** Policy state for one core. Raises [Invalid_argument] when [self] is out
    of range or [cores < 1]. *)

val victims : t -> int
(** Number of victims, [cores - 1]: the length of a full walk. *)

val random_victim : t -> int -> int
(** [random_victim t k] is step [k] of a random walk, for
    [0 <= k < victims t]: a forward Fisher–Yates step that swaps slot [k]
    of the victim array with a uniform draw from [[k, victims t)] and
    returns the victim now in slot [k]. Steps [0, 1, ..., k] of one walk
    are a uniformly random sequence of distinct cores other than [self];
    a new walk starts again at step [0]. Each step consumes exactly one
    [Engine.Rng.int] draw. Raises [Invalid_argument] when [k] is out of
    range. *)

val rr_victim : t -> int -> int
(** [rr_victim t k] is step [k] of the deterministic order
    [self+1, self+2, ..., self-1 (mod cores)] — the naive policy the
    ablation benchmark compares against. Draws nothing. Raises
    [Invalid_argument] when [k] is out of range. *)
