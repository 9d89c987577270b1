(** Two-way traffic accounting for a pair of protocol parties.

    The pairwise crypto primitives ({!Ot}, {!Ot_ext}, {!Garble}) charge
    every wire byte they would send to one of these: [a] is the protocol
    sender/garbler, [b] the receiver/evaluator. Callers create one
    short-lived [Xfer.t] per exchange and fold it into phase-attributed
    accounting (a {!Dstress_mpc.Traffic} matrix) — there is deliberately
    no [reset]: in-place resetting is what loses attribution. *)

type t

val create : unit -> t

val add_a_to_b : t -> int -> unit
(** Charge bytes on the a→b direction (sender/garbler to receiver). *)

val add_b_to_a : t -> int -> unit

val a_to_b : t -> int
val b_to_a : t -> int

val total : t -> int
(** [a_to_b + b_to_a]. *)
