(** Deterministic pseudo-random generator built on SHA-256 in counter mode.

    Each simulated protocol party derives its key material and protocol
    randomness from a [Prg.t] seeded from its identity and the run seed,
    which keeps whole protocol executions replayable. *)

type t

val create : bytes -> t
(** [create seed] keys the generator. Any seed length is accepted. *)

val of_string : string -> t

val bytes : t -> int -> bytes
(** [bytes t n] produces [n] pseudo-random bytes. *)

val skip : t -> int -> unit
(** [skip t n] advances the stream past [n] bytes without producing them:
    every later draw equals the one that would follow [bytes t n]. It
    costs at most one block computation whatever [n] is. Raises
    [Invalid_argument] if [n < 0]. *)

val prefetch : t -> int -> unit
(** [prefetch t n] computes the stream's next [n] bytes now and buffers
    them, so the draws that consume them hash nothing. It changes no
    draw: every later [bytes], [bits], [bool], [skip] and [nat_below]
    returns what it would have without it. The GMW offline phase
    ([Gmw.preprocess] in the MPC layer) calls it with the mask bytes a
    session's evaluations will draw. Raises [Invalid_argument] if
    [n < 0]. *)

val bits : t -> int -> Dstress_util.Bitvec.t
(** [bits t n] produces [n] pseudo-random bits. *)

val bool : t -> bool

val seed64 : string -> int64
(** [seed64 s] is the first 8 bytes (little-endian) of [SHA-256(s)] — a
    collision-resistant way to key a {!Dstress_util.Prng} from a string.
    Unlike [Hashtbl.hash] (which folds to ~30 bits and collides easily),
    distinct labels give independent 64-bit seeds. *)

val nat_below : t -> Dstress_bignum.Nat.t -> Dstress_bignum.Nat.t
(** Uniform natural below a positive bound, by rejection sampling. *)
