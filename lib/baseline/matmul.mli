(** The naïve baseline of §5.5: running the whole systemic-risk
    computation as one monolithic MPC.

    The closed form of an Eisenberg–Noe-style contagion model essentially
    raises an N x N matrix to the I-th power, so the paper benchmarks a
    single N x N matrix multiplication circuit in Wysteria for growing N,
    observes the O(N^3) blow-up (1.8 min at N = 10, 40 min at N = 25, out
    of memory beyond), and extrapolates to 287 years for the full U.S.
    banking system. This module reproduces that experiment against our
    GMW engine. *)

val circuit : n:int -> bits:int -> Dstress_circuit.Circuit.t
(** Product of two [n x n] matrices of [bits]-bit entries (entries wrap
    modulo [2^bits]). Inputs: [2 n^2 bits] values, row-major, A before B;
    outputs: [n^2] entries. *)

val and_gates : n:int -> bits:int -> int
(** AND-gate count of {!circuit} (cubic in [n]). *)

type measurement = {
  n : int;
  seconds : float;
  and_count : int;
  total_bytes : int;
}

val measure :
  Dstress_crypto.Group.t -> parties:int -> n:int -> bits:int -> seed:string -> measurement
(** Evaluate one matrix product under Crypto-mode GMW on random shared
    inputs and time it. Correctness of the result against plaintext
    evaluation is asserted. *)

val fit_cubic : measurement list -> float
(** Least-squares coefficient [c] of [seconds = c * n^3]. *)

val extrapolate_seconds : c:float -> n:int -> powers:int -> float
(** Estimated wall-clock for raising an [n x n] matrix to the
    [powers+1]-th power: [powers] successive multiplications. *)

val years : float -> float
