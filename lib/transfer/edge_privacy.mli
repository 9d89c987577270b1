(** Edge-privacy accounting for the transfer protocol (Appendix B).

    Every bit-sum a recipient decrypts is treated as one query
    [Q_(i,j)(G)] against the graph, released through the geometric
    mechanism. This module reproduces the paper's book-keeping: the query
    sensitivity, the per-transfer epsilon, the total number of transfers,
    the decryption-failure constraint that bounds how much noise can be
    added, and the resulting per-iteration and yearly budget spend. *)

type config = {
  years : int;  (** Y: deployment lifetime *)
  runs_per_year : int;  (** R *)
  iterations : int;  (** I: rounds per run *)
  nodes : int;  (** N *)
  degree_bound : int;  (** D *)
  bits : int;  (** L: message width *)
  k : int;  (** collusion bound; block size k+1 *)
}

val paper_example : config
(** The concrete instantiation of Appendix B: Y=10, R=3, I=11, N=1750,
    D=100, L=16, k=19. *)

val sensitivity : config -> int
(** Delta = k + 1: a bit-sum over one block moves by at most the block
    size when an edge changes. *)

val total_transfers : config -> float
(** N_q = Y * R * I * N * D * L * (k+1)^2. *)

val max_alpha : config -> table_entries:float -> float
(** Largest noise parameter such that the system fails to decrypt at most
    once in [total_transfers] transfers (inequality (1)). *)

val per_transfer_epsilon : alpha:float -> float
(** eps = -ln alpha per revealed sum. *)

val retry_epsilon : alpha:float -> k:int -> bits:int -> retries:int -> float
(** Budget cost of re-running a transfer [retries] times after decryption
    failures: every retry re-releases the [k * bits] noised sums that a
    coalition of [k] corrupted receiving members observes, so each one is
    charged [k * bits * per_transfer_epsilon] on top of the baseline
    accounting. Raises [Invalid_argument] if [retries < 0], [k < 1] or
    [bits < 1]. *)

val per_iteration_epsilon : config -> alpha:float -> float
(** k * (k+1) * L * eps: an adversary controlling k members of the
    receiving block observes that many sums per iteration per edge. *)

val yearly_epsilon : config -> alpha:float -> float
(** R * I iterations per year. *)

type report = {
  cfg : config;
  delta : int;
  n_q : float;
  n_l : float;
  alpha : float;
  eps_per_transfer : float;
  eps_per_iteration : float;
  eps_per_year : float;
}

val analyze : config -> report
(** End-to-end Appendix-B computation with 8 GiB of lookup RAM and
    384-bit ciphertexts, as in the paper's concrete example. *)

val pp_report : Format.formatter -> report -> unit
