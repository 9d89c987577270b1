(** Differential-privacy release mechanisms.

    Two samplers back the system:
    - the continuous {!laplace} mechanism of Dwork et al. (TCC'06), used in
      the §4.5 utility analysis and as the reference distribution;
    - the discrete two-sided {!geometric} mechanism of Ghosh, Roughgarden &
      Sundararajan (SICOMP'12), used on the wire: the transfer protocol
      adds [2 * Geo(alpha^(2/(k+1)))] to every forwarded bit-sum (§3.5
      final protocol), and the aggregation block adds discrete noise inside
      MPC (our substitution for the paper's Laplace circuit — a two-sided
      geometric with [alpha = exp(-eps/s)] gives the same [eps]-DP
      guarantee for integer queries of sensitivity [s]).

    All samplers draw from an explicit {!Dstress_util.Prng.t}, keeping runs
    reproducible. *)

val laplace : Dstress_util.Prng.t -> scale:float -> float
(** Sample from Laplace(0, scale). Raises [Invalid_argument] if
    [scale <= 0]. *)

val laplace_mechanism :
  Dstress_util.Prng.t -> sensitivity:float -> epsilon:float -> float -> float
(** [laplace_mechanism prng ~sensitivity ~epsilon v] is
    [v + Laplace(sensitivity / epsilon)]. *)

val geometric_one_sided : Dstress_util.Prng.t -> alpha:float -> int
(** Number of failures before the first success of a Bernoulli(1 - alpha)
    process: [P(X = k) = (1 - alpha) alpha^k]. Requires
    [0 < alpha < 1]. *)

val geometric_two_sided : Dstress_util.Prng.t -> alpha:float -> int
(** Two-sided geometric: [P(Y = d) = (1-alpha)/(1+alpha) * alpha^|d|],
    sampled as the difference of two one-sided draws. *)

val geometric_mechanism :
  Dstress_util.Prng.t -> sensitivity:int -> epsilon:float -> int -> int
(** [geometric_mechanism prng ~sensitivity ~epsilon v] adds two-sided
    geometric noise with [alpha = exp (-. epsilon /. sensitivity)] —
    [eps]-DP for integer queries with the given sensitivity. *)

val transfer_noise : Dstress_util.Prng.t -> alpha:float -> delta:int -> int
(** The §3.5 wire noise: an *even* random value [2 * Y] with
    [Y ~ Geo_two_sided(alpha^(2/delta))], where [delta = k + 1] is the
    sensitivity of a bit-sum over one block. Evenness preserves the parity
    the recipients decode. *)

val alpha_of_epsilon : epsilon:float -> float
(** [exp (-epsilon)] — the paper's correspondence [eps = -ln alpha]. *)

val epsilon_of_alpha : alpha:float -> float

val failure_probability : alpha:float -> table_entries:int -> float
(** Appendix B: probability that a single transfer's noise falls outside a
    decryption lookup table with [table_entries] entries (range
    [\[-N_l/2, N_l/2\]]), i.e. [P_fail = (2 alpha^(N_l/2) + alpha - 1) /
    (1 + alpha)] clamped to [\[0, 1\]]. *)

val max_alpha_for_failure : table_entries:int -> target:float -> float
(** Appendix B inequality (1): the largest [alpha] such that
    [failure_probability <= target], found by bisection. *)
