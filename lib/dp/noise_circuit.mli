(** In-circuit noise generation.

    The aggregation block must add DP noise *inside* MPC so that no party
    ever sees the exact aggregate (§3.6: the members of [B_A] combine
    random shares into a seed and draw the noise term in-circuit). The
    inputs are uniform random bits, XOR-contributed by all block members,
    so they are uniform as long as one member is honest.

    The target distribution is the two-sided geometric with
    [alpha = exp(-epsilon / sensitivity)] — the discrete analogue of the
    paper's Laplace draw, giving the same [eps]-DP guarantee for the
    integer-valued TDS. It is drawn as [G1 - G2], where each [G] is an
    [m]-bit one-sided geometric conditioned on [\[0, 2^m)], with
    [m = floor(log2(max_magnitude + 1))]. Conditioned that way, the
    binary digits of [G] are independent: digit [j] is a biased coin with
    [P(1) = alpha^(2^j) / (1 + alpha^(2^j))] (Champion, shelat and
    Ullman, "Securely Sampling Biased Coins with Applications to
    Differential Privacy", CCS 2019). Each coin is one comparison of its
    own 32-bit uniform word against the rounded constant
    [P(1) * 2^32], so a draw costs [2m] comparisons and one subtraction:
    logarithmic in [max_magnitude], not linear.

    The bound is [|noise| <= 2^m - 1 <= max_magnitude]. The tail beyond
    it is conditioned away, not piled at the bound: each [G] drops the
    mass [P(G >= 2^m) = alpha^(2^m)], and the released pmf's L1
    distance from [(1 - alpha)/(1 + alpha) * alpha^|k|] is a small
    multiple of it, plus the rounding of the coin constants. *)

val input_bits : max_magnitude:int -> int
(** Width of the uniform input {!add_noise} reads: [2m] words of 32 bits,
    [m = floor(log2(max_magnitude + 1))]. *)

val coin_thresholds : alpha:float -> max_magnitude:int -> int array
(** The [m] coin constants: entry [j] is
    [round(alpha^(2^j) / (1 + alpha^(2^j)) * 2^32)], and digit [j] of
    each [G] is 1 iff its word is below it. Raises [Invalid_argument]
    for [alpha] outside (0,1) or [max_magnitude < 1]. *)

val add_noise :
  Dstress_circuit.Builder.t ->
  alpha:float ->
  max_magnitude:int ->
  value:Dstress_circuit.Word.t ->
  uniform:Dstress_circuit.Word.t ->
  Dstress_circuit.Word.t
(** [value + G1 - G2], wrapping at the width of [value]. [uniform] must
    be {!input_bits} wide: word [j] (bits [32j .. 32j + 31]) draws digit
    [j] of [G1] for [j < m] and digit [j - m] of [G2] after. An all-zero
    [uniform] gives equal coins, so [G1 = G2] and the noise is 0. Raises
    [Invalid_argument] as {!coin_thresholds} does, if [uniform] has
    another width, or if [value] is not wider than [m] bits. *)
