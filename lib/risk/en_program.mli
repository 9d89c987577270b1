(** The Eisenberg–Noe model as a DStress vertex program (Figure 2a).

    Dollar amounts are fixed-point integers: [scale] dollars per unit,
    [l]-bit words (the paper's L = 12..16-bit datatype). Per-vertex state
    holds the bank's balance sheet:

    - cash, total debt and current deficit (one word each),
    - the debt owed to each out-neighbor (D words, out-slot order),
    - the credit due from each in-neighbor (D words, in-slot order).

    Each round, a bank receives its debtors' shortfalls, recomputes its
    liquidity, and sends each creditor its prorated shortfall
    [debt * deficit / totalDebt] (computed with one in-circuit division and
    D multiplications). The no-op message is 0 — "no shortfall" — so
    padding slots are semantically neutral.

    The aggregand is the bank's deficit [max(0, totalDebt - liquid)], so
    the aggregate is the paper's total dollar shortfall
    [TDS = sum_i totalDebt_i * (1 - prorate_i)]. *)

val make :
  ?epsilon:float ->
  ?sensitivity:int ->
  ?noise_max:int ->
  l:int ->
  degree:int ->
  iterations:int ->
  unit ->
  Dstress_runtime.Vertex_program.t
(** Defaults: [epsilon = 0.23], [sensitivity = 20] (Basel III leverage
    bound r = 0.1 gives s = 1/r = 10; we keep the conservative 2/r = 20 so
    both models share a noise scale), [noise_max = 600]. [l] must be in
    [\[4, 20\]] and [degree >= 1]. *)

val state_bits : l:int -> degree:int -> int
val agg_bits : l:int -> int

val graph_of_instance : Reference.en_instance -> Dstress_runtime.Graph.t
(** Edge (debtor -> creditor) for every debt. *)

val encode :
  Reference.en_instance ->
  graph:Dstress_runtime.Graph.t ->
  l:int ->
  degree:int ->
  scale:float ->
  (Dstress_util.Bitvec.t array, string) result
(** Initial vertex states, or [Error] naming the first scaled value
    (including a bank's total debt) that does not fit in [l] bits. *)

val encode_instance :
  Reference.en_instance ->
  graph:Dstress_runtime.Graph.t ->
  l:int ->
  degree:int ->
  scale:float ->
  Dstress_util.Bitvec.t array
(** {!encode}, raising [Invalid_argument] on its [Error]. *)

val decode_output : scale:float -> int -> float
(** Noised aggregate units back to dollars. *)
