(** The Elliott–Golub–Jackson model as a DStress vertex program
    (Figure 2b).

    Values are fixed-point with [frac] binary places inside [l]-bit words
    (so dollar magnitudes must stay below [2^(l - frac) * scale]).
    Per-vertex state:

    - base assets, original valuation, failure threshold, penalty and
      current value (one word each),
    - the dollar value of the stake held in each in-neighbor
      ([insh * origVal], D words, in-slot order).

    Messages carry the sender's current *discount* [1 - value/origVal] as
    an [l]-bit fixed-point fraction; the no-op message 0 means "no
    devaluation". Each round a bank revalues its equity stakes with the
    received discounts, applies the failure penalty if it dropped below
    threshold, and broadcasts its own fresh discount.

    The aggregand is [max(0, threshold - value)] — the paper's TDS of
    failed banks relative to their thresholds. *)

val make :
  ?epsilon:float ->
  ?sensitivity:int ->
  ?noise_max:int ->
  l:int ->
  frac:int ->
  degree:int ->
  iterations:int ->
  unit ->
  Dstress_runtime.Vertex_program.t
(** [frac] must satisfy [0 < frac < l]. Defaults as in {!En_program.make}
    with [sensitivity = 20] (the 2/r bound of §4.4 with r = 0.1). *)

val state_bits : l:int -> degree:int -> int
val agg_bits : l:int -> int

val graph_of_instance : Reference.egj_instance -> Dstress_runtime.Graph.t
(** Edge (issuer -> holder) for every cross-holding: discounts flow from
    the issuer to its shareholders. *)

val encode :
  Reference.egj_instance ->
  graph:Dstress_runtime.Graph.t ->
  l:int ->
  frac:int ->
  degree:int ->
  scale:float ->
  (Dstress_util.Bitvec.t array, string) result
(** Initial vertex states at [frac] fraction bits, or [Error] naming the
    first scaled value that does not fit in [l] bits. *)

val encode_instance :
  Reference.egj_instance ->
  graph:Dstress_runtime.Graph.t ->
  l:int ->
  frac:int ->
  degree:int ->
  scale:float ->
  Dstress_util.Bitvec.t array
(** {!encode}, raising [Invalid_argument] on its [Error]. *)

val decode_output : scale:float -> frac:int -> int -> float
