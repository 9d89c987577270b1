(** Per-party traffic matrix.

    The evaluation sections of the paper (Figures 4–6) report traffic *per
    node*, so the MPC engine and the transfer protocol record every byte as
    a directed (sender, receiver) entry, from which per-node send/receive
    totals fall out. *)

type t

val create : int -> t
(** [create n] for [n] parties. *)

val parties : t -> int

val add : t -> src:int -> dst:int -> int -> unit
(** Raises [Invalid_argument] on out-of-range parties or negative bytes. *)

val add_external : t -> dst:int -> int -> unit
(** Bytes delivered to [dst] by a sender {e outside} the party set — the
    trusted party's one-time setup download, in DStress. These live on a
    dedicated row (not as a [dst -> dst] self-loop, which would double-count
    in {!by_node}): they appear in {!received_by}, {!by_node} and {!total}
    but never in {!sent_by} or {!iter_nonzero}. Raises [Invalid_argument]
    on an out-of-range party or negative bytes. *)

val external_to : t -> int -> int
(** External bytes recorded for one party by {!add_external}. *)

val external_total : t -> int

val sent_by : t -> int -> int
val received_by : t -> int -> int
(** Includes the party's {!add_external} bytes. *)

val by_node : t -> int -> int
(** Sent plus received. *)

val total : t -> int
(** All bytes on the wire (each byte counted once). *)

val max_per_node : t -> int
val mean_per_node : t -> float

val equal : t -> t -> bool
(** Structural equality of two matrices: same party count, same per-pair
    byte counts and same external rows. Used by the equivalence tests that
    assert the sliced and scalar GMW paths meter identical traffic. *)

val merge_into : dst:t -> t -> unit
(** Accumulates another matrix of the same size. *)

val clear : t -> unit
(** Zeroes every entry. *)

val iter_nonzero : t -> (src:int -> dst:int -> int -> unit) -> unit
(** Visit every nonzero directed entry of the party-to-party matrix.
    External bytes ({!add_external}) are not visited — read them with
    {!external_to}. *)

val observe : ?prefix:string -> t -> Dstress_obs.Obs.t -> unit
(** Publish the matrix into a metrics registry under [prefix] (default
    ["traffic"]): total and external byte counters, max/mean per-node
    gauges and per-node sent/received gauges
    ([<prefix>.node.%03d.sent/.received]); nothing when the collector is
    off. This is the phase-attributed replacement for reading the matrix
    fields by hand. *)

val pp : Format.formatter -> t -> unit
