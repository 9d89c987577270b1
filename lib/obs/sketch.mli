(** Mergeable log-bucketed quantile sketch (DDSketch-style).

    A sketch summarizes a stream of non-negative floats (wall-clock
    latencies, sizes) into geometrically-spaced buckets so any quantile
    can be estimated with bounded {e relative} error {!relative_error}:
    for a stream [xs] the estimate of the [q]-quantile [x] satisfies
    [|est - x| <= relative_error * x].  Exact count/total/min/max ride
    along.

    Sketches live in the {e wall} domain — they are never part of the
    deterministic tick-domain exports, which must stay byte-identical
    across executors. *)

type t

val relative_error : float
(** The relative-error bound of every sketch: 0.01. *)

val create : unit -> t
(** Fresh empty sketch. *)

val add : t -> float -> unit
(** Record one observation. Non-finite values are ignored; values at or
    below ~1e-12 (including negatives) collapse into a zero bucket and
    estimate as exactly [0.]. *)

val count : t -> int
(** Number of recorded observations. *)

val total : t -> float
(** Exact sum of recorded observations. *)

val mean : t -> float
(** Exact mean; [0.] for an empty sketch. *)

val min_value : t -> float
(** Exact minimum; [0.] for an empty sketch. *)

val max_value : t -> float
(** Exact maximum; [0.] for an empty sketch. *)

val quantile : t -> float -> float option
(** [quantile t q] estimates the [q]-quantile ([0. <= q <= 1.]) within
    {!relative_error}; [None] when the sketch is empty.
    @raise Invalid_argument if [q] is out of range. *)

val quantile_or : default:float -> t -> float -> float
(** {!quantile} with a default for the empty case. *)

val merge_into : dst:t -> t -> unit
(** Bucket-wise addition of the source into [dst]. Merging is
    associative and commutative on bucket contents and preserves the
    error bound. *)

val merge : t -> t -> t
(** Non-destructive {!merge_into} onto a copy of the first argument. *)

val copy : t -> t
(** Independent deep copy. *)

val buckets : t -> (int * int) list
(** Non-zero buckets as [(index, count)], sorted by index. The zero
    bucket is not included (derivable as [count] minus the sum). Exposed
    for tests and serialization. *)

val to_json : t -> Json.t
(** [{"count": _, "total": _, "mean": _, "min": _, "max": _,
     "p50": _, "p90": _, "p99": _}] with quantiles [0.] when empty. *)
