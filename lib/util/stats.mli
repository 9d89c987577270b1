(** Summary statistics for benchmark results and the utility experiment. *)

val mean : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float
(** Square root of the unbiased sample variance; 0 for arrays of length
    < 2. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty array. *)

val median : float array -> float
