(** Sensitivity bounds for the risk models (§4.4).

    Hemenway & Khanna prove that, under a leverage bound [r] (a bank's
    equity is at least an [r] fraction of its total assets — Basel III
    mandates r = 0.1), the TDS of the Elliott–Golub–Jackson model changes
    by at most [2/r] when one portfolio is reallocated by one dollar-unit,
    and an analogous argument gives [1/r] for Eisenberg–Noe. These bounds
    are independent of the iteration count, which is why the number of
    rounds costs running time but no privacy. *)

val eisenberg_noe : leverage:float -> float
(** [1 / r]. Raises [Invalid_argument] if [r] is outside (0, 1]. *)

val elliott_golub_jackson : leverage:float -> float
(** [2 / r]. *)

val units : sensitivity:float -> scale_dollars:float -> granularity_dollars:float -> int
(** Convert a dollar-space sensitivity into integer aggregate units: a
    [granularity_dollars] reallocation (the paper's T = $1B) moves the
    integer TDS by at most [ceil (sensitivity * granularity / scale)]
    units when the aggregate is expressed in [scale_dollars] units. *)
