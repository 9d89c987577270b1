(** Privacy-budget accounting.

    DStress tracks two budgets (§4.5, Appendix B): the query budget spent
    by released outputs (sequential composition: epsilons add) and the
    edge-privacy budget spent by the noised bit-sums of the transfer
    protocol. Both are instances of this accountant. *)

type t

type entry = { label : string; epsilon : float }

val create : epsilon_max:float -> t
(** Raises [Invalid_argument] if [epsilon_max <= 0]. *)

val epsilon_max : t -> float
val spent : t -> float
val remaining : t -> float

val spend : t -> label:string -> epsilon:float -> (unit, string) result
(** Sequential composition. [Error] (with a human-readable reason) when the
    request does not fit in the remaining budget; nothing is charged in
    that case. Raises [Invalid_argument] if [epsilon <= 0]. *)

val ledger : t -> entry list
(** Spends in chronological order. *)

val replenish : t -> unit
(** Reset the budget (the paper's "replenish once per year" policy, §4.5).
    The ledger is cleared. *)
