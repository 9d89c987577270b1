(** Directed property graphs, the substrate of every vertex program.

    Vertex [i] is owned by participant [i]; the edge set is the private
    topology the transfer protocol hides. Messages flow along directed
    edges: one message per out-edge per communication step. *)

type t

val create : n:int -> edges:(int * int) list -> t
(** Raises [Invalid_argument] on out-of-range endpoints, self-loops or
    duplicate edges. *)

val n : t -> int
val edges : t -> (int * int) list
(** In deterministic order. *)

val out_neighbors : t -> int -> int list
(** Sorted ascending. *)

val in_neighbors : t -> int -> int list

val max_degree : t -> int
(** Maximum over vertices of the number of in- and out-neighbors together
    (the certificate recipients) — must not exceed the system's degree
    bound D. *)

val out_slot : t -> src:int -> dst:int -> int
(** Index of [dst] in [src]'s sorted out-neighbor list.
    Raises [Not_found] if the edge is absent. *)

val in_slot : t -> src:int -> dst:int -> int
(** Index of [src] in [dst]'s sorted in-neighbor list. *)

val neighbor_slot : t -> owner:int -> other:int -> int
(** Index of [other] in [owner]'s undirected neighbor list — selects which
    block certificate [owner] handed to [other]. *)
