(** Execution backends for the runtime's independent work units.

    The paper's whole design rests on per-vertex blocks computing
    {e independently} — 100 EC2 nodes run their block MPCs concurrently.
    This module is the simulation-side equivalent: a phase hands the
    executor a list of index-addressed tasks, and the executor runs them
    either on the calling domain ([Sequential]) or across an OCaml 5
    [Domain] pool ([Parallel]).

    Tasks must be pairwise independent: a task may mutate only state that
    no other task in the same batch reads or writes (its own block's
    shares, its own traffic matrix, its own PRG). Under that contract the
    two backends are interchangeable — {!map} always returns results in
    index order, and the engine merges them sequentially, so outputs and
    reports are bit-identical regardless of scheduling (see DESIGN.md,
    "Runtime architecture").

    The same contract carries the observability layer: {!Phase.run_tasks}
    hands every task its own forked {!Dstress_obs.Obs} collector (never
    shared across tasks, so no synchronization on the hot path) and folds
    them back in index order after the batch — which is why a run's
    exported trace and metrics are also byte-identical under either
    backend and any [jobs] count. *)

type t =
  | Sequential  (** run every task on the calling domain, in index order *)
  | Parallel of { jobs : int }  (** work-stealing pool of [jobs] domains *)

val sequential : t

val parallel : jobs:int -> t
(** [jobs <= 1] collapses to {!Sequential}. *)

val of_string : string -> (t, string) result
(** Parse an executor spec: ["sequential"] (or ["seq"]) or
    ["parallel[:N]"] (bare ["parallel"] uses
    [Domain.recommended_domain_count]). Case- and whitespace-insensitive;
    [Error] explains rejects. This is the one parser behind [--executor]
    in [bin/dstress.ml], the bench harness and a DSTRESS-REQ/1 request's
    executor field. *)

val of_env : unit -> t
(** The [DSTRESS_JOBS] integer selects [Parallel { jobs }] when [>= 2];
    absent, unparsable or smaller selects [Sequential]. This is how CI
    runs the whole test suite under both backends without touching any
    call site. *)

val jobs : t -> int
(** 1 for [Sequential]; the domain count for [Parallel]. *)

val name : t -> string
(** ["sequential"] or ["parallel:N"], for reports and benchmarks.
    Round-trips through {!of_string}. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map exec count f] evaluates [f i] for [0 <= i < count] and returns
    the results in index order. [Sequential] evaluates in increasing [i]
    on the calling domain. [Parallel] distributes indices over a domain
    pool via an atomic work counter; completion order is arbitrary but
    the result array is always index-ordered. If any task raises, the
    batch finishes draining and the first (lowest-index) exception is
    re-raised. *)
