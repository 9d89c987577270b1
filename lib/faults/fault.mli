(** Deterministic fault injection for the DStress runtime.

    The paper's deployment model is N mutually-distrusting banks on a real
    network: nodes crash, messages are dropped, delayed or corrupted, and
    the transfer protocol's geometric noise pushes decryptions outside the
    lookup table with probability [P_fail > 0] (Appendix B) — failures are
    expected and must be recovered from, not absorbed silently.

    A {!plan} is a static, fully deterministic schedule of faults: the same
    plan and the same engine seed always reproduce the same run, so every
    failure path is replayable in tests. The engine consults an {!Injector}
    built from the plan; the injector records which faults actually fired
    (a fault naming an edge the graph does not have, or a round the run
    never reaches, stays dormant) and reports per-kind counters for the
    engine's execution report.

    Every kind here is one the engine fires, on the tick timeline. The
    faults of the daemon's worker pool (a worker that stalls, is
    partitioned or disconnects) act in wall time on forked processes;
    they are [Supervisor.fault] in the runtime library, not kinds of
    this plan. *)

type kind =
  | Crash  (** a block member fails (fail-stop) for a round interval *)
  | Drop  (** the relay leg of one edge transfer is lost *)
  | Delay  (** one edge transfer is delivered late *)
  | Corrupt  (** one edge transfer arrives but fails its integrity check *)
  | Decrypt_miss  (** one decryption is forced outside the lookup table *)

val kind_name : kind -> string

(** {2 Simulated-time rounding contract}

    Fault delays are specified in float seconds but charged to the
    deterministic trace timeline in integer ticks. The single conversion
    rule lives here, and the engine's recovery accounting charges every
    delay through it. *)

val ticks_per_second : float
(** 10{^6}: one simulated second costs as many ticks as one megabyte of
    wire traffic (wire bytes are charged 1 tick each). *)

val delay_ticks : float -> int
(** [delay_ticks s] is [s] seconds on the tick timeline: {b truncation
    toward zero} of [s *. ticks_per_second] ([int_of_float], i.e. floor
    for the non-negative inputs the planners produce; negative inputs
    round up toward zero and can never charge negative ticks — callers
    treat the result as a non-negative charge and {!Dstress_obs.Obs.advance}
    ignores values [<= 0]). Sub-microsecond delays therefore charge 0
    ticks by contract. *)

type fault =
  | Crash_node of { node : int; from_round : int; until_round : int }
      (** [node] is unavailable for rounds [\[from_round, until_round)];
          a standby replacement takes over its slot at [from_round]. *)
  | Drop_transfer of { src : int; dst : int; round : int }
  | Delay_transfer of { src : int; dst : int; round : int; seconds : float }
  | Corrupt_transfer of { src : int; dst : int; round : int }
  | Miss_decrypt of { src : int; dst : int; round : int }
      (** force one (member, bit) decryption of the transfer on edge
          [(src, dst)] at [round] to miss the lookup table *)

val kind_of : fault -> kind

type plan = fault list
(** Order is irrelevant; faults at the same (edge, round) compose (the
    delay accumulates, and the most severe of drop/corrupt/miss wins). *)

val empty : plan

type rates = {
  crash : float;  (** per-node probability of one crash during the run *)
  drop : float;  (** per-(edge, round) probability *)
  delay : float;
  corrupt : float;
  miss : float;
}

val no_faults : rates

val random_plan :
  seed:int -> rounds:int -> nodes:int -> edges:(int * int) list -> rates -> plan
(** Draw a schedule from independent per-kind Bernoulli trials over every
    node (crashes) and every (edge, round) pair (transfer faults), using a
    private SplitMix stream: same arguments, same plan. Raises
    [Invalid_argument] if a rate is outside [\[0, 1\]] or [rounds < 1]. *)

val random_crashes : seed:int -> nodes:int -> rounds:int -> count:int -> plan
(** Exactly [count] single-round crashes of distinct nodes at random
    mid-run rounds — the CLI's [--fault-crashes] helper. *)

(** Runtime side: the engine queries the injector each round; the injector
    remembers which faults fired so the report can itemize them. *)
module Injector : sig
  type t

  val create : plan -> t

  val crash_starting : t -> round:int -> node:int -> bool
  (** Does a crash of [node] begin exactly at [round]? This is the moment
      the engine must hand the node's state to its replacement. *)

  val edge_faults : t -> round:int -> src:int -> dst:int -> fault list
  (** All transfer faults scheduled for this edge at this round (marked as
      fired). *)

  val injected : t -> (kind * int) list
  (** Fired faults by kind, for every kind (zero entries included). *)
end
