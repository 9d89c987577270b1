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

    Two families share the plan type. {e Protocol} faults (crash, drop,
    delay, corrupt, decrypt miss) are consumed by the engine. {e Wire}
    faults (disconnect, stall, partition) attack the daemon's persistent
    worker pool ([Service] in the runtime library): its fault source maps
    each dispatch index (a plan's "batch") and worker slot to the faults
    that apply there ({!Injector.wire_faults}). The engine never fires
    them. *)

type kind =
  | Crash  (** a block member fails (fail-stop) for a round interval *)
  | Drop  (** the relay leg of one edge transfer is lost *)
  | Delay  (** one edge transfer is delivered late *)
  | Corrupt  (** one edge transfer arrives but fails its integrity check *)
  | Decrypt_miss  (** one decryption is forced outside the lookup table *)
  | Disconnect  (** a pool worker's socket dies mid-request *)
  | Stall  (** a pool worker stalls (stops writing) long enough to be suspected *)
  | Partition  (** a pool worker slot is unreachable for a dispatch interval *)

val kind_name : kind -> string
val all_kinds : kind list

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
  | Disconnect_worker of { worker : int; batch : int }
      (** worker slot [worker]'s connection dies abruptly while serving
          dispatch [batch]; the pool must respawn the slot and redispatch
          the lost request *)
  | Stall_worker of { worker : int; batch : int; seconds : float }
      (** worker slot [worker] stalls for [seconds] before replying to
          dispatch [batch] — long stalls trip the heartbeat failure
          detector and exercise epoch fencing when the stalled worker's
          late reply finally arrives *)
  | Partition_worker of { worker : int; from_batch : int; until_batch : int }
      (** worker slot [worker] is unreachable (drops every frame, sends
          nothing) for dispatches [\[from_batch, until_batch)]; a
          respawned replacement that receives one of them is equally
          unreachable, so the pool must degrade onto the remaining
          workers *)

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

type wire_rates = {
  disconnect : float;  (** per-(worker, batch) probability *)
  stall : float;
  partition : float;
}

val no_wire_faults : wire_rates

val random_wire_plan :
  seed:int -> workers:int -> batches:int -> wire_rates -> plan
(** Draw a wire-fault schedule over every (worker slot, dispatch batch)
    pair from independent Bernoulli trials on a private SplitMix stream:
    same arguments, same plan. Stalls draw a duration in [\[0.05, 0.25)] s;
    partitions cover 1–2 batches. Raises [Invalid_argument] if a rate is
    outside [\[0, 1\]], or [workers < 1], or [batches < 1]. *)

(** Runtime side: the engine queries the injector each round; the injector
    remembers which faults fired so the report can itemize them. *)
module Injector : sig
  type t

  val create : plan -> t

  val crashed : t -> round:int -> node:int -> bool
  (** Is [node] down at [round]? Marks the covering crash fault as fired. *)

  val crash_starting : t -> round:int -> node:int -> bool
  (** Does a crash of [node] begin exactly at [round]? This is the moment
      the engine must hand the node's state to its replacement. *)

  val edge_faults : t -> round:int -> src:int -> dst:int -> fault list
  (** All transfer faults scheduled for this edge at this round (marked as
      fired). *)

  val wire_faults : t -> batch:int -> worker:int -> fault list
  (** All wire faults covering this (worker slot, dispatch batch) pair —
      a [Partition_worker] matches every batch of its interval. Marked as
      fired (idempotently: an interval fault counts once however many
      batches consult it). *)

  val injected : t -> (kind * int) list
  (** Fired faults by kind, for every kind (zero entries included). *)

  val total_injected : t -> int
end
