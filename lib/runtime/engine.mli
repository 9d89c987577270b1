(** The DStress execution engine (§3.3, §3.6).

    Given a vertex program and a distributed graph, the engine drives the
    full protocol among simulated nodes:

    + {b Setup} — the trusted party assigns blocks and issues certificates
      ({!Dstress_transfer.Setup});
    + {b Initialization} — every node XOR-shares its vertex's initial
      state and D no-op messages to its block;
    + {b Computation steps} — each block evaluates the vertex update
      circuit under GMW; inputs and outputs stay shared;
    + {b Communication steps} — each directed edge moves its message
      shares between blocks with the §3.5 transfer protocol (final
      variant, with geometric wire noise);
    + {b Aggregation and noising} — vertex states are re-shared to the
      aggregation block (or a two-level tree of blocks, §3.6), summed by
      the aggregation circuit, and released with in-circuit geometric
      noise of parameter [exp(-eps/s)].

    The engine never reconstructs any intermediate value: the only opened
    value is the noised aggregate. All traffic is recorded per node, and
    wall-clock time is attributed to phases, which is exactly the
    instrumentation the paper's Figures 3–6 report.

    {b Layered runtime.} The engine itself is orchestration glue over
    three layers: {!Block} owns one vertex's share state, mailboxes and
    GMW session; {!Phase} expresses each protocol phase as a batch of
    independent tasks over blocks or edges plus a sequential, index-ordered
    merge into run-wide accounting; {!Executor} schedules a batch on the
    calling domain or on an OCaml 5 domain pool. All randomness is derived
    per task by key ([seed ^ ":" ^ purpose], see {!Block.derive_prg}), so a
    run's output and its full report are bit-identical under every
    executor and schedule.

    {b Fault injection and recovery.} A {!Dstress_faults.Fault.plan} in the
    config injects deterministic faults into a run: hand a block member's
    slot to a standby, drop/delay/corrupt an edge transfer, or force a
    decryption-table miss. The engine degrades gracefully: at a handoff
    the whole block, the leaving member included, re-shares its state to
    the standby;
    failed transfers are retried up to [max_retries] times with
    exponential backoff (simulated, accounted separately from measured
    wall-clock), escalating to an 8-times-wider
    lookup table before giving up. The {!report} itemizes injected faults,
    retries, recovered/unrecovered failures, and the extra edge-privacy
    budget consumed by retried transfers.

    {b Observability.} When [config.obs_level] is
    {!Dstress_obs.Obs.Full}, the run collects a hierarchical span trace
    ([run > round:<r> > phase:<name> > vertex/xfer/init/agg tasks]) on a
    simulated timeline (1 tick per wire byte, 10{^6} per simulated recovery
    second) and a typed metrics registry (GMW rounds/ANDs/OTs, transfer
    retry and escalation counts, crash recoveries, edge-privacy spend,
    per-phase bytes, traffic shape). Collection is deterministic: spans
    are gathered per task and merged in task-index order, and computation
    spans are per {e vertex} rather than per GMW batch, so the exported
    trace and metrics are bit-identical across executors (and so across
    vertex groupings) for a given seed. At [Off] the shared no-op
    collector is used and the hot paths do no work. The collector is
    returned in [report.obs]; export it with {!Dstress_obs.Obs.trace_json} /
    {!Dstress_obs.Obs.metrics_json}. *)

type aggregation = Single_block | Two_level of int  (** fan-out of the leaf level *)

type config = {
  grp : Dstress_crypto.Group.t;
  k : int;  (** collusion bound; blocks have k+1 members *)
  degree_bound : int;  (** public bound D on vertex degree *)
  ot_mode : Dstress_crypto.Ot_ext.mode;
  transfer_alpha : float;  (** wire-noise parameter of the transfer protocol *)
  table_radius : int;  (** decryption lookup covers [-radius, k+1+radius] *)
  aggregation : aggregation;
  seed : string;
  fault_plan : Dstress_faults.Fault.plan;  (** faults to inject (empty = none) *)
  max_retries : int;  (** transfer retries before table escalation *)
  backoff : float;  (** base simulated backoff in seconds (doubles per retry) *)
  executor : Executor.t;
      (** Sequential or a domain pool. A computation step
          evaluates the vertices in contiguous groups, one bitsliced GMW
          batch ({!Dstress_mpc.Gmw.eval_many}) per task: every vertex runs
          the same update circuit, so a group packs up to
          {!Dstress_mpc.Gmw.lanes} instances into [int64] wire words,
          shrunk so every job of the executor gets a group. Every grouping
          produces bit-identical reports — outputs, traffic matrix,
          fault/retry counters. *)
  obs_level : Dstress_obs.Obs.level;
      (** observability level: [Off] (default; zero-cost no-op) or [Full]
          (metrics, run/round/phase spans, per-task, per-vertex and
          per-transfer-attempt spans, and per-node traffic gauges) *)
  preprocess : bool;
      (** run the offline phase: before the timed online rounds, set up
          each block session's OT sessions and compute ahead the mask
          keystream of [iterations + 1] evaluations of the run's one
          compiled update plan ({!Dstress_mpc.Gmw.preprocess}), so the
          online rounds draw their masks without hashing. The OT
          extension itself stays online. Nothing outlives the run. The
          run's outputs, traffic, counters and tick-domain observability
          exports are bit-identical with or without preprocessing, on
          every executor; only wall-clock shifts from the online phases
          to the offline one (reported in [report.offline_metrics]).
          Default [false]. *)
}

val default_config : ?seed:string -> Dstress_crypto.Group.t -> k:int -> degree_bound:int -> config
(** Simulation OT mode, [transfer_alpha = 0.5], table radius 120,
    single-block aggregation, no faults, 2 retries, 50 ms base backoff,
    observability off. The executor comes from
    {!Executor.of_env} — sequential unless the [DSTRESS_JOBS] environment
    variable requests a domain pool. *)

val validate_config : config -> unit
(** Raises [Invalid_argument] with a descriptive message if any field is
    out of range ([k < 1], [transfer_alpha] outside (0,1), nonpositive
    [table_radius], a [Two_level] fan-out < 1, negative [max_retries] or
    [backoff], a [Parallel] executor with [jobs < 1]). Called by {!run}
    before any work starts. *)

type phase = Phase.id = Setup | Initialization | Computation | Communication | Aggregation

val phase_name : phase -> string

val all_phases : phase list

type report = {
  output : int;  (** the noised aggregate (signed) — the only public value *)
  iterations : int;
  traffic : Dstress_mpc.Traffic.t;  (** per-node, global node ids *)
  phase_bytes : (phase * int) list;
  phase_seconds : (phase * float) list;
  transfer_failures : int;
      (** decryption misses across all transfer attempts (incl. recovered) *)
  recovered_failures : int;  (** misses fixed by a retry or table escalation *)
  unrecovered_failures : int;
      (** (member, bit) positions still untrusted after all attempts; the
          protocol substituted the no-op value 0 and flagged them *)
  transfer_retries : int;  (** transfer attempts beyond the first *)
  crash_recoveries : int;  (** handoffs of block members to standbys *)
  faults_injected : (Dstress_faults.Fault.kind * int) list;
      (** per-kind count of plan entries that actually fired *)
  retry_epsilon : float;
      (** extra edge-privacy budget spent by retried transfers
          ({!Dstress_transfer.Edge_privacy.retry_epsilon}) *)
  recovery_seconds : (phase * float) list;
      (** simulated backoff/handoff delay per phase — kept separate from
          the measured [phase_seconds] *)
  mpc_rounds : int;
  mpc_and_gates : int;
  mpc_ots : int;
  update_stats : Dstress_circuit.Circuit.stats;
  obs : Dstress_obs.Obs.t;
      (** the run's observability collector (the shared no-op collector
          when [obs_level = Off]); all spans are closed — ready for the
          {!Dstress_obs.Obs} exporters *)
  offline_metrics : Dstress_obs.Obs.Metrics.t option;
      (** wall-domain offline-phase counters when [config.preprocess] was
          set: [preprocess.sessions] / [preprocess.evals] (sessions
          preprocessed and the evaluations each was preprocessed for)
          and the [preprocess.wall_s] gauge. Deliberately separate from
          [obs]: a run's tick-domain exports are byte-identical with and
          without preprocessing. *)
}

val run :
  config ->
  Vertex_program.t ->
  graph:Graph.t ->
  initial_states:Dstress_util.Bitvec.t array ->
  report
(** Raises [Invalid_argument] if a vertex degree exceeds [degree_bound],
    the state widths are wrong, the graph size does not match, or the
    Setup phase finds that the trusted party's signature on the roster
    does not verify ({!Dstress_transfer.Setup.verify_roster}). Each
    certificate's signature is checked where a sender installs it
    ({!Dstress_transfer.Protocol.keys}). *)

val run_plaintext :
  Vertex_program.t ->
  degree_bound:int ->
  graph:Graph.t ->
  initial_states:Dstress_util.Bitvec.t array ->
  int
(** Reference executor: runs the *same circuits* in cleartext with zero
    noise. The MPC output minus this value is exactly the DP noise — the
    oracle used by the integration tests. *)

val pp_report : Format.formatter -> report -> unit
