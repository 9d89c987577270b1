(** GMW n-party secure computation over boolean circuits
    (Goldreich–Micali–Wigderson, STOC'87) — the MPC engine DStress uses for
    every vertex computation step, the aggregation step and the noising
    step.

    Every wire carries XOR shares: each of the [k+1] parties holds one
    bit of it and the cleartext value is the XOR of all of them.
    - XOR and NOT gates are evaluated locally (free);
    - AND gates use one 1-out-of-2 oblivious transfer per *ordered* party
      pair, batched per circuit AND-level and served by the IKNP extension
      ({!Dstress_crypto.Ot_ext}), so the number of communication rounds per
      circuit equals its AND depth.

    All parties are simulated in-process; every byte that would cross the
    wire is recorded in a {!Traffic} matrix, and the cumulative counters
    ({!rounds}, {!and_gates_evaluated}, {!ots_performed}) feed the cost
    model that reproduces the paper's scalability projections. *)

type session

val create_session :
  ?mode:Dstress_crypto.Ot_ext.mode ->
  Dstress_crypto.Group.t ->
  parties:int ->
  seed:string ->
  session
(** [create_session grp ~parties ~seed] prepares per-party randomness.
    OT-extension sessions between party pairs are established lazily on
    first use (and their base-OT traffic is charged at that point).
    Default mode is [Crypto], the IKNP construction. [Simulation] uses the
    ideal OT functionality instead: the same output shares, traffic,
    counters and PRG streams, without the OT work (see
    {!Dstress_crypto.Ot_ext}). Raises [Invalid_argument] if
    [parties < 2]. *)

val parties : session -> int

val share_input : session -> Dstress_util.Bitvec.t -> Dstress_util.Bitvec.t array
(** Split a cleartext input vector into per-party XOR shares using the
    session's dealer randomness (test/benchmark convenience — in DStress
    proper, inputs arrive already shared). *)

val eval :
  session ->
  Plan.t ->
  input_shares:Dstress_util.Bitvec.t array ->
  Dstress_util.Bitvec.t array
(** [eval s plan ~input_shares] runs the protocol on the plan's circuit
    [c] ({!Plan.compile}; compile a circuit once and pass its plan to
    every evaluation). [input_shares] has one
    vector of length [c.num_inputs] per party; the result has one vector of
    length [Array.length c.outputs] per party, XOR-sharing the outputs
    (outputs are *not* revealed — DStress keeps them shared, §3.6).
    It is {!eval_many} on the one session: the word-level evaluator with a
    single slot. Each AND level performs one bit OT per gate and ordered
    pair and meters the bytes {!Dstress_crypto.Ot_ext.extend_bits} would
    for that batch. The wire words are stored unboxed (8-byte [Bytes] words),
    so evaluation boxes no [Int64] per wire or gate. In [Simulation] mode,
    and whenever every session consumes pre-drawn material, the OT's
    receiver output — the ideal chosen message [mask ⊕ (x_s ∧ y_r)] — is
    computed inline; [Crypto] mode with inline draws runs the IKNP carrier
    ({!Dstress_crypto.Ot_ext.extend_words}) per ordered pair.
    Raises [Invalid_argument] on shape mismatches. *)

val lanes : int
(** Instances per 64-bit wire word: {!eval_many} evaluates its sessions
    in chunks of at most [lanes] (= 64). *)

val eval_many :
  session array ->
  Plan.t ->
  input_shares:Dstress_util.Bitvec.t array array ->
  Dstress_util.Bitvec.t array array
(** Bitsliced evaluation of the same plan across many independent
    sessions (protocol instances): [eval_many sessions plan ~input_shares]
    is observably identical to
    [Array.mapi (fun i s -> eval s plan ~input_shares:input_shares.(i)) sessions]
    — same output shares, same per-session traffic matrices, same
    rounds/AND/OT counters, same PRG states afterwards — but packs up to
    {!lanes} instances into each 64-bit wire word (one lane per instance),
    so local gates cost one word op and each AND level runs one word-level
    OT pass per ordered pair for all of them instead of one per instance.
    Instances beyond {!lanes} are processed in successive chunks. All
    sessions must agree on party count and OT mode.
    Raises [Invalid_argument] on shape mismatches. *)

val generate_material :
  ?mode:Dstress_crypto.Ot_ext.mode ->
  Dstress_crypto.Group.t ->
  parties:int ->
  seed:string ->
  evals:int ->
  Plan.t ->
  Triple.material
(** Offline phase: pre-draw, on a throwaway session created exactly like
    [create_session ?mode grp ~parties ~seed], all the correlated
    randomness that [evals] evaluations of the plan's circuit will
    consume — the lazy per-pair OT-extension setup and every Beaver-style
    mask bit, in the online draw order — plus per-party PRG snapshots
    after each evaluation. The result is input-independent, bound to
    [plan] and attached to one fresh session. *)

val attach_material : session -> Triple.material -> unit
(** [attach_material s mat] installs offline material into a fresh
    session: the pre-set-up OT sessions, which [s] takes over (so a
    material serves one session), the base-OT setup
    traffic (charged here instead of lazily during the first evaluation —
    indistinguishable to any caller that reads traffic after an
    evaluation), and the mask store. Subsequent {!eval}/{!eval_many}
    calls on the material's plan consume one pre-drawn entry each and
    skip every online PRG and OT invocation, remaining bit-identical —
    output shares, traffic, counters, PRG states — to inline generation;
    once the material is exhausted, evaluation falls back to inline draws
    and continuity of the PRG streams keeps the equivalence exact.
    Evaluating any other plan drops the material (the snapshots would
    no longer line up) and continues inline; plans match by physical
    identity, so a separately compiled copy of the same circuit is
    another plan.

    The session must be fresh — same [parties], [seed]-compatible PRG
    states (unevaluated), same OT [mode], no established OT sessions.
    Raises [Invalid_argument] otherwise. *)

val material_remaining : session -> int
(** Pre-drawn evaluations not yet consumed (0 when none attached). *)

val reveal : session -> Dstress_util.Bitvec.t array -> Dstress_util.Bitvec.t
(** Open shared values by all-to-all broadcast of shares (metered). *)

val observe : session -> Dstress_obs.Obs.t -> unit
(** Fold the session's cumulative counters into a metrics registry:
    increments [mpc.sessions] by one and [mpc.rounds], [mpc.and_gates],
    [mpc.ots] by the session totals. The engine calls this once per
    session at the end of a run, in a fixed session order, so the registry
    is deterministic. *)

val traffic : session -> Traffic.t
(** Cumulative traffic matrix (live reference; use {!reset_traffic} to
    start a fresh measurement window). *)

val reset_traffic : session -> unit

val rounds : session -> int
(** Cumulative AND rounds across all [eval] calls. *)

val and_gates_evaluated : session -> int
val ots_performed : session -> int
