(** The §3.5 message-transfer protocol: moving an XOR-shared L-bit message
    from block [B_i] to block [B_j] along the (private) edge (i, j).

    All four protocol versions from the paper are implemented so the design
    progression can be tested and benchmarked:

    - {!Strawman1}: each member of [B_i] encrypts its whole share to one
      member of [B_j] (weak: a node in both blocks, or a colluding pair,
      learns two shares);
    - {!Strawman2}: shares are split into subshares, one per recipient
      (collusion-resistant, but colluding endpoints can *recognize*
      subshares and infer the edge);
    - {!Strawman3}: the relay node [i] homomorphically sums the encrypted
      subshare bits, so recipients see only sums (the exact sums still
      leak edge information — the Appendix-B side channel);
    - {!Final}: strawman 3 plus even geometric noise [2·Geo(alpha^(2/(k+1)))]
      added by [i] to every encrypted bit-sum, making the side channel
      epsilon-differentially-private in the graph's edges.

    All variants route via the endpoint nodes [i] and [j] (blocks never
    talk directly — that would reveal the edge to them), use the
    re-randomized keys from [j]'s block certificate, and apply the
    Kurosawa shared-ephemeral optimization across the L bit positions.

    {b Failure and recovery.} The geometric noise pushes a decryption
    outside the lookup table with probability [P_fail > 0] (Appendix B),
    and a real network loses or corrupts messages; both are first-class
    here. A decryption miss is never papered over: it is surfaced per
    (member, bit) in the {!outcome}, and — when a {!recovery} policy is
    supplied — the whole transfer is retried with fresh subshares, fresh
    ephemerals and freshly drawn noise, escalating to a widened lookup
    table on the last attempt. Every retry re-releases one transfer's
    worth of noised sums and is charged to the edge-privacy budget
    ({!Edge_privacy.retry_epsilon}); every attempt's bytes are metered.

    Every byte is recorded in the caller's {!Dstress_mpc.Traffic} matrix
    under the *global* node ids, which is what the Figure 4/5 benchmarks
    report. *)

type variant = Strawman1 | Strawman2 | Strawman3 | Final

type params = {
  alpha : float;  (** geometric noise parameter for {!Final} (in (0,1)) *)
  table : Dstress_crypto.Exp_elgamal.Table.t;
      (** discrete-log lookup for decryption; must cover
          [\[-noise_range, k+1+noise_range\]] *)
}

type recovery = {
  max_retries : int;
      (** additional full attempts (fresh randomness) after a failed one *)
  escalation_table : Dstress_crypto.Exp_elgamal.Table.t Lazy.t option;
      (** widened lookup table for one final attempt after the retries are
          exhausted; forced at most once per transfer *)
}

val no_recovery : recovery
(** Zero retries, no escalation: a miss is reported, not retried — the
    pre-fault-model behaviour, still used by the strawman ablations. *)

type inject =
  | Drop_attempt  (** the relay leg [i -> j] of the first attempt is lost *)
  | Corrupt_attempt
      (** the first attempt arrives but fails its integrity check and is
          discarded by [j] without decrypting *)
  | Force_miss of { member : int; bit : int }
      (** the first attempt's decryption at (member, bit) misses the table *)

type miss = { member : int; bit : int }
(** One decryption that fell outside the lookup table, identified by the
    receiving member's block index and the bit position. *)

type outcome = {
  shares : Dstress_util.Bitvec.t array;
      (** new shares, one per member of [B_j] (same order as the block);
          all-zero (the no-op message) if the transfer was unrecoverably
          lost in flight *)
  failures : int;
      (** decryption misses across {e all} attempts (recovered or not) *)
  misses : miss list;
      (** positions whose final value is untrusted: decryption misses of
          the last attempt (0 was substituted and flagged), or every
          position if the final attempt was lost in flight *)
  retries : int;  (** attempts beyond the first *)
  recovered : int;  (** decryption misses fixed by a later attempt *)
  unrecovered : int;  (** [List.length misses] *)
  extra_epsilon : float;
      (** edge-privacy budget consumed by retries that re-released sums
          ({!Final} only; the baseline release is accounted elsewhere) *)
  sums : int array array option;
      (** for {!Strawman3}/{!Final}: the decrypted bit-sums
          [sums.(member).(bit)] each recipient observes — exposed so tests
          and the edge-privacy analysis can quantify the side channel *)
}

val transfer :
  ?recovery:recovery ->
  ?inject:inject ->
  ?obs:Dstress_obs.Obs.t ->
  params ->
  prg:Dstress_crypto.Prg.t ->
  noise:Dstress_util.Prng.t ->
  traffic:Dstress_mpc.Traffic.t ->
  variant:variant ->
  setup:Setup.t ->
  sender:int ->
  receiver:int ->
  neighbor_slot:int ->
  shares:Dstress_util.Bitvec.t array ->
  outcome
(** [transfer params ... ~sender:i ~receiver:j ~neighbor_slot ~shares] runs
    one edge transfer. [shares] are the current shares of [B_i]'s members
    (block order); [neighbor_slot] selects which of [j]'s certificates was
    handed to [i] during setup. The reconstructed message is preserved:
    XOR of output shares = XOR of input shares (Theorem 1) whenever
    [unrecovered = 0]. [recovery] defaults to {!no_recovery}; [inject]
    applies a simulated fault to the first attempt only.

    [obs] (default: the no-op collector) receives phase-attributed
    observability: [transfer.attempts] per protocol attempt plus the
    outcome's [transfer.failures]/[.recovered]/[.unrecovered]/[.retries]
    counters, and one [attempt:<n>] span per attempt whose simulated
    duration is the bytes that attempt put on [traffic].
    Pass the calling task's private collector so emission stays
    deterministic under parallel schedules. Raises
    [Invalid_argument] on shape mismatches or a negative retry bound. *)

val expected_bytes :
  variant -> k:int -> bits:int -> element_bytes:int -> int * int * int * int
(** Closed-form wire cost [(bi_member_to_i, i_to_j, j_to_member, total)]
    per §5.3, for validating the metered traffic. [bi_member_to_i] is per
    sending member; [j_to_member] per receiving member. Costs are per
    attempt: a retried transfer pays the total again. *)
