(** One vertex's block (§3.3): the k+1 members holding XOR shares of the
    vertex's state and of its D message slots, plus the block's GMW
    session.

    A block is the runtime's unit of independent work: a computation task
    updates only the blocks of its own vertex group, in place; a
    communication task reads one source block's outbox, and its merge
    writes one destination inbox slot (slots are disjoint per edge). The
    module also provides the {e keyed randomness}
    derivations that give every block and every edge transfer its own
    independent stream — [H(seed ":" purpose)] — so no task ever draws
    from a shared generator and scheduling order cannot change outputs. *)

type t = {
  vertex : int;
  members : int array;  (** k+1 global node ids, first is the vertex *)
  session : Dstress_mpc.Gmw.session;  (** reused across all rounds *)
  state_bits : int;
  message_bits : int;
  degree : int;
  mutable state : Dstress_util.Bitvec.t array;  (** one share per member *)
  inbox : Dstress_util.Bitvec.t array array;
      (** [inbox.(slot).(member)] — shares of the message last received on
          each in-slot; no-op (all-zero) when nothing arrived *)
  outbox : Dstress_util.Bitvec.t array array;
      (** [outbox.(slot).(member)] — shares produced by the last update *)
}

val create :
  ot_mode:Dstress_crypto.Ot_ext.mode ->
  grp:Dstress_crypto.Group.t ->
  seed:string ->
  kp1:int ->
  degree:int ->
  state_bits:int ->
  message_bits:int ->
  vertex:int ->
  members:int array ->
  t
(** State and both mailboxes start as all-zero shares; the GMW session is
    seeded ["gmw:<seed>:block:<vertex>:party:<p>"] per party (via
    {!Dstress_mpc.Gmw.create_session}). *)

val clear_inbox : t -> unit
(** Reset every in-slot to no-op shares (each communication round starts
    from silence; real messages overwrite their slot). *)

val gather_inputs : t -> Dstress_util.Bitvec.t array
(** Per-member concatenation [state @ inbox slots] — the update circuit's
    input shares. *)

val scatter_outputs : t -> Dstress_util.Bitvec.t array -> unit
(** Split the update circuit's output shares back into [state] and
    [outbox]. *)

val derive_prg : seed:string -> string -> Dstress_crypto.Prg.t
(** [derive_prg ~seed purpose] keys an independent SHA-256 PRG stream as
    [seed ^ ":" ^ purpose]. Every consumer of runtime randomness (per-block
    initialization, per-edge transfer, per-event re-sharing, aggregation)
    derives its own stream with a distinct purpose label. *)

val derive_prng : seed:string -> string -> Dstress_util.Prng.t
(** Same derivation for the simulation PRNG (transfer wire noise), seeded
    with {!Dstress_crypto.Prg.seed64} — collision-resistant, unlike the
    [Hashtbl.hash] seeding it replaces. *)

val reshare :
  ?obs:Dstress_obs.Obs.t ->
  prg:Dstress_crypto.Prg.t ->
  kp1:int ->
  ebytes:int ->
  traffic:Dstress_mpc.Traffic.t ->
  src_blocks:int array list ->
  dst_members:int array ->
  Dstress_util.Bitvec.t array list ->
  Dstress_util.Bitvec.t array list
(** Re-share values held as XOR shares in source blocks into a destination
    block: each source member subshares its share and sends one piece to
    each destination member, who XORs everything received (§3.6). Returns
    the destination members' shares, one Bitvec per member per value; the
    wire bytes are charged to [traffic] under global node ids, and counted
    in the [reshare.values] / [reshare.bytes] metrics of [obs] (default:
    the no-op collector). *)
