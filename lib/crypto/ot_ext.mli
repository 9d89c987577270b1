(** IKNP oblivious-transfer extension (Ishai–Kilian–Nissim–Petrank,
    CRYPTO'03), the optimization the paper's GMW implementation relies on
    ("Wysteria's GMW implementation includes oblivious transfer extensions",
    §5.3) to keep MPC traffic low.

    After [kappa = 128] public-key base OTs per party pair (run once per
    session via {!Ot.base_ot}), every further OT costs only symmetric
    operations: roughly [kappa] bits from receiver to sender and two masked
    messages back. This is what makes AND-gate evaluation affordable in the
    GMW engine.

    A {!session} is directional: the party that called {!setup} as [sender]
    supplies message pairs to every subsequent {!extend}; the [receiver]
    supplies choice bits. Sessions are stateful (column PRGs advance), so a
    single session serves any number of OTs.

    {2 Modes}

    [Crypto] runs the construction end to end: ElGamal base OTs, SHA-based
    column PRGs and row hashes. [Simulation] is the ideal OT functionality:
    the receiver gets its chosen messages directly, and a session holds
    only the OT counter. It still charges every byte [Crypto] would move,
    setup included, and its setup advances both parties' PRG streams past
    the key material the [Crypto] setup draws outside its base OTs. The
    mode exists so that paper-scale runs (millions of AND-gate OTs, all
    parties simulated on one machine) finish in minutes; unit tests check
    that both modes return the chosen messages and meter the same bytes. *)

val kappa : int
(** Computational security parameter (128). *)

type mode = Crypto | Simulation

type session

val setup :
  ?mode:mode -> Group.t -> Xfer.t -> sender_prg:Prg.t -> receiver_prg:Prg.t -> session
(** Runs the [kappa] base OTs (with reversed roles, per IKNP), all
    against one common point ({!Ot.random_point}) derived once per call,
    and installs the column PRGs. In [Simulation] it draws nothing: it moves
    [sender_prg] forward by [kappa] bytes and [receiver_prg] by
    [2 * kappa * 16] bytes, and meters the base-OT bytes. Default mode is
    [Crypto]. *)

val extend :
  session -> Xfer.t -> pairs:(bytes * bytes) array -> choices:bool array -> bytes array
(** [extend s meter ~pairs ~choices] performs [Array.length pairs] OTs and
    returns the receiver's outputs. All messages must share one length;
    [pairs] and [choices] must have equal lengths.
    Raises [Invalid_argument] otherwise. *)

val extend_bits :
  session -> Xfer.t -> pairs:(bool * bool) array -> choices:bool array -> bool array
(** Bit-message fast path used by the GMW AND gates: messages are single
    bits and the wire format packs them, so the metered traffic is
    [kappa/8] bytes per OT plus two packed bit vectors. *)

val extend_words :
  session ->
  Xfer.t ->
  width:int ->
  pairs:(int64 * int64) array ->
  choices:int64 array ->
  int64 array
(** Bitsliced bit-OT batch: entry [g] of [pairs] and [choices] packs the
    same logical OT for [width <= 64] independent protocol instances, one
    per bit lane (lane [l] = bit [l] of each word); the result packs the
    receiver outputs the same way, with lanes at and above [width] zero.
    A call performs [width * Array.length pairs] OTs: the lanes are
    unpacked and run through {!extend_bits} as one batch, so it meters
    exactly the bytes {!extend_bits} moves for that many OTs. (The GMW
    evaluator calls it only in [Crypto] mode; in [Simulation] mode it
    computes the ideal OT's output inline.) Raises [Invalid_argument] on
    length mismatch or [width] outside [1, 64]. *)

val ots_performed : session -> int
(** Total OTs served so far (diagnostics). *)
