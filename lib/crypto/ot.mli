(** 1-out-of-2 oblivious transfer.

    {!base_ot} is the Bellare–Micali construction over our Schnorr group:
    the receiver publishes a key pair of which it knows only one secret
    (the other is pinned to a common point of unknown discrete log), and
    the sender encrypts each message to the corresponding key with hashed
    ElGamal. Semi-honest secure, matching the paper's HbC threat model.

    Both parties run inside one process; each function takes both sides'
    PRGs and returns the receiver's output while metering the bytes the
    real protocol would exchange ([a] = sender, [b] = receiver in the
    {!Xfer} convention). *)

val random_point : Group.t -> string -> Group.elt
(** Hash-to-group: a nothing-up-my-sleeve subgroup element whose discrete
    log is unknown to everyone (derived by hashing [tag] and squaring).
    Nothing is memoized: a caller running many base OTs derives the point
    once and passes it to each. *)

val base_ot :
  Group.t ->
  Xfer.t ->
  point:Group.elt ->
  sender_prg:Prg.t ->
  receiver_prg:Prg.t ->
  m0:bytes ->
  m1:bytes ->
  choice:bool ->
  bytes
(** [base_ot grp meter ~point ~sender_prg ~receiver_prg ~m0 ~m1 ~choice]
    returns [m_choice]. [point] is the common element of unknown discrete
    log ({!random_point}) that pins the receiver's second public key.
    [m0] and [m1] must have equal length. Raises [Invalid_argument]
    otherwise. *)
