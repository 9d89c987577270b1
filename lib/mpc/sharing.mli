(** XOR secret sharing of bit vectors.

    DStress keeps every vertex state and every message XOR-shared across
    the k+1 members of a block (§3.3): the secret is the XOR of all
    shares, so any k shares are uniformly random and reveal nothing. *)

val share : Dstress_crypto.Prg.t -> parties:int -> Dstress_util.Bitvec.t -> Dstress_util.Bitvec.t array
(** [share prg ~parties v] draws [parties - 1] uniform vectors and sets the
    last share so the XOR equals [v]. Raises [Invalid_argument] if
    [parties < 1]. *)

val reconstruct : Dstress_util.Bitvec.t array -> Dstress_util.Bitvec.t
(** XOR of all shares. Raises [Invalid_argument] on an empty array. *)

val subshare :
  Dstress_crypto.Prg.t -> parties:int -> Dstress_util.Bitvec.t -> Dstress_util.Bitvec.t array
(** Alias of {!share} with the §3.5 name: each block member re-shares its
    share into subshares, one per member of the receiving block. *)
