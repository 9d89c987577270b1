(** The one-time trusted-party setup of §3.4.

    The TP (e.g. the Federal Reserve) does three things and leaves:
    + assigns every node [i] a random block [B_i] of [k+1] nodes including
      [i] (so curious nodes cannot stack their own block with Sybils), plus
      a special aggregation block [B_A], and signs the roster;
    + collects every node's public keys and [degree_bound] *neighbor keys*
      (random exponents chosen by the node);
    + issues, for each node [i], [degree_bound] signed *block certificates*
      [C_(i,j)]: the public keys of [B_i]'s members re-randomized with
      [i]'s [j]-th neighbor key. Node [i] hands each certificate to one
      neighbor; the senders behind that neighbor encrypt to the
      re-randomized keys and can never match them to the members' real
      public keys.

    Crucially, the TP only sees nodes, never edges — the graph topology
    stays unknown to it. *)

type certificate = {
  owner : int;  (** node whose block's keys these are *)
  neighbor_slot : int;  (** which of the owner's D neighbor keys re-randomized them *)
  member_keys : Dstress_crypto.Group.elt array array;
      (** [member_keys.(i).(bit)] for member [i] of the block — (k+1)
          members × L bit positions *)
  signature : Dstress_crypto.Schnorr.signature;
}

type node_state = {
  node : int;
  keys : Keys.t;
  neighbor_keys : Dstress_crypto.Group.exponent array;  (** D entries *)
  block : int array;  (** members of B_node: k+1 node ids, first is node *)
  certificates : certificate array;  (** D certificates for this node's block *)
}

type t = {
  grp : Dstress_crypto.Group.t;
  n : int;
  k : int;
  degree_bound : int;
  bits : int;
  nodes : node_state array;
  agg_block : int array;  (** k+1 node ids *)
  tp_public : Dstress_crypto.Elgamal.public_key;
  roster_signature : Dstress_crypto.Schnorr.signature;
}

val key_teeth : int
(** Teeth of the comb table ({!Dstress_crypto.Group.comb}) built for a
    public key that is raised to many exponents: 5, i.e. 32 entries
    (~1.1 KB at 256 bits) and at most 101 multiplications per 255-bit
    exponent, against ~330 for a generic exponentiation. [run] builds
    one for every member public key (each is raised to the D neighbor
    keys of every block it belongs to) and drops them when it returns;
    {!Protocol.keys} builds one for every key of an installed
    certificate. *)

val run :
  Dstress_crypto.Prg.t ->
  Dstress_crypto.Group.t ->
  n:int ->
  k:int ->
  degree_bound:int ->
  bits:int ->
  t
(** Certificate keys [pk^r] are computed through per-key comb tables
    ({!key_teeth}), built here and dropped on return.
    Raises [Invalid_argument] if [k + 1 > n], [k < 1], [degree_bound < 1]
    or [bits < 1]. *)

val certificate_message :
  Dstress_crypto.Group.t -> owner:int -> neighbor_slot:int ->
  Dstress_crypto.Group.elt array array -> string

val roster_message : n:int -> k:int -> int array array -> int array -> string
(** What σTP signs: a kind byte, 4-byte big-endian ids (owner and slot;
    or n, k and the blocks, [agg_block] last), then a certificate's keys
    padded to [element_bytes]: 9 + (k+1)·L·element_bytes and
    9 + 4·(n+1)·(k+1) bytes. Raise [Invalid_argument] on an id outside
    [\[0, 2^31)] or an over-wide key. *)

val verify_roster : t -> bool
(** Check the TP's signature over [n] blocks of [k+1] members, then the
    aggregation block. The engine checks it once per run, in Setup. *)

val verify_certificate : t -> certificate -> bool
(** Check the TP's signature over a certificate of (k+1)·L keys.
    {!Protocol.keys} checks it before a sender encrypts to its keys. *)

val block_of : t -> int -> int array
(** Members of [B_i]. *)

val setup_traffic_bytes : t -> int
(** Total bytes the setup exchanges (keys up, roster + certificates down) —
    charged once per deployment, reported by the initialization
    microbenchmark. *)
