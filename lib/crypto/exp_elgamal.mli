(** Exponential ElGamal (Cramer–Gennaro–Schoenmakers encoding): the message
    [v] is carried in the exponent as [g^v], which turns ElGamal's
    multiplicative homomorphism into the *additive* homomorphism the
    DStress transfer protocol needs — the product of two ciphertexts
    decrypts to the sum of the plaintexts.

    Decryption recovers [g^v] and must then solve a small discrete log; as
    in the paper, this is done with a precomputed lookup {!Table} covering
    the (bounded) range of valid plaintexts, and failing — with the failure
    probability analyzed in Appendix B of the paper — when geometric noise
    pushes a value outside the table.

    The two "unusual properties" of §3 are one {!Group.pow} each and live
    in [Dstress_transfer.Protocol]: raising a public key to a neighbor key
    [r], and raising the ephemeral part of a ciphertext to the same [r] so
    the original secret key decrypts it again; homomorphic addition is
    {!Elgamal.mul}. This module adds the Kurosawa multi-recipient
    optimization (§5.1) that reuses one ephemeral key across the [L]
    bit-ciphertexts of a share. *)

type ciphertext = Elgamal.ciphertext = { c1 : Group.elt; c2 : Group.elt }

val keygen : Prg.t -> Group.t -> Elgamal.secret_key * Elgamal.public_key

val encrypt : Prg.t -> Group.t -> Elgamal.public_key -> int -> ciphertext
(** [encrypt prg grp h v] encrypts integer [v] (negative allowed; encoded
    mod q) as [(g^y, g^v * h^y)]. *)

(** Bounded discrete-log lookup table, the paper's decryption mechanism. *)
module Table : sig
  type t

  val make : Group.t -> lo:int -> hi:int -> t
  (** Precomputes [g^v] for all [v] in [\[lo, hi\]]. O(hi - lo) group
      operations, built incrementally (one multiplication per entry). *)

  val lookup : t -> Group.elt -> int option
  val size : t -> int
end

val decrypt : Group.t -> Elgamal.secret_key -> Table.t -> ciphertext -> int option
(** [None] is a decryption failure (plaintext outside the table) — the
    [P_fail] event of Appendix B. *)

(** Multi-recipient encryption with a shared ephemeral key (Kurosawa). *)
val encrypt_multi :
  Prg.t -> Group.t -> (Elgamal.public_key * int) list -> Group.elt * Group.elt list
(** [encrypt_multi prg grp [(h_1,v_1); ...]] returns [(g^y, [c2_1; ...])]
    where [c2_i = g^(v_i) * h_i^y]. The ciphertext of recipient [i] is
    [(g^y, c2_i)]; one group element is shared by all recipients, saving
    both exponentiations and bandwidth. *)

val encrypt_multi_batch :
  Prg.t -> Group.t -> (Group.comb * int) list array -> (Group.elt * Group.elt list) array
(** A whole block transfer's bundles through one call, each recipient
    named by the comb table ({!Group.comb}) of its public key [h].
    Ephemerals are drawn in bundle order, so with the same PRG state the
    result is bit-identical to a sequential {!encrypt_multi} loop over
    the keys; each [h^y] costs one {!Group.pow_comb}. *)

val decrypt_shared :
  Group.t ->
  Table.t ->
  c1:Group.comb ->
  (Elgamal.secret_key * Group.elt) array ->
  int option array
(** Batched {!decrypt} of ciphertexts [(c1, c2_i)] sharing one (already
    adjusted) ephemeral part, given [c1]'s comb table: the [c1^x_i]
    blindings are one {!Group.pow_comb} each and the inverses one batch
    inversion. The same table serves every recipient of the bundle. *)

val multi_ciphertext_bytes : Group.t -> int -> int
(** [multi_ciphertext_bytes grp l]: wire size of [l] messages sent with the
    shared-ephemeral optimization ([l + 1] group elements). *)
