module Nat = Dstress_bignum.Nat

type ciphertext = Elgamal.ciphertext = { c1 : Group.elt; c2 : Group.elt }

let keygen = Elgamal.keygen

(* The mod-q encoding of signed plaintexts lives in Group.pow_g_int. *)
let g_to_the grp v = Group.pow_g_int grp v

let encrypt prg grp h v = Elgamal.encrypt prg grp h (g_to_the grp v)

let decrypt_elt = Elgamal.decrypt

(* Keying the table on the number itself (canonical limb array, cheap
   Nat.hash) avoids allocating a hex string per probe on the transfer hot
   path. *)
module Nat_table = Hashtbl.Make (struct
  type t = Nat.t

  let equal = Nat.equal
  let hash = Nat.hash
end)

module Table = struct
  type t = { entries : int Nat_table.t; size : int }

  let make grp ~lo ~hi =
    if hi < lo then invalid_arg "Exp_elgamal.Table.make: hi < lo";
    let entries = Nat_table.create (2 * (hi - lo + 1)) in
    (* Walk the range with one group multiplication per entry instead of a
       full exponentiation each. *)
    let g = Group.g grp in
    let cur = ref (g_to_the grp lo) in
    for v = lo to hi do
      Nat_table.replace entries !cur v;
      cur := Group.mul grp !cur g
    done;
    { entries; size = hi - lo + 1 }

  let lookup t elt = Nat_table.find_opt t.entries elt

  let size t = t.size
end

let decrypt grp x table c = Table.lookup table (decrypt_elt grp x c)

let encrypt_multi prg grp recipients =
  let y = Group.random_exponent prg grp in
  let c1 = Group.pow_g grp y in
  let c2s =
    List.map
      (fun (h, v) -> Group.mul grp (g_to_the grp v) (Group.pow grp h y))
      recipients
  in
  (c1, c2s)

(* A block transfer's worth of multi-recipient bundles in one call.
   Ephemerals are drawn in bundle order — a seeded PRG yields exactly the
   bundles a sequential [encrypt_multi] loop would — and each recipient's
   h^y goes through the comb table its key's owner built once for every
   bundle, attempt and round that addresses the key. *)
let encrypt_multi_batch prg grp bundles =
  let ys = Array.map (fun _ -> Group.random_exponent prg grp) bundles in
  Array.mapi
    (fun bi recipients ->
      let y = ys.(bi) in
      ( Group.pow_g grp y,
        List.map
          (fun (h, v) -> Group.mul grp (g_to_the grp v) (Group.pow_comb grp h y))
          recipients ))
    bundles

(* Batched lookup decryption of ciphertexts sharing one ephemeral part
   (the Kurosawa bundles after adjustment): the blinding factors c1^x come
   from the ephemeral's comb table, and their inverses from one batch
   inversion. *)
let decrypt_shared grp table ~c1 pairs =
  let ss = Array.map (fun (x, _) -> Group.pow_comb grp c1 x) pairs in
  let invs = Group.inv_many grp ss in
  Array.mapi
    (fun i (_, c2) -> Table.lookup table (Group.mul grp c2 invs.(i)))
    pairs

let multi_ciphertext_bytes grp l = (l + 1) * Group.element_bytes grp
