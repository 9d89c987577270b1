module Group = Dstress_crypto.Group
module Prg = Dstress_crypto.Prg
module Schnorr = Dstress_crypto.Schnorr
module Nat = Dstress_bignum.Nat
module Prng = Dstress_util.Prng

type certificate = {
  owner : int;
  neighbor_slot : int;
  member_keys : Group.elt array array;
  signature : Schnorr.signature;
}

type node_state = {
  node : int;
  keys : Keys.t;
  neighbor_keys : Group.exponent array;
  block : int array;
  certificates : certificate array;
}

type t = {
  grp : Group.t;
  n : int;
  k : int;
  degree_bound : int;
  bits : int;
  nodes : node_state array;
  agg_block : int array;
  tp_public : Dstress_crypto.Elgamal.public_key;
  roster_signature : Schnorr.signature;
}

let key_teeth = 5

(* What σTP signs, in fixed-width fields: a kind byte, 4-byte big-endian
   ids in [0, 2^31), then group elements left-padded to [len] bytes. With
   n and k signed and any other shape refused, a message parses one way. *)
let message kind ~ids ~keys ~len =
  let b = Buffer.create 256 in
  Buffer.add_char b kind;
  Array.iter
    (fun v ->
      if v < 0 || v > 0x7fff_ffff then invalid_arg "Setup: id outside [0, 2^31)";
      Buffer.add_int32_be b (Int32.of_int v))
    ids;
  Array.iter (Array.iter (fun key -> Buffer.add_bytes b (Nat.to_bytes_be_padded key ~len))) keys;
  Buffer.contents b

let certificate_message grp ~owner ~neighbor_slot keys =
  message 'C' ~ids:[| owner; neighbor_slot |] ~keys ~len:(Group.element_bytes grp)

let roster_message ~n ~k blocks agg_block =
  message 'R' ~ids:(Array.concat ([| n; k |] :: Array.to_list blocks @ [ agg_block ])) ~keys:[||]
    ~len:0

(* Random block for node i: i itself plus k distinct others, drawn with a
   PRNG derived from the TP's generator. *)
let draw_block prng ~n ~k i =
  let others = Array.make k (-1) in
  let chosen = Hashtbl.create 8 in
  Hashtbl.replace chosen i ();
  let filled = ref 0 in
  while !filled < k do
    let candidate = Prng.int prng n in
    if not (Hashtbl.mem chosen candidate) then begin
      Hashtbl.replace chosen candidate ();
      others.(!filled) <- candidate;
      incr filled
    end
  done;
  Array.append [| i |] others

let run prg grp ~n ~k ~degree_bound ~bits =
  if k < 1 then invalid_arg "Setup.run: k < 1";
  if k + 1 > n then invalid_arg "Setup.run: block size exceeds node count";
  if degree_bound < 1 then invalid_arg "Setup.run: degree_bound < 1";
  if bits < 1 then invalid_arg "Setup.run: bits < 1";
  let ((_, tp_public) as tp) = Schnorr.keygen prg grp in
  (* Node-side material: keys and neighbor keys are chosen by the nodes
     themselves; the TP only relays public parts. *)
  let node_keys = Array.init n (fun node -> Keys.generate prg grp ~node ~bits) in
  let neighbor_keys =
    Array.init n (fun _ -> Array.init degree_bound (fun _ -> Group.random_exponent prg grp))
  in
  (* TP draws blocks from non-cryptographic randomness (public anyway). *)
  let block_prng = Prng.create 0x7A0BEEFL in
  let blocks = Array.init n (fun i -> draw_block block_prng ~n ~k i) in
  let agg_block = Array.of_list (Prng.sample_without_replacement block_prng (k + 1) n) in
  let roster_signature = Schnorr.sign prg grp tp (roster_message ~n ~k blocks agg_block) in
  (* Every member public key is raised to the neighbor keys of each block
     it sits in, D per block: one comb table per key, held for the
     certificates below and dropped with them. *)
  let key_combs =
    Array.map (fun keys -> Array.map (Group.comb grp ~teeth:key_teeth) keys.Keys.publics)
      node_keys
  in
  let make_certificate i slot =
    let r = neighbor_keys.(i).(slot) in
    let keys =
      Array.map
        (fun member -> Array.map (fun c -> Group.pow_comb grp c r) key_combs.(member))
        blocks.(i)
    in
    {
      owner = i;
      neighbor_slot = slot;
      member_keys = keys;
      signature =
        Schnorr.sign prg grp tp (certificate_message grp ~owner:i ~neighbor_slot:slot keys);
    }
  in
  let nodes =
    Array.init n (fun i ->
        {
          node = i;
          keys = node_keys.(i);
          neighbor_keys = neighbor_keys.(i);
          block = blocks.(i);
          certificates = Array.init degree_bound (make_certificate i);
        })
  in
  { grp; n; k; degree_bound; bits; nodes; agg_block; tp_public; roster_signature }

(* A message with an id or a key out of range has no encoding: unsigned. *)
let verify t message signature =
  match message () with
  | msg -> Schnorr.verify t.grp t.tp_public msg signature
  | exception Invalid_argument _ -> false

let verify_roster t =
  let blocks = Array.map (fun ns -> ns.block) t.nodes in
  Array.length blocks = t.n
  && Array.for_all (fun b -> Array.length b = t.k + 1) blocks
  && verify t (fun () -> roster_message ~n:t.n ~k:t.k blocks t.agg_block) t.roster_signature

let verify_certificate t c =
  Array.length c.member_keys = t.k + 1
  && Array.for_all (fun keys -> Array.length keys = t.bits) c.member_keys
  && verify t
       (fun () ->
         certificate_message t.grp ~owner:c.owner ~neighbor_slot:c.neighbor_slot c.member_keys)
       c.signature

let block_of t i = t.nodes.(i).block

let member_index t ~block_owner ~node =
  let block = t.nodes.(block_owner).block in
  let rec find i =
    if i >= Array.length block then raise Not_found
    else if block.(i) = node then i
    else find (i + 1)
  in
  find 0

let setup_traffic_bytes t =
  let ebytes = Group.element_bytes t.grp in
  let exp_bytes = (Nat.num_bits (Group.q t.grp) + 7) / 8 in
  let sig_bytes = Schnorr.signature_bytes t.grp in
  (* Up: each node sends L public keys + D neighbor keys.
     Down: the signed roster (block ids) + D certificates per node, each
     holding (k+1)*L re-randomized keys and a signature. *)
  let up = t.n * ((t.bits * ebytes) + (t.degree_bound * exp_bytes)) in
  let roster = (t.n * (t.k + 1) * 4) + sig_bytes in
  let certs = t.n * t.degree_bound * (((t.k + 1) * t.bits * ebytes) + sig_bytes) in
  up + roster + certs
