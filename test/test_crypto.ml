open Dstress_crypto
module Nat = Dstress_bignum.Nat

let grp = Group.by_name "toy"
let prg tag = Prg.of_string ("test-crypto:" ^ tag)

(* ------------------------------------------------------------------ *)
(* SHA-256                                                             *)
(* ------------------------------------------------------------------ *)

(* Known answers are written in hex; compare digests as bytes. *)
let check_sha256 name msg expected =
  Alcotest.(check bytes) name (Dstress_util.Hex.decode expected)
    (Sha256.digest (Bytes.of_string msg))

let test_sha256_fips_vectors () =
  let check msg expected = check_sha256 ("sha256 of " ^ String.escaped msg) msg expected in
  check "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"

let test_sha256_block_boundaries () =
  (* Known answers (Python's hashlib) for lengths on each side of the
     55/56-byte one-block padding limit and the 64-byte block edge, over
     the byte pattern [i mod 251]. *)
  let pattern n = String.init n (fun i -> Char.chr (i mod 251)) in
  List.iter
    (fun (n, expected) -> check_sha256 (Printf.sprintf "%d bytes" n) (pattern n) expected)
    [
      (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
      (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
      (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
      (57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f");
      (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
      (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
      (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
      (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
      (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
      (121, "335a461692b30bba1d647cc71604e88e676c90e4c22455d0b8c83f4bd7c8ac9b");
      (127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976");
      (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
      (1000, "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d");
    ]

let test_sha256_million_a () =
  check_sha256 "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

(* ------------------------------------------------------------------ *)
(* Prg                                                                 *)
(* ------------------------------------------------------------------ *)

let test_prg_deterministic () =
  let a = prg "det" and b = prg "det" in
  Alcotest.(check bytes) "same stream" (Prg.bytes a 100) (Prg.bytes b 100)

let test_prg_known_prefix () =
  (* SHA-256 in counter mode: block i = SHA-256(key || i as 8 LE bytes). *)
  Alcotest.(check bytes) "100-byte prefix"
    (Dstress_util.Hex.decode
       ("0ed48f4f442a717c44fe32fb20c342dfd3d17544eddf917676ea455b69d8abad"
      ^ "89955ffdfd8d4667f2c37e48ec1d12e5faa58e990270833b7fc9663c06dea926"
      ^ "dbdbb48a246c051746c8c849b4d4c036ffcaa7471a027db910e385a9276d404f"
      ^ "f7b55357"))
    (Prg.bytes (prg "kat") 100)

let test_prg_distinct_keys () =
  let a = prg "k1" and b = prg "k2" in
  Alcotest.(check bool) "different" false (Bytes.equal (Prg.bytes a 32) (Prg.bytes b 32))

let test_prg_nat_below () =
  let t = prg "below" in
  let bound = Nat.of_decimal "1000000000000" in
  for _ = 1 to 200 do
    Alcotest.(check bool) "in range" true (Nat.compare (Prg.nat_below t bound) bound < 0)
  done

let test_prg_bits_length () =
  let t = prg "bits" in
  Alcotest.(check int) "length" 13 (Dstress_util.Bitvec.length (Prg.bits t 13))

(* [skip t n] must leave the stream exactly where [bytes t n] does, from
   any position inside or at the edge of the buffered block. *)
let test_prg_skip () =
  List.iter
    (fun pre ->
      List.iter
        (fun n ->
          let skipped = prg "skip" and drawn = prg "skip" in
          ignore (Prg.bytes skipped pre);
          ignore (Prg.bytes drawn pre);
          Prg.skip skipped n;
          ignore (Prg.bytes drawn n);
          Alcotest.(check bytes)
            (Printf.sprintf "offset %d, skip %d" pre n)
            (Prg.bytes drawn 100) (Prg.bytes skipped 100))
        [ 0; 1; 27; 28; 32; 33; 128; 4096 ])
    [ 0; 5; 31; 32 ];
  Alcotest.check_raises "negative" (Invalid_argument "Prg.skip: negative length") (fun () ->
      Prg.skip (prg "skip") (-1))

(* [prefetch] only computes ahead: a PRG that prefetches at any points of
   any sequence of draws and skips yields exactly what a PRG with the same
   key yields for the same sequence without them. *)
type prg_op =
  | Draw_bytes of int
  | Draw_blit of int * int (* length, offset into a larger buffer *)
  | Draw_bits of int
  | Draw_bool
  | Skip of int
  | Nat_below of int * int (* bound = k lsl shift *)
  | Prefetch of int

let prop_prg_prefetch =
  let open QCheck2.Gen in
  (* Lengths inside one 32-byte block, across a few and across many. *)
  let len = oneof [ int_range 0 40; int_range 0 300; int_range 0 5000 ] in
  let op =
    oneof
      [
        map (fun n -> Draw_bytes n) len;
        map2 (fun n off -> Draw_blit (n, off)) len (int_range 0 40);
        map (fun n -> Draw_bits n) len;
        pure Draw_bool;
        map (fun n -> Skip n) len;
        map2 (fun k shift -> Nat_below (k, shift)) (int_range 1 1000) (int_range 0 200);
        map (fun n -> Prefetch n) len;
      ]
  in
  QCheck2.Test.make ~name:"prefetch keeps the stream" ~count:200 (list_size (int_range 0 30) op)
    (fun ops ->
      let run ~prefetch =
        let t = prg "prefetch" in
        let out =
          List.filter_map
            (function
              | Draw_bytes n -> Some (Bytes.to_string (Prg.bytes t n))
              | Draw_blit (n, off) ->
                  let buf = Bytes.make (off + n + 7) '.' in
                  Prg.blit t buf off n;
                  Some (Bytes.to_string buf)
              | Draw_bits n ->
                  Some
                    (String.concat ""
                       (Array.to_list
                          (Array.map
                             (fun b -> if b then "1" else "0")
                             (Dstress_util.Bitvec.to_bool_array (Prg.bits t n)))))
              | Draw_bool -> Some (string_of_bool (Prg.bool t))
              | Skip n ->
                  Prg.skip t n;
                  None
              | Nat_below (k, shift) ->
                  Some (Nat.to_decimal (Prg.nat_below t (Nat.shift_left (Nat.of_int k) shift)))
              | Prefetch n ->
                  if prefetch then Prg.prefetch t n;
                  None)
            ops
        in
        out @ [ Bytes.to_string (Prg.bytes t 100) ]
      in
      run ~prefetch:true = run ~prefetch:false)

let test_prg_prefetch_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Prg.prefetch: negative length") (fun () ->
      Prg.prefetch (prg "prefetch") (-1))

let test_prg_bool_balanced () =
  let t = prg "bool" in
  let ones = ref 0 in
  for _ = 1 to 4000 do
    if Prg.bool t then incr ones
  done;
  Alcotest.(check bool) "balanced" true (!ones > 1700 && !ones < 2300)

(* ------------------------------------------------------------------ *)
(* Group                                                               *)
(* ------------------------------------------------------------------ *)

let test_group_generator_order () =
  Alcotest.(check bool) "g^q = 1" true
    (Nat.is_one (Group.pow grp (Group.g grp) (Group.q grp)));
  Alcotest.(check bool) "g is element" true (Group.is_element grp (Group.g grp))

let test_group_safe_prime () =
  let p = Group.p grp and q = Group.q grp in
  Alcotest.(check bool) "p = 2q+1" true
    (Nat.equal p (Nat.add (Nat.mul Nat.two q) Nat.one))

(* Group.make checks p = 2q + 1 and g^q = 1, which a composite q passes
   (4^q = 2^(p-1) = 1 for prime p), so the constants' primality is checked
   here. Two Miller-Rabin rounds keep ffdhe3072 well under a second. *)
let test_group_primes () =
  let prng = Dstress_util.Prng.of_int 2 in
  List.iter
    (fun name ->
      let g = Group.by_name name in
      let prime n = Nat.is_probable_prime ~rounds:2 prng n in
      Alcotest.(check bool) (name ^ " p prime") true (prime (Group.p g));
      Alcotest.(check bool) (name ^ " q prime") true (prime (Group.q g)))
    Group.names

let test_group_all_sizes () =
  List.iter
    (fun name ->
      let g = Group.by_name name in
      Alcotest.(check bool)
        (name ^ " generator ok")
        true
        (Group.is_element g (Group.g g)))
    [ "toy"; "medium"; "standard" ]

let test_group_unknown_name () =
  (* The error message is generated from Group.names, so it tracks the
     registry automatically. *)
  Alcotest.check_raises "unknown"
    (Invalid_argument
       (Printf.sprintf "Group.by_name: unknown group nope (expected one of: %s)"
          (String.concat ", " Group.names)))
    (fun () -> ignore (Group.by_name "nope"))

let test_group_pow_g_matches_pow () =
  let t = prg "powg" in
  for _ = 1 to 20 do
    let e = Group.random_exponent t grp in
    Alcotest.(check bool) "pow_g = pow g" true
      (Nat.equal (Group.pow_g grp e) (Group.pow grp (Group.g grp) e))
  done

let test_group_inverse () =
  let t = prg "inv" in
  for _ = 1 to 20 do
    let e = Group.random_exponent t grp in
    let x = Group.pow_g grp e in
    Alcotest.(check bool) "x * x^-1 = 1" true
      (Nat.is_one (Group.mul grp x (Group.inv grp x)))
  done

let test_group_exp_arith () =
  let q = Group.q grp in
  let a = Nat.sub q Nat.one in
  Alcotest.(check bool) "exp_sub wraps" true
    (Nat.equal (Group.exp_sub grp Nat.zero Nat.one) a);
  (* (q - 1)^2 = q(q - 2) + 1 *)
  Alcotest.(check bool) "exp_mul wraps" true (Nat.is_one (Group.exp_mul grp a a))

let test_group_make_rejects_bad () =
  Alcotest.(check bool) "bad p rejected" true
    (try
       ignore (Group.make ~p:(Nat.of_int 15) ~q:(Nat.of_int 5) ~g:(Nat.of_int 2));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* ElGamal                                                             *)
(* ------------------------------------------------------------------ *)

let test_elgamal_roundtrip () =
  let t = prg "eg" in
  let sk, pk = Elgamal.keygen t grp in
  for _ = 1 to 20 do
    let m = Group.pow_g grp (Group.random_exponent t grp) in
    let c = Elgamal.encrypt t grp pk m in
    Alcotest.(check bool) "roundtrip" true (Nat.equal m (Elgamal.decrypt grp sk c))
  done

let test_elgamal_homomorphism () =
  let t = prg "eg-hom" in
  let sk, pk = Elgamal.keygen t grp in
  let m1 = Group.pow_g grp (Group.random_exponent t grp) in
  let m2 = Group.pow_g grp (Group.random_exponent t grp) in
  let c = Elgamal.mul grp (Elgamal.encrypt t grp pk m1) (Elgamal.encrypt t grp pk m2) in
  Alcotest.(check bool) "product" true
    (Nat.equal (Group.mul grp m1 m2) (Elgamal.decrypt grp sk c))

let test_elgamal_wrong_key () =
  let t = prg "eg-wrong" in
  let _, pk = Elgamal.keygen t grp in
  let sk', _ = Elgamal.keygen t grp in
  let m = Group.pow_g grp (Group.random_exponent t grp) in
  let c = Elgamal.encrypt t grp pk m in
  Alcotest.(check bool) "wrong key garbles" false
    (Nat.equal m (Elgamal.decrypt grp sk' c))

(* ------------------------------------------------------------------ *)
(* Exponential ElGamal                                                 *)
(* ------------------------------------------------------------------ *)

let table = Exp_elgamal.Table.make grp ~lo:(-1000) ~hi:1000

let test_exp_elgamal_roundtrip () =
  let t = prg "xeg" in
  let sk, pk = Exp_elgamal.keygen t grp in
  List.iter
    (fun v ->
      let c = Exp_elgamal.encrypt t grp pk v in
      Alcotest.(check (option int)) "roundtrip" (Some v)
        (Exp_elgamal.decrypt grp sk table c))
    [ 0; 1; -1; 42; -999; 1000; 500 ]

let test_exp_elgamal_additive () =
  let t = prg "xeg-add" in
  let sk, pk = Exp_elgamal.keygen t grp in
  for _ = 1 to 20 do
    let a = Prg.bool t |> fun b -> if b then 17 else -55 in
    let b = 23 in
    let c =
      Elgamal.mul grp (Exp_elgamal.encrypt t grp pk a) (Exp_elgamal.encrypt t grp pk b)
    in
    Alcotest.(check (option int)) "sum" (Some (a + b)) (Exp_elgamal.decrypt grp sk table c)
  done

let test_exp_elgamal_out_of_table () =
  let t = prg "xeg-oob" in
  let sk, pk = Exp_elgamal.keygen t grp in
  let c = Exp_elgamal.encrypt t grp pk 5000 in
  Alcotest.(check (option int)) "decryption failure" None
    (Exp_elgamal.decrypt grp sk table c)

(* §3's two properties: a public key raised to a neighbor key [r], and a
   ciphertext whose ephemeral part is raised to the same [r]. *)
let adjust (c : Exp_elgamal.ciphertext) r = { c with c1 = Group.pow grp c.c1 r }

let test_exp_elgamal_rerandomized_key () =
  let t = prg "xeg-rr" in
  let sk, pk = Exp_elgamal.keygen t grp in
  let r = Group.random_exponent t grp in
  let pk_r = Group.pow grp pk r in
  Alcotest.(check bool) "key changed" false (Nat.equal pk pk_r);
  let c = Exp_elgamal.encrypt t grp pk_r 77 in
  (* Without adjustment the original key fails... *)
  Alcotest.(check bool) "unadjusted fails" true
    (Exp_elgamal.decrypt grp sk table c <> Some 77
    || Nat.is_one r);
  (* ...and with adjustment it succeeds. *)
  let c' = adjust c r in
  Alcotest.(check (option int)) "adjusted decrypts" (Some 77)
    (Exp_elgamal.decrypt grp sk table c')

let test_exp_elgamal_homomorphism_after_adjust () =
  (* Sums of adjusted ciphertexts decrypt correctly: the exact pattern of
     the transfer protocol (aggregate then adjust via i's neighbor key). *)
  let t = prg "xeg-agg" in
  let sk, pk = Exp_elgamal.keygen t grp in
  let r = Group.random_exponent t grp in
  let pk_r = Group.pow grp pk r in
  let cs = List.map (fun v -> Exp_elgamal.encrypt t grp pk_r v) [ 3; 9; -5 ] in
  let sum = List.fold_left (Elgamal.mul grp) (List.hd cs) (List.tl cs) in
  let adjusted = adjust sum r in
  Alcotest.(check (option int)) "sum decrypts" (Some 7)
    (Exp_elgamal.decrypt grp sk table adjusted)

let test_exp_elgamal_multi_recipient () =
  let t = prg "xeg-multi" in
  let keys = List.init 5 (fun _ -> Exp_elgamal.keygen t grp) in
  let values = [ 1; -2; 30; 0; 999 ] in
  let recipients = List.map2 (fun (_, pk) v -> (pk, v)) keys values in
  let c1, c2s = Exp_elgamal.encrypt_multi t grp recipients in
  List.iteri
    (fun i c2 ->
      let sk, _ = List.nth keys i in
      let expected = List.nth values i in
      Alcotest.(check (option int)) "multi decrypt" (Some expected)
        (Exp_elgamal.decrypt grp sk table { Exp_elgamal.c1; c2 }))
    c2s

let test_exp_elgamal_multi_bandwidth () =
  Alcotest.(check bool) "multi saves bandwidth" true
    (Exp_elgamal.multi_ciphertext_bytes grp 12
    < 12 * 2 * Group.element_bytes grp)

(* ------------------------------------------------------------------ *)
(* Comb tables on every named group                                    *)
(* ------------------------------------------------------------------ *)

(* The ffdhe groups take the real 2048/3072-bit kernel; every teeth count
   still runs there, on the widest exponents only. *)
let is_ffdhe name = String.length name >= 5 && String.sub name 0 5 = "ffdhe"

let test_comb_every_group () =
  List.iter
    (fun name ->
      let g = Group.by_name name in
      let t = prg ("comb:" ^ name) in
      let b = Group.pow_g g (Group.random_exponent t g) in
      let q = Group.q g in
      let ebits = Nat.num_bits q in
      let exps =
        (if is_ffdhe name then [] else [ Nat.zero; Nat.one; Group.random_exponent t g ])
        @ [ Nat.sub q Nat.one; Nat.sub (Nat.shift_left Nat.one ebits) Nat.one ]
      in
      let expected =
        List.map
          (fun e ->
            let v = Group.pow g b e in
            Alcotest.(check bool)
              (name ^ " pow = mod_pow") true
              (Nat.equal v (Nat.mod_pow ~base:b ~exp:e ~m:(Group.p g)));
            v)
          exps
      in
      for teeth = 1 to 9 do
        let c = Group.comb g ~teeth b in
        List.iter2
          (fun e v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s, %d teeth, %d-bit exponent" name teeth (Nat.num_bits e))
              true
              (Nat.equal v (Group.pow_comb g c e)))
          exps expected
      done)
    Group.names

let test_comb_contract_in_group () =
  let std = Group.by_name "standard" in
  let c = Group.comb grp ~teeth:5 (Group.g grp) in
  Alcotest.check_raises "comb of another group"
    (Invalid_argument "Nat.Mont.pow_comb: comb of another context") (fun () ->
      ignore (Group.pow_comb std c Nat.one));
  Alcotest.check_raises "exponent wider than q"
    (Invalid_argument "Nat.Mont.pow_comb: exponent wider than the comb") (fun () ->
      ignore (Group.pow_comb grp c (Nat.shift_left Nat.one (Nat.num_bits (Group.q grp)))));
  Alcotest.check_raises "pow_g wider than q"
    (Invalid_argument "Nat.Mont.pow_comb: exponent wider than the comb") (fun () ->
      ignore (Group.pow_g grp (Nat.shift_left Nat.one (Nat.num_bits (Group.q grp)))))

(* The generator's comb does no more multiplications than a 4-bit (5-bit
   from 1024 bits) fixed-window table, conversion out of Montgomery form
   included, at every named group; small signed plaintexts cost about two
   multiplications per bit. *)
let test_pow_g_multiplications () =
  List.iter
    (fun name ->
      let g = Group.by_name name in
      let t = prg ("powg-count:" ^ name) in
      let ebits = Nat.num_bits (Group.q g) in
      let w = if ebits >= 1024 then 5 else 4 in
      let window = ((ebits + w - 1) / w) + 1 in
      let counted f =
        let c0 = Nat.Mont.muls () in
        let r = f () in
        (r, Nat.Mont.muls () - c0)
      in
      List.iter
        (fun e ->
          let v, n = counted (fun () -> Group.pow_g g e) in
          Alcotest.(check bool) (name ^ " pow_g value") true (Nat.equal v (Group.pow g (Group.g g) e));
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d multiplications <= %d" name n window)
            true (n <= window))
        [ Nat.sub (Group.q g) Nat.one; Group.random_exponent t g ];
      List.iter
        (fun v ->
          let r, n = counted (fun () -> Group.pow_g_int g v) in
          let e =
            if v >= 0 then Nat.of_int v else Nat.sub (Group.q g) (Nat.of_int (-v))
          in
          Alcotest.(check bool) (Printf.sprintf "%s g^%d" name v) true
            (Nat.equal r (Group.pow g (Group.g g) e));
          let bits = Nat.num_bits (Nat.of_int (abs v)) in
          Alcotest.(check bool)
            (Printf.sprintf "%s g^%d: %d multiplications" name v n)
            true
            (n <= (2 * bits) + 1))
        [ 0; 1; -1; 2; -2; 37; -37; 1000; -1000 ])
    Group.names

(* ------------------------------------------------------------------ *)
(* Batch entry points vs their scalar loops                            *)
(* ------------------------------------------------------------------ *)

(* The batch paths promise draw-for-draw identity with the scalar loops
   they replace, on every registered group — the ffdhe groups take the
   real 2048/3072-bit kernel paths, so keep their batch sizes small. *)
let small_batch name = if is_ffdhe name then 3 else 8

let test_decrypt_shared_matches_scalar () =
  (* Shared-c1 lookup decryption: one bundle to many recipients, each
     recipient decrypted scalar vs the batched shared path. *)
  List.iter
    (fun name ->
      let g = Group.by_name name in
      let t = prg ("ds:" ^ name) in
      let tbl = Exp_elgamal.Table.make g ~lo:(-50) ~hi:50 in
      let n = small_batch name in
      let keys = List.init n (fun _ -> Exp_elgamal.keygen t g) in
      let values = List.init n (fun i -> (i * 7) - 20) in
      let recipients = List.map2 (fun (_, pk) v -> (pk, v)) keys values in
      let c1, c2s = Exp_elgamal.encrypt_multi t g recipients in
      let pairs =
        Array.of_list (List.map2 (fun (sk, _) c2 -> (sk, c2)) keys c2s)
      in
      let got = Exp_elgamal.decrypt_shared g tbl ~c1:(Group.comb g ~teeth:8 c1) pairs in
      List.iteri
        (fun i v ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s shared %d" name i)
            (Some v) got.(i);
          let sk, _ = List.nth keys i in
          Alcotest.(check (option int))
            (Printf.sprintf "%s scalar agrees %d" name i)
            (Exp_elgamal.decrypt g sk tbl
               { Exp_elgamal.c1; c2 = List.nth c2s i })
            got.(i))
        values)
    Group.names

let test_encrypt_multi_batch_matches_sequential () =
  (* Same seed, bundle order: the batched multi-recipient encryption must
     reproduce the sequential encrypt_multi loop draw for draw — keys
     repeat across bundles, so one comb table serves several bundles. *)
  let t = prg "emb-setup" in
  let keys = Array.init 4 (fun _ -> Exp_elgamal.keygen t grp) in
  let combs = Array.map (fun (_, pk) -> Group.comb grp ~teeth:5 pk) keys in
  let specs =
    [|
      [ (0, 3); (1, -4); (2, 10) ];
      [ (1, 7) ];
      [ (3, 0); (0, 5); (1, 2); (2, -9) ];
      [];
      [ (2, 1); (2, 1) ];
    |]
  in
  let sequential =
    let s = prg "emb-draws" in
    Array.map
      (fun spec ->
        Exp_elgamal.encrypt_multi s grp (List.map (fun (k, v) -> (snd keys.(k), v)) spec))
      specs
  in
  let batched =
    let s = prg "emb-draws" in
    Exp_elgamal.encrypt_multi_batch s grp
      (Array.map (List.map (fun (k, v) -> (combs.(k), v))) specs)
  in
  Array.iteri
    (fun i (c1, c2s) ->
      let c1', c2s' = sequential.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "bundle %d c1" i)
        true
        (Nat.equal c1 c1');
      List.iteri
        (fun j c2 ->
          Alcotest.(check bool)
            (Printf.sprintf "bundle %d c2 %d" i j)
            true
            (Nat.equal c2 (List.nth c2s' j)))
        c2s)
    batched

let test_schnorr_named_groups () =
  (* Sign and verify (fixed-base g^s times a generic pk^c) on every
     registered group, including the RFC 7919 ones. *)
  List.iter
    (fun name ->
      let g = Group.by_name name in
      let t = prg ("schnorr:" ^ name) in
      let ((_, pk) as tp) = Schnorr.keygen t g in
      let s = Schnorr.sign t g tp ("roster:" ^ name) in
      Alcotest.(check bool) (name ^ " verifies") true
        (Schnorr.verify g pk ("roster:" ^ name) s);
      Alcotest.(check bool) (name ^ " rejects") false
        (Schnorr.verify g pk "other" s))
    Group.names

let test_table_size () =
  Alcotest.(check int) "size" 2001 (Exp_elgamal.Table.size table)

let test_table_lookup_hit_and_miss () =
  (* The Nat-keyed table must resolve exactly g^v for v in range and
     nothing else. *)
  List.iter
    (fun v ->
      let elt = Group.pow_g grp (Nat.of_int v) in
      Alcotest.(check (option int)) (Printf.sprintf "hit %d" v) (Some v)
        (Exp_elgamal.Table.lookup table elt))
    [ 0; 1; 42; 999; 1000 ];
  let outside = Group.pow_g grp (Nat.of_int 1001) in
  Alcotest.(check (option int)) "miss" None (Exp_elgamal.Table.lookup table outside)

(* ------------------------------------------------------------------ *)
(* Base OT                                                             *)
(* ------------------------------------------------------------------ *)

(* The common point every base OT of one setup shares. *)
let point = Ot.random_point grp "test-base-ot"

let test_base_ot_all_cases () =
  let t = prg "ot" in
  let enc b = Bytes.make 1 (if b then '\x01' else '\x00') in
  List.iter
    (fun (b0, b1, choice) ->
      let meter = Xfer.create () in
      let got =
        Ot.base_ot grp meter ~point ~sender_prg:t ~receiver_prg:t ~m0:(enc b0) ~m1:(enc b1)
          ~choice
      in
      Alcotest.(check bytes) "selected" (enc (if choice then b1 else b0)) got)
    [
      (false, false, false); (false, false, true);
      (false, true, false); (false, true, true);
      (true, false, false); (true, false, true);
      (true, true, false); (true, true, true);
    ]

let test_base_ot_bytes () =
  let t = prg "ot-bytes" in
  for _ = 1 to 10 do
    let m0 = Prg.bytes t 16 and m1 = Prg.bytes t 16 in
    let choice = Prg.bool t in
    let meter = Xfer.create () in
    let got = Ot.base_ot grp meter ~point ~sender_prg:t ~receiver_prg:t ~m0 ~m1 ~choice in
    Alcotest.(check bytes) "chosen message" (if choice then m1 else m0) got;
    Alcotest.(check bool) "traffic metered" true (Xfer.total meter > 0)
  done

let test_base_ot_length_mismatch () =
  let t = prg "ot-len" in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Ot.base_ot: message length mismatch") (fun () ->
      ignore
        (Ot.base_ot grp (Xfer.create ()) ~point ~sender_prg:t ~receiver_prg:t
           ~m0:(Bytes.create 4) ~m1:(Bytes.create 5) ~choice:false))

let test_random_point_is_element () =
  let c = Ot.random_point grp "tag-a" in
  Alcotest.(check bool) "in subgroup" true (Group.is_element grp c);
  let c' = Ot.random_point grp "tag-b" in
  Alcotest.(check bool) "tag-dependent" false (Nat.equal c c');
  Alcotest.(check bool) "a function of the tag" true
    (Nat.equal c (Ot.random_point grp "tag-a"))

(* ------------------------------------------------------------------ *)
(* OT extension                                                        *)
(* ------------------------------------------------------------------ *)

let test_ot_ext_bytes () =
  let sp = prg "ext-s" and rp = prg "ext-r" in
  let meter = Xfer.create () in
  let session = Ot_ext.setup grp meter ~sender_prg:sp ~receiver_prg:rp in
  let t = prg "ext-data" in
  let m = 64 in
  let pairs = Array.init m (fun _ -> (Prg.bytes t 8, Prg.bytes t 8)) in
  let choices = Array.init m (fun _ -> Prg.bool t) in
  let out = Ot_ext.extend session meter ~pairs ~choices in
  Array.iteri
    (fun j got ->
      let x0, x1 = pairs.(j) in
      Alcotest.(check bytes) "chosen" (if choices.(j) then x1 else x0) got)
    out

let test_ot_ext_bits () =
  let sp = prg "extb-s" and rp = prg "extb-r" in
  let meter = Xfer.create () in
  let session = Ot_ext.setup grp meter ~sender_prg:sp ~receiver_prg:rp in
  let t = prg "extb-data" in
  let m = 200 in
  let pairs = Array.init m (fun _ -> (Prg.bool t, Prg.bool t)) in
  let choices = Array.init m (fun _ -> Prg.bool t) in
  let out = Ot_ext.extend_bits session meter ~pairs ~choices in
  Array.iteri
    (fun j got ->
      let x0, x1 = pairs.(j) in
      Alcotest.(check bool) "chosen bit" (if choices.(j) then x1 else x0) got)
    out;
  Alcotest.(check int) "count" m (Ot_ext.ots_performed session)

let test_ot_ext_multiple_batches () =
  (* The same session must serve several extend calls with fresh
     correlation (stateful column PRGs). *)
  let sp = prg "extm-s" and rp = prg "extm-r" in
  let meter = Xfer.create () in
  let session = Ot_ext.setup grp meter ~sender_prg:sp ~receiver_prg:rp in
  let t = prg "extm-data" in
  for _ = 1 to 5 do
    let m = 32 in
    let pairs = Array.init m (fun _ -> (Prg.bool t, Prg.bool t)) in
    let choices = Array.init m (fun _ -> Prg.bool t) in
    let out = Ot_ext.extend_bits session meter ~pairs ~choices in
    Array.iteri
      (fun j got ->
        let x0, x1 = pairs.(j) in
        Alcotest.(check bool) "batch bit" (if choices.(j) then x1 else x0) got)
      out
  done

let test_ot_ext_simulation_mode () =
  (* Simulation is the ideal functionality: its OTs return the chosen
     bits, and it meters what Crypto does in each direction, setup
     included. Its setup draws nothing but moves the sender stream by
     kappa choice bytes and the receiver stream by 2 * kappa 16-byte
     seeds. *)
  let run grp mode =
    let sp = prg "sim-s" and rp = prg "sim-r" in
    let setup_meter = Xfer.create () in
    let session = Ot_ext.setup ~mode grp setup_meter ~sender_prg:sp ~receiver_prg:rp in
    if mode = Ot_ext.Simulation then
      List.iter
        (fun (name, stream, moved) ->
          let expected = prg name in
          ignore (Prg.bytes expected moved);
          Alcotest.(check bytes)
            (Printf.sprintf "%s stream moved %d bytes" name moved)
            (Prg.bytes expected 64) (Prg.bytes stream 64))
        [ ("sim-s", sp, Ot_ext.kappa); ("sim-r", rp, 2 * Ot_ext.kappa * 16) ];
    let t = prg "sim-data" in
    let m = 100 in
    let pairs = Array.init m (fun _ -> (Prg.bool t, Prg.bool t)) in
    let choices = Array.init m (fun _ -> Prg.bool t) in
    let meter = Xfer.create () in
    let out = Ot_ext.extend_bits session meter ~pairs ~choices in
    Array.iteri
      (fun j got ->
        let x0, x1 = pairs.(j) in
        Alcotest.(check bool) "chosen bit" (if choices.(j) then x1 else x0) got)
      out;
    let directions x = (Xfer.a_to_b x, Xfer.b_to_a x) in
    (directions setup_meter, directions meter)
  in
  List.iter
    (fun (name, setup_bytes) ->
      let grp = Group.by_name name in
      let crypto_setup, crypto_ext = run grp Ot_ext.Crypto in
      let sim_setup, sim_ext = run grp Ot_ext.Simulation in
      Alcotest.(check (pair int int)) (name ^ " crypto setup bytes") setup_bytes crypto_setup;
      Alcotest.(check (pair int int)) (name ^ " simulation setup bytes") crypto_setup sim_setup;
      Alcotest.(check (pair int int)) (name ^ " extension bytes") crypto_ext sim_ext)
    [ ("toy", (1024, 6144)); ("standard", (4096, 12288)) ]

let test_ot_ext_amortized_traffic () =
  (* Extension OTs must be far cheaper than base OTs: the whole point of
     IKNP. Compare marginal traffic of 1000 extension OTs against 1000
     base OTs (3 group elements + 2 bits each). *)
  let sp = prg "extt-s" and rp = prg "extt-r" in
  let setup_meter = Xfer.create () in
  let session = Ot_ext.setup grp setup_meter ~sender_prg:sp ~receiver_prg:rp in
  let meter = Xfer.create () in
  let m = 1000 in
  let pairs = Array.make m (false, true) in
  let choices = Array.make m true in
  ignore (Ot_ext.extend_bits session meter ~pairs ~choices);
  let per_ot = float_of_int (Xfer.total meter) /. float_of_int m in
  let base_per_ot = float_of_int (3 * Group.element_bytes grp + 2) in
  Alcotest.(check bool) "amortized cheaper than base" true (per_ot < base_per_ot)

let test_ot_ext_words_matches_bits () =
  (* extend_words on w-lane words must agree lane-for-lane with
     extend_bits on the flattened bit stream, in both backends, and
     consume the same session state. *)
  List.iter
    (fun mode ->
      let session_of tag =
        Ot_ext.setup ~mode grp (Xfer.create ()) ~sender_prg:(prg (tag ^ "-s"))
          ~receiver_prg:(prg (tag ^ "-r"))
      in
      let t = prg "extw-data" in
      let m = 17 and width = 5 in
      let word () =
        let w = ref 0L in
        for lane = 0 to width - 1 do
          if Prg.bool t then w := Int64.logor !w (Int64.shift_left 1L lane)
        done;
        !w
      in
      let pairs = Array.init m (fun _ -> (word (), word ())) in
      let choices = Array.init m (fun _ -> word ()) in
      let sw = session_of "extw" and sb = session_of "extw" in
      let out = Ot_ext.extend_words sw (Xfer.create ()) ~width ~pairs ~choices in
      let lane_bit w lane = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
      (* Lanes of gate g occupy positions g*width .. g*width+width-1. *)
      let flat f = Array.init (m * width) (fun i -> f (i / width) (i mod width)) in
      let bit_pairs =
        flat (fun g lane ->
            let x0, x1 = pairs.(g) in
            (lane_bit x0 lane, lane_bit x1 lane))
      in
      let bit_choices = flat (fun g lane -> lane_bit choices.(g) lane) in
      let bmeter = Xfer.create () in
      let bits = Ot_ext.extend_bits sb bmeter ~pairs:bit_pairs ~choices:bit_choices in
      Array.iteri
        (fun g w ->
          for lane = 0 to width - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "gate %d lane %d" g lane)
              bits.((g * width) + lane)
              (lane_bit w lane)
          done;
          (* Lanes beyond width must be masked off. *)
          Alcotest.(check int64) (Printf.sprintf "gate %d high lanes" g) 0L
            (Int64.shift_right_logical w width))
        out;
      Alcotest.(check int) "ots consumed" (Ot_ext.ots_performed sb)
        (Ot_ext.ots_performed sw))
    [ Ot_ext.Simulation; Ot_ext.Crypto ]

let test_ot_ext_words_metering () =
  (* A word batch must meter exactly like the equivalent flat bit batch:
     kappa * ceil(total/8) receiver->sender, 2 * ceil(total/8) back. *)
  let session =
    Ot_ext.setup ~mode:Ot_ext.Simulation grp (Xfer.create ()) ~sender_prg:(prg "extwm-s")
      ~receiver_prg:(prg "extwm-r")
  in
  let m = 9 and width = 7 in
  let meter = Xfer.create () in
  ignore
    (Ot_ext.extend_words session meter ~width
       ~pairs:(Array.make m (0L, Int64.minus_one))
       ~choices:(Array.make m 0L));
  let total = m * width in
  let col = Ot_ext.kappa * ((total + 7) / 8) and row = 2 * ((total + 7) / 8) in
  Alcotest.(check int) "metered" (col + row) (Xfer.total meter)

let test_ot_ext_words_rejects_bad_width () =
  let session =
    Ot_ext.setup ~mode:Ot_ext.Simulation grp (Xfer.create ()) ~sender_prg:(prg "extwv-s")
      ~receiver_prg:(prg "extwv-r")
  in
  List.iter
    (fun width ->
      Alcotest.check_raises
        (Printf.sprintf "width %d" width)
        (Invalid_argument "Ot_ext.extend_words: width must be in [1, 64]")
        (fun () ->
          ignore
            (Ot_ext.extend_words session (Xfer.create ()) ~width ~pairs:[| (0L, 0L) |]
               ~choices:[| 0L |])))
    [ 0; 65 ]


(* ------------------------------------------------------------------ *)
(* Schnorr signatures                                                  *)
(* ------------------------------------------------------------------ *)

let test_schnorr_sign_verify () =
  let t = prg "schnorr" in
  let ((_, pk) as tp) = Schnorr.keygen t grp in
  List.iter
    (fun msg ->
      let s = Schnorr.sign t grp tp msg in
      Alcotest.(check bool) ("verifies: " ^ msg) true (Schnorr.verify grp pk msg s))
    [ ""; "roster"; "cert:0:1:deadbeef"; String.make 1000 'x' ]

let test_schnorr_rejects_wrong_message () =
  let t = prg "schnorr-msg" in
  let ((_, pk) as tp) = Schnorr.keygen t grp in
  let s = Schnorr.sign t grp tp "original" in
  Alcotest.(check bool) "tampered message" false (Schnorr.verify grp pk "tampered" s)

let test_schnorr_rejects_wrong_key () =
  let t = prg "schnorr-key" in
  let tp = Schnorr.keygen t grp in
  let _, pk2 = Schnorr.keygen t grp in
  let s = Schnorr.sign t grp tp "msg" in
  Alcotest.(check bool) "wrong key" false (Schnorr.verify grp pk2 "msg" s)

let test_schnorr_rejects_tampered_signature () =
  let t = prg "schnorr-tamper" in
  let ((_, pk) as tp) = Schnorr.keygen t grp in
  let s = Schnorr.sign t grp tp "msg" in
  let bumped =
    { s with Schnorr.response = Nat.rem (Nat.add s.Schnorr.response Nat.one) (Group.q grp) }
  in
  Alcotest.(check bool) "tampered response" false (Schnorr.verify grp pk "msg" bumped)

let test_schnorr_signatures_randomized () =
  (* Fresh commitment per signature: signing twice yields different
     signatures that both verify. *)
  let t = prg "schnorr-rand" in
  let ((_, pk) as tp) = Schnorr.keygen t grp in
  let s1 = Schnorr.sign t grp tp "m" and s2 = Schnorr.sign t grp tp "m" in
  Alcotest.(check bool) "distinct" false (Nat.equal s1.Schnorr.response s2.Schnorr.response);
  Alcotest.(check bool) "both verify" true
    (Schnorr.verify grp pk "m" s1 && Schnorr.verify grp pk "m" s2)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_exp_elgamal_roundtrip =
  QCheck2.Test.make ~name:"exp-elgamal roundtrip" ~count:50
    QCheck2.Gen.(int_range (-1000) 1000)
    (fun v ->
      let t = prg ("prop" ^ string_of_int v) in
      let sk, pk = Exp_elgamal.keygen t grp in
      Exp_elgamal.decrypt grp sk table (Exp_elgamal.encrypt t grp pk v) = Some v)

let prop_exp_elgamal_sum =
  QCheck2.Test.make ~name:"exp-elgamal additive homomorphism" ~count:50
    QCheck2.Gen.(pair (int_range (-400) 400) (int_range (-400) 400))
    (fun (a, b) ->
      let t = prg (Printf.sprintf "prop-sum-%d-%d" a b) in
      let sk, pk = Exp_elgamal.keygen t grp in
      let c =
        Elgamal.mul grp
          (Exp_elgamal.encrypt t grp pk a)
          (Exp_elgamal.encrypt t grp pk b)
      in
      Exp_elgamal.decrypt grp sk table c = Some (a + b))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_exp_elgamal_roundtrip; prop_exp_elgamal_sum ]
  in
  Alcotest.run "crypto"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_fips_vectors;
          Alcotest.test_case "block boundaries" `Quick test_sha256_block_boundaries;
          Alcotest.test_case "million a" `Slow test_sha256_million_a;
        ] );
      ( "prg",
        [
          Alcotest.test_case "deterministic" `Quick test_prg_deterministic;
          Alcotest.test_case "known prefix" `Quick test_prg_known_prefix;
          Alcotest.test_case "distinct keys" `Quick test_prg_distinct_keys;
          Alcotest.test_case "nat_below" `Quick test_prg_nat_below;
          Alcotest.test_case "bits length" `Quick test_prg_bits_length;
          Alcotest.test_case "skip" `Quick test_prg_skip;
          QCheck_alcotest.to_alcotest prop_prg_prefetch;
          Alcotest.test_case "prefetch negative" `Quick test_prg_prefetch_negative;
          Alcotest.test_case "bool balanced" `Quick test_prg_bool_balanced;
        ] );
      ( "group",
        [
          Alcotest.test_case "generator order" `Quick test_group_generator_order;
          Alcotest.test_case "safe prime" `Quick test_group_safe_prime;
          Alcotest.test_case "primes every group" `Quick test_group_primes;
          Alcotest.test_case "all sizes" `Quick test_group_all_sizes;
          Alcotest.test_case "unknown name" `Quick test_group_unknown_name;
          Alcotest.test_case "pow_g" `Quick test_group_pow_g_matches_pow;
          Alcotest.test_case "inverse" `Quick test_group_inverse;
          Alcotest.test_case "exponent arithmetic" `Quick test_group_exp_arith;
          Alcotest.test_case "make rejects bad params" `Quick test_group_make_rejects_bad;
          Alcotest.test_case "comb every group" `Quick test_comb_every_group;
          Alcotest.test_case "comb contract" `Quick test_comb_contract_in_group;
          Alcotest.test_case "pow_g multiplications" `Quick test_pow_g_multiplications;
        ] );
      ( "elgamal",
        [
          Alcotest.test_case "roundtrip" `Quick test_elgamal_roundtrip;
          Alcotest.test_case "homomorphism" `Quick test_elgamal_homomorphism;
          Alcotest.test_case "wrong key" `Quick test_elgamal_wrong_key;
        ] );
      ( "exp-elgamal",
        [
          Alcotest.test_case "roundtrip" `Quick test_exp_elgamal_roundtrip;
          Alcotest.test_case "additive" `Quick test_exp_elgamal_additive;
          Alcotest.test_case "out of table" `Quick test_exp_elgamal_out_of_table;
          Alcotest.test_case "rerandomized key" `Quick test_exp_elgamal_rerandomized_key;
          Alcotest.test_case "sum then adjust" `Quick
            test_exp_elgamal_homomorphism_after_adjust;
          Alcotest.test_case "multi recipient" `Quick test_exp_elgamal_multi_recipient;
          Alcotest.test_case "multi bandwidth" `Quick test_exp_elgamal_multi_bandwidth;
          Alcotest.test_case "table size" `Quick test_table_size;
          Alcotest.test_case "table lookup" `Quick test_table_lookup_hit_and_miss;
        ] );
      ( "batch-vs-scalar",
        [
          Alcotest.test_case "decrypt_shared" `Quick test_decrypt_shared_matches_scalar;
          Alcotest.test_case "encrypt_multi_batch" `Quick
            test_encrypt_multi_batch_matches_sequential;
        ] );
      ( "base-ot",
        [
          Alcotest.test_case "all bit cases" `Quick test_base_ot_all_cases;
          Alcotest.test_case "byte messages" `Quick test_base_ot_bytes;
          Alcotest.test_case "length mismatch" `Quick test_base_ot_length_mismatch;
          Alcotest.test_case "random point" `Quick test_random_point_is_element;
        ] );
      ( "schnorr",
        [
          Alcotest.test_case "sign/verify" `Quick test_schnorr_sign_verify;
          Alcotest.test_case "wrong message" `Quick test_schnorr_rejects_wrong_message;
          Alcotest.test_case "wrong key" `Quick test_schnorr_rejects_wrong_key;
          Alcotest.test_case "tampered signature" `Quick test_schnorr_rejects_tampered_signature;
          Alcotest.test_case "randomized" `Quick test_schnorr_signatures_randomized;
          Alcotest.test_case "named groups" `Quick test_schnorr_named_groups;
        ] );
      ( "ot-extension",
        [
          Alcotest.test_case "byte messages" `Quick test_ot_ext_bytes;
          Alcotest.test_case "bit messages" `Quick test_ot_ext_bits;
          Alcotest.test_case "multiple batches" `Quick test_ot_ext_multiple_batches;
          Alcotest.test_case "simulation mode" `Quick test_ot_ext_simulation_mode;
          Alcotest.test_case "amortized traffic" `Quick test_ot_ext_amortized_traffic;
          Alcotest.test_case "word lanes match bits" `Quick test_ot_ext_words_matches_bits;
          Alcotest.test_case "word metering" `Quick test_ot_ext_words_metering;
          Alcotest.test_case "word width validation" `Quick test_ot_ext_words_rejects_bad_width;
        ] );
      ("properties", qsuite);
    ]
