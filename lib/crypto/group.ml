module Nat = Dstress_bignum.Nat

type elt = Nat.t
type exponent = Nat.t

type t = {
  p : Nat.t;
  q : Nat.t;
  g : elt;
  mont : Nat.Mont.ctx;
  g_comb : Nat.Mont.comb;
      (* the generator's comb, built eagerly with the group so parallel
         domains never race a lazy *)
  g_inv_comb : Nat.Mont.comb;
      (* g^-1 with one tooth (two entries): binary exponentiation by |v|
         for the negative small plaintexts of [pow_g_int] *)
}

type comb = Nat.Mont.comb

let p t = t.p
let q t = t.q
let g t = t.g

let element_bytes t = (Nat.num_bits t.p + 7) / 8

(* Teeth of the generator's comb: enough that [pow_g] never does more
   multiplications than a 4-bit (5-bit from 1024 bits) fixed-window table
   would, in the worst case or on average, at every named group — 9
   teeth give at most 2*29 - 2 = 56 table steps for a 255-bit q (the
   window: 64), 11 teeth 2*187 - 2 = 372 for ffdhe2048's 2047-bit q (the
   window: 410). *)
let generator_teeth ~ebits = if ebits < 1024 then 9 else 11

let make ~p ~q ~g =
  if not (Nat.equal p (Nat.add (Nat.mul Nat.two q) Nat.one)) then
    invalid_arg "Group.make: p <> 2q + 1";
  let mont = Nat.Mont.create p in
  let pow_plain b e = Nat.mod_pow ~base:b ~exp:e ~m:p in
  if Nat.is_one g || not (Nat.is_one (pow_plain g q)) then
    invalid_arg "Group.make: generator does not have order q";
  let ebits = Nat.num_bits q in
  let comb_of ~teeth b = Nat.Mont.comb mont (Nat.Mont.to_mont mont b) ~teeth ~ebits in
  {
    p;
    q;
    g;
    mont;
    g_comb = comb_of ~teeth:(generator_teeth ~ebits) g;
    g_inv_comb = comb_of ~teeth:1 (Nat.mod_inv g ~m:p);
  }

(* Parameters generated offline (see DESIGN.md): safe primes with fixed
   seed 0xD57E55; g = 4 = 2^2 is a square, hence a generator of the
   order-q subgroup. *)
let toy =
  lazy
    (make
       ~p:(Nat.of_hex "a869b1df7b8fb963")
       ~q:(Nat.of_hex "5434d8efbdc7dcb1")
       ~g:(Nat.of_int 4))

let medium =
  lazy
    (make
       ~p:(Nat.of_hex "babd616a6267f018a748355aae61269b")
       ~q:(Nat.of_hex "5d5eb0b53133f80c53a41aad5730934d")
       ~g:(Nat.of_int 4))

let standard =
  lazy
    (make
       ~p:(Nat.of_hex "a8d5a83392ab254e1558c9d68097b79e9804a125c4a9dc0ed2d2765dd6c74b0b")
       ~q:(Nat.of_hex "546ad419c95592a70aac64eb404bdbcf4c025092e254ee0769693b2eeb63a585")
       ~g:(Nat.of_int 4))

(* RFC 7919 finite-field Diffie-Hellman safe primes. q = (p - 1) / 2 is
   prime, and g = 2 is a quadratic residue (p = 7 mod 8), hence a
   generator of the order-q subgroup. These are the paper-scale parameter
   sets: real 2048/3072-bit moduli rather than the offline-generated toy
   primes above. *)
let make_ffdhe p_hex =
  let p = Nat.of_hex p_hex in
  let q = Nat.shift_right (Nat.sub p Nat.one) 1 in
  make ~p ~q ~g:Nat.two

let ffdhe2048 =
  lazy
    (make_ffdhe
       ("ffffffffffffffffadf85458a2bb4a9aafdc5620273d3cf1d8b9c583ce2d3695"
      ^ "a9e13641146433fbcc939dce249b3ef97d2fe363630c75d8f681b202aec4617a"
      ^ "d3df1ed5d5fd65612433f51f5f066ed0856365553ded1af3b557135e7f57c935"
      ^ "984f0c70e0e68b77e2a689daf3efe8721df158a136ade73530acca4f483a797a"
      ^ "bc0ab182b324fb61d108a94bb2c8e3fbb96adab760d7f4681d4f42a3de394df4"
      ^ "ae56ede76372bb190b07a7c8ee0a6d709e02fce1cdf7e2ecc03404cd28342f61"
      ^ "9172fe9ce98583ff8e4f1232eef28183c3fe3b1b4c6fad733bb5fcbc2ec22005"
      ^ "c58ef1837d1683b2c6f34a26c1b2effa886b423861285c97ffffffffffffffff"))

let ffdhe3072 =
  lazy
    (make_ffdhe
       ("ffffffffffffffffadf85458a2bb4a9aafdc5620273d3cf1d8b9c583ce2d3695"
      ^ "a9e13641146433fbcc939dce249b3ef97d2fe363630c75d8f681b202aec4617a"
      ^ "d3df1ed5d5fd65612433f51f5f066ed0856365553ded1af3b557135e7f57c935"
      ^ "984f0c70e0e68b77e2a689daf3efe8721df158a136ade73530acca4f483a797a"
      ^ "bc0ab182b324fb61d108a94bb2c8e3fbb96adab760d7f4681d4f42a3de394df4"
      ^ "ae56ede76372bb190b07a7c8ee0a6d709e02fce1cdf7e2ecc03404cd28342f61"
      ^ "9172fe9ce98583ff8e4f1232eef28183c3fe3b1b4c6fad733bb5fcbc2ec22005"
      ^ "c58ef1837d1683b2c6f34a26c1b2effa886b4238611fcfdcde355b3b6519035b"
      ^ "bc34f4def99c023861b46fc9d6e6c9077ad91d2691f7f7ee598cb0fac186d91c"
      ^ "aefe130985139270b4130c93bc437944f4fd4452e2d74dd364f2e21e71f54bff"
      ^ "5cae82ab9c9df69ee86d2bc522363a0dabc521979b0deada1dbf9a42d5c4484e"
      ^ "0abcd06bfa53ddef3c1b20ee3fd59d7c25e41d2b66c62e37ffffffffffffffff"))

let registry =
  [
    ("toy", toy);
    ("medium", medium);
    ("standard", standard);
    ("ffdhe2048", ffdhe2048);
    ("ffdhe3072", ffdhe3072);
  ]

let names = List.map fst registry

let by_name name =
  match List.assoc_opt name registry with
  | Some g -> Lazy.force g
  | None ->
      invalid_arg
        (Printf.sprintf "Group.by_name: unknown group %s (expected one of: %s)"
           name (String.concat ", " names))

let mul t a b =
  Nat.Mont.from_mont t.mont
    (Nat.Mont.mul t.mont (Nat.Mont.to_mont t.mont a) (Nat.Mont.to_mont t.mont b))

let pow t b e =
  Nat.Mont.from_mont t.mont (Nat.Mont.pow t.mont (Nat.Mont.to_mont t.mont b) e)

let comb t ~teeth b =
  Nat.Mont.comb t.mont (Nat.Mont.to_mont t.mont b) ~teeth ~ebits:(Nat.num_bits t.q)

let pow_comb t c e = Nat.Mont.from_mont t.mont (Nat.Mont.pow_comb t.mont c e)

let pow_g t e = pow_comb t t.g_comb e

let inv t a = Nat.mod_inv a ~m:t.p

let random_exponent prg t =
  let rec loop () =
    let e = Prg.nat_below prg t.q in
    if Nat.is_zero e then loop () else e
  in
  loop ()

let exp_sub t a b = Nat.mod_sub a b ~m:t.q
let exp_mul t a b = Nat.mod_mul a b ~m:t.q

let is_element t x =
  Nat.compare x Nat.zero > 0
  && Nat.compare x t.p < 0
  && Nat.is_one (pow t x t.q)

(* g^v for a signed machine integer. A small |v| fits the first tooth of
   either comb, so it costs one squaring per bit of |v|: a negative v
   goes through g^-1 rather than through q - |v|, a full-width
   exponent. *)
let pow_g_int t v =
  let e = Nat.rem (Nat.of_int (abs v)) t.q in
  if v >= 0 then pow_g t e else pow_comb t t.g_inv_comb e

(* Montgomery's batch-inversion trick: one modular inverse plus 3(n-1)
   multiplications instead of n inverses. *)
let inv_many t elts =
  let n = Array.length elts in
  if n = 0 then [||]
  else if n = 1 then [| inv t elts.(0) |]
  else begin
    let mont = t.mont in
    let ms = Array.map (Nat.Mont.to_mont mont) elts in
    let prefix = Array.make n ms.(0) in
    for i = 1 to n - 1 do
      prefix.(i) <- Nat.Mont.mul mont prefix.(i - 1) ms.(i)
    done;
    (* inv of the total product, back in Montgomery form *)
    let total = Nat.Mont.from_mont mont prefix.(n - 1) in
    let inv_run = ref (Nat.Mont.to_mont mont (inv t total)) in
    let out = Array.make n Nat.one in
    for i = n - 1 downto 1 do
      out.(i) <- Nat.Mont.from_mont mont (Nat.Mont.mul mont !inv_run prefix.(i - 1));
      inv_run := Nat.Mont.mul mont !inv_run ms.(i)
    done;
    out.(0) <- Nat.Mont.from_mont mont !inv_run;
    out
  end
