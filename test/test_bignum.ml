open Dstress_bignum

let prng () = Dstress_util.Prng.of_int 0xB16
let nat = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Nat.to_decimal v)) Nat.equal

(* ------------------------------------------------------------------ *)
(* Nat basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_nat_of_to_int () =
  List.iter
    (fun v -> Alcotest.(check int) "roundtrip" v (Nat.to_int (Nat.of_int v)))
    [ 0; 1; 2; 1000; 1 lsl 25; (1 lsl 26) - 1; 1 lsl 26; 123456789012345; max_int ]

let test_nat_of_int_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (Nat.of_int (-1)))

let test_nat_hash () =
  (* Hashtbl contract: equal values (however constructed) hash equally,
     and the hash is nonnegative. *)
  let t = prng () in
  for _ = 1 to 200 do
    let a = Dstress_util.Prng.int t 1_000_000_000 in
    let b = Dstress_util.Prng.int t 1_000_000 in
    let x = Nat.of_int (a + b) in
    let y = Nat.add (Nat.of_int a) (Nat.of_int b) in
    Alcotest.(check bool) "values equal" true (Nat.equal x y);
    Alcotest.(check int) "hashes equal" (Nat.hash x) (Nat.hash y);
    Alcotest.(check bool) "nonnegative" true (Nat.hash x >= 0)
  done;
  Alcotest.(check bool) "0 and 1 distinct" true
    (Nat.hash Nat.zero <> Nat.hash Nat.one)

let test_nat_compare () =
  let a = Nat.of_int 100 and b = Nat.of_int 200 in
  Alcotest.(check bool) "lt" true (Nat.compare a b < 0);
  Alcotest.(check bool) "gt" true (Nat.compare b a > 0);
  Alcotest.(check bool) "eq" true (Nat.compare a a = 0)

let test_nat_add_sub () =
  let t = prng () in
  for _ = 1 to 200 do
    let a = Nat.random_bits t 200 and b = Nat.random_bits t 180 in
    let s = Nat.add a b in
    Alcotest.check nat "sub undoes add (a)" a (Nat.sub s b);
    Alcotest.check nat "sub undoes add (b)" b (Nat.sub s a)
  done

let test_nat_sub_negative () =
  Alcotest.check_raises "negative result"
    (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub (Nat.of_int 1) (Nat.of_int 2)))

let test_nat_mul_known () =
  let a = Nat.of_decimal "123456789123456789123456789" in
  let b = Nat.of_decimal "987654321987654321" in
  Alcotest.(check string) "product"
    "121932631356500531469135800347203169112635269"
    (Nat.to_decimal (Nat.mul a b))

let test_nat_divmod_known () =
  let a = Nat.of_decimal "121932631356500531469135800347203169112635269" in
  let b = Nat.of_decimal "987654321987654321" in
  let q, r = Nat.divmod a b in
  Alcotest.(check string) "quotient" "123456789123456789123456789" (Nat.to_decimal q);
  Alcotest.check nat "remainder" Nat.zero r

let test_nat_divmod_small_cases () =
  let q, r = Nat.divmod (Nat.of_int 17) (Nat.of_int 5) in
  Alcotest.(check int) "q" 3 (Nat.to_int q);
  Alcotest.(check int) "r" 2 (Nat.to_int r);
  let q, r = Nat.divmod (Nat.of_int 3) (Nat.of_int 7) in
  Alcotest.(check int) "q small" 0 (Nat.to_int q);
  Alcotest.(check int) "r small" 3 (Nat.to_int r)

let test_nat_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_nat_shifts () =
  let v = Nat.of_decimal "123456789123456789" in
  Alcotest.check nat "shift roundtrip" v (Nat.shift_right (Nat.shift_left v 100) 100);
  Alcotest.check nat "shl = mul 2^k" (Nat.mul v (Nat.pow Nat.two 37))
    (Nat.shift_left v 37);
  Alcotest.check nat "shr drops" (Nat.of_int 1) (Nat.shift_right (Nat.of_int 3) 1)

let test_nat_num_bits () =
  Alcotest.(check int) "zero" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "one" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "255" 8 (Nat.num_bits (Nat.of_int 255));
  Alcotest.(check int) "256" 9 (Nat.num_bits (Nat.of_int 256));
  Alcotest.(check int) "2^100" 101 (Nat.num_bits (Nat.pow Nat.two 100))

let test_nat_pow () =
  Alcotest.(check string) "2^128" "340282366920938463463374607431768211456"
    (Nat.to_decimal (Nat.pow Nat.two 128));
  Alcotest.check nat "x^0" Nat.one (Nat.pow (Nat.of_int 7) 0)

(* ------------------------------------------------------------------ *)
(* Modular arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let test_mod_pow_known () =
  (* 2^10 mod 1000 = 24, 3^100 mod 101 = 1 (Fermat) *)
  Alcotest.(check int) "2^10 mod 1000" 24
    (Nat.to_int (Nat.mod_pow ~base:Nat.two ~exp:(Nat.of_int 10) ~m:(Nat.of_int 1000)));
  Alcotest.(check int) "fermat" 1
    (Nat.to_int
       (Nat.mod_pow ~base:(Nat.of_int 3) ~exp:(Nat.of_int 100) ~m:(Nat.of_int 101)))

let test_mod_pow_vs_naive () =
  let t = prng () in
  for _ = 1 to 50 do
    let m = Nat.add (Nat.random_below t (Nat.of_int 10000)) Nat.two in
    let b = Nat.random_below t m in
    let e = Dstress_util.Prng.int t 50 in
    let expected = Nat.rem (Nat.pow b e) m in
    Alcotest.check nat "matches naive" expected
      (Nat.mod_pow ~base:b ~exp:(Nat.of_int e) ~m)
  done

let test_mod_pow_even_modulus () =
  Alcotest.(check int) "even modulus" (17 * 17 mod 100)
    (Nat.to_int
       (Nat.mod_pow ~base:(Nat.of_int 17) ~exp:Nat.two ~m:(Nat.of_int 100)))

let test_mod_inv () =
  let t = prng () in
  let m = Nat.of_decimal "1000000007" in
  for _ = 1 to 100 do
    let a = Nat.add Nat.one (Nat.random_below t (Nat.sub m Nat.one)) in
    let inv = Nat.mod_inv a ~m in
    Alcotest.check nat "a * a^-1 = 1" Nat.one (Nat.mod_mul a inv ~m)
  done

let test_mod_inv_no_inverse () =
  Alcotest.check_raises "gcd > 1" Not_found (fun () ->
      ignore (Nat.mod_inv (Nat.of_int 6) ~m:(Nat.of_int 9)))

let test_mod_add_sub () =
  let m = Nat.of_int 13 in
  Alcotest.(check int) "mod_sub wraps" 12
    (Nat.to_int (Nat.mod_sub (Nat.of_int 7) (Nat.of_int 8) ~m))

(* ------------------------------------------------------------------ *)
(* Montgomery                                                          *)
(* ------------------------------------------------------------------ *)

let test_mont_roundtrip () =
  let t = prng () in
  let m = Nat.generate_prime t ~bits:128 in
  let ctx = Nat.Mont.create m in
  for _ = 1 to 50 do
    let x = Nat.random_below t m in
    Alcotest.check nat "to/from mont" x (Nat.Mont.from_mont ctx (Nat.Mont.to_mont ctx x))
  done

let test_mont_mul_matches_plain () =
  let t = prng () in
  let m = Nat.generate_prime t ~bits:160 in
  let ctx = Nat.Mont.create m in
  for _ = 1 to 50 do
    let a = Nat.random_below t m and b = Nat.random_below t m in
    let am = Nat.Mont.to_mont ctx a and bm = Nat.Mont.to_mont ctx b in
    let got = Nat.Mont.from_mont ctx (Nat.Mont.mul ctx am bm) in
    Alcotest.check nat "matches mod_mul" (Nat.mod_mul a b ~m) got
  done

let test_mont_pow_matches () =
  let t = prng () in
  let m = Nat.generate_prime t ~bits:96 in
  let ctx = Nat.Mont.create m in
  for _ = 1 to 20 do
    let b = Nat.random_below t m in
    let e = Nat.random_bits t 64 in
    let bm = Nat.Mont.to_mont ctx b in
    let got = Nat.Mont.from_mont ctx (Nat.Mont.pow ctx bm e) in
    Alcotest.check nat "matches mod_pow" (Nat.mod_pow ~base:b ~exp:e ~m) got
  done

let test_mont_rejects_even () =
  Alcotest.check_raises "even modulus"
    (Invalid_argument "Nat.Mont.create: modulus must be odd and >= 3") (fun () ->
      ignore (Nat.Mont.create (Nat.of_int 100)))

(* ------------------------------------------------------------------ *)
(* Differential: word-array kernel vs schoolbook references            *)
(* ------------------------------------------------------------------ *)

(* Schoolbook references built only on the generic divmod path — a
   completely independent computation from the Montgomery word-array
   kernel they check. *)
let school_mod_mul a b ~m = Nat.rem (Nat.mul a b) m

let school_mod_pow ~base ~exp ~m =
  let base = Nat.rem base m in
  let r = ref (Nat.rem Nat.one m) in
  for i = Nat.num_bits exp - 1 downto 0 do
    r := Nat.rem (Nat.mul !r !r) m;
    if Nat.bit exp i then r := Nat.rem (Nat.mul !r base) m
  done;
  !r

(* Random odd modulus of exactly [bits] bits (>= 2). *)
let odd_modulus t bits =
  let m = Nat.add (Nat.shift_left Nat.one (bits - 1)) (Nat.random_bits t (bits - 1)) in
  if Nat.is_even m then Nat.add m Nat.one else m

(* The kernel packs values into 30-bit limbs, so widths straddling limb
   boundaries (1, 2 and many limbs, exact multiples and off-by-one) are
   where carry/reduction bugs hide. *)
let boundary_widths = [ 5; 29; 30; 31; 59; 60; 61; 89; 91; 120; 256; 521 ]

let test_kernel_mul_vs_schoolbook () =
  let t = prng () in
  List.iter
    (fun bits ->
      let m = odd_modulus t bits in
      let ctx = Nat.Mont.create m in
      for _ = 1 to 25 do
        let a = Nat.random_below t m and b = Nat.random_below t m in
        let got =
          Nat.Mont.from_mont ctx
            (Nat.Mont.mul ctx (Nat.Mont.to_mont ctx a) (Nat.Mont.to_mont ctx b))
        in
        Alcotest.check nat
          (Printf.sprintf "mul %d bits" bits)
          (school_mod_mul a b ~m) got;
        Alcotest.check nat
          (Printf.sprintf "mod_mul %d bits" bits)
          (school_mod_mul a b ~m)
          (Nat.mod_mul a b ~m)
      done)
    boundary_widths

let test_kernel_pow_vs_schoolbook () =
  let t = prng () in
  List.iter
    (fun bits ->
      let m = odd_modulus t bits in
      for _ = 1 to 5 do
        let b = Nat.random_below t m in
        let e = Nat.random_bits t (min bits 128) in
        Alcotest.check nat
          (Printf.sprintf "mod_pow %d bits" bits)
          (school_mod_pow ~base:b ~exp:e ~m)
          (Nat.mod_pow ~base:b ~exp:e ~m)
      done;
      (* exponent edge cases *)
      let b = Nat.random_below t m in
      Alcotest.check nat "exp 0" (Nat.rem Nat.one m)
        (Nat.mod_pow ~base:b ~exp:Nat.zero ~m);
      Alcotest.check nat "exp 1" (Nat.rem b m) (Nat.mod_pow ~base:b ~exp:Nat.one ~m))
    boundary_widths

(* Lim–Lee comb vs the generic window ladder and mod_pow: every teeth
   count 1–9 at every limb-boundary width (table widths that are and are
   not multiples of the teeth), on exponents 0, 1, all ones (every column
   full), one full column at each end of the comb, and random values. *)
let comb_exponents t ~teeth ~ebits =
  let d = (ebits + teeth - 1) / teeth in
  let full_column j =
    List.fold_left
      (fun acc i ->
        let b = (i * d) + j in
        if b < ebits then Nat.add acc (Nat.shift_left Nat.one b) else acc)
      Nat.zero (List.init teeth Fun.id)
  in
  Nat.zero :: Nat.one
  :: Nat.sub (Nat.shift_left Nat.one ebits) Nat.one
  :: full_column 0 :: full_column (d - 1)
  :: List.init 3 (fun _ -> Nat.random_bits t ebits)

let test_comb_vs_pow () =
  let t = prng () in
  List.iter
    (fun bits ->
      let m = odd_modulus t bits in
      let ctx = Nat.Mont.create m in
      let base = Nat.random_below t m in
      let bm = Nat.Mont.to_mont ctx base in
      for teeth = 1 to 9 do
        let c = Nat.Mont.comb ctx bm ~teeth ~ebits:bits in
        List.iter
          (fun e ->
            let got = Nat.Mont.pow_comb ctx c e in
            let label = Printf.sprintf "%d bits, %d teeth" bits teeth in
            Alcotest.check nat (label ^ " vs Mont.pow") (Nat.Mont.pow ctx bm e) got;
            Alcotest.check nat (label ^ " vs mod_pow")
              (Nat.mod_pow ~base ~exp:e ~m)
              (Nat.Mont.from_mont ctx got))
          (comb_exponents t ~teeth ~ebits:bits)
      done)
    boundary_widths

let test_comb_contract () =
  let t = prng () in
  let m = odd_modulus t 61 in
  let ctx = Nat.Mont.create m in
  let base = Nat.random_below t m in
  let c = Nat.Mont.comb ctx (Nat.Mont.to_mont ctx base) ~teeth:4 ~ebits:50 in
  (* 4 teeth of 13 columns could hold 52 bits, but the table serves
     exactly the 50 it was built for. *)
  let widest = Nat.sub (Nat.shift_left Nat.one 50) Nat.one in
  Alcotest.check nat "ebits-wide exponent"
    (Nat.mod_pow ~base ~exp:widest ~m)
    (Nat.Mont.from_mont ctx (Nat.Mont.pow_comb ctx c widest));
  Alcotest.check_raises "wider than the table"
    (Invalid_argument "Nat.Mont.pow_comb: exponent wider than the comb") (fun () ->
      ignore (Nat.Mont.pow_comb ctx c (Nat.shift_left Nat.one 50)));
  Alcotest.check_raises "another context"
    (Invalid_argument "Nat.Mont.pow_comb: comb of another context") (fun () ->
      ignore (Nat.Mont.pow_comb (Nat.Mont.create m) c Nat.one));
  List.iter
    (fun teeth ->
      Alcotest.check_raises (Printf.sprintf "%d teeth" teeth)
        (Invalid_argument "Nat.Mont.comb: teeth must lie in [1, 16]") (fun () ->
          ignore (Nat.Mont.comb ctx Nat.one ~teeth ~ebits:50)))
    [ 0; 17 ];
  Alcotest.check_raises "no exponent bits"
    (Invalid_argument "Nat.Mont.comb: ebits must be positive") (fun () ->
      ignore (Nat.Mont.comb ctx Nat.one ~teeth:4 ~ebits:0))

(* Words of minor heap a normalized result occupies: header plus limbs
   (zero is the shared empty array). *)
let result_words r =
  let limbs = (Nat.num_bits r + 29) / 30 in
  if limbs = 0 then 0 else limbs + 1

let test_mont_mul_allocates_results_only () =
  let t = prng () in
  let m = odd_modulus t 256 in
  let ctx = Nat.Mont.create m in
  let a = Nat.Mont.to_mont ctx (Nat.random_below t m) in
  let b = Nat.Mont.to_mont ctx (Nat.random_below t m) in
  let n = 1000 in
  let results = Array.make n Nat.zero in
  let run f =
    let w0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      results.(i) <- f i
    done;
    Gc.minor_words () -. w0
  in
  ignore (run (fun _ -> Nat.Mont.mul ctx a b));
  let overhead = run (fun _ -> Nat.zero) in
  let words = run (fun i -> Nat.Mont.mul ctx (if i land 1 = 0 then a else b) b) in
  let expected = Array.fold_left (fun acc r -> acc + result_words r) 0 results in
  Alcotest.(check int) "minor words of N muls" expected (int_of_float (words -. overhead))

let test_mont_mul_count () =
  let t = prng () in
  let m = odd_modulus t 256 in
  let ctx = Nat.Mont.create m in
  let counted f =
    let c0 = Nat.Mont.muls () in
    let r = f () in
    (r, Nat.Mont.muls () - c0)
  in
  let am, n = counted (fun () -> Nat.Mont.to_mont ctx (Nat.random_below t m)) in
  Alcotest.(check int) "to_mont" 1 n;
  Alcotest.(check int) "mul" 1 (snd (counted (fun () -> Nat.Mont.mul ctx am am)));
  Alcotest.(check int) "from_mont" 1 (snd (counted (fun () -> Nat.Mont.from_mont ctx am)));
  (* 64 one bits: 16 windows, all digits nonzero: 15 + 4*15 + 16 *)
  let ones = Nat.sub (Nat.shift_left Nat.one 64) Nat.one in
  Alcotest.(check int) "pow" 91 (snd (counted (fun () -> Nat.Mont.pow ctx am ones)));
  (* 5 teeth of d = 12 columns: 4*12 squarings + 32 - 5 - 1 *)
  let c, n = counted (fun () -> Nat.Mont.comb ctx am ~teeth:5 ~ebits:60) in
  Alcotest.(check int) "comb build" 74 n;
  let all_ones = Nat.sub (Nat.shift_left Nat.one 60) Nat.one in
  Alcotest.(check int) "pow_comb, every column full" 22
    (snd (counted (fun () -> Nat.Mont.pow_comb ctx c all_ones)));
  Alcotest.(check int) "pow_comb 0" 0 (snd (counted (fun () -> Nat.Mont.pow_comb ctx c Nat.zero)));
  Alcotest.(check int) "pow_comb 1" 0 (snd (counted (fun () -> Nat.Mont.pow_comb ctx c Nat.one)));
  (* 0b1011 fits the first tooth: 3 squarings, 2 multiplications *)
  Alcotest.(check int) "pow_comb 11" 5
    (snd (counted (fun () -> Nat.Mont.pow_comb ctx c (Nat.of_int 11))));
  (* Another domain's work is its own. *)
  let n =
    snd (counted (fun () -> Domain.join (Domain.spawn (fun () -> Nat.Mont.mul ctx am am))))
  in
  Alcotest.(check int) "other domain" 0 n

(* ------------------------------------------------------------------ *)
(* to_bytes_be_padded                                                  *)
(* ------------------------------------------------------------------ *)

let test_to_bytes_be_padded () =
  let t = prng () in
  for _ = 1 to 50 do
    let v = Nat.random_bits t 150 in
    let len = ((Nat.num_bits v + 7) / 8) + Dstress_util.Prng.int t 5 in
    let b = Nat.to_bytes_be_padded v ~len in
    Alcotest.(check int) "exact length" len (Bytes.length b);
    Alcotest.check nat "value preserved" v (Nat.of_bytes_be b)
  done;
  Alcotest.(check string) "zero pads to zero bytes" "\x00\x00\x00"
    (Bytes.to_string (Nat.to_bytes_be_padded Nat.zero ~len:3));
  Alcotest.(check string) "255 left-padded" "\x00\xff"
    (Bytes.to_string (Nat.to_bytes_be_padded (Nat.of_int 255) ~len:2))

let test_to_bytes_be_padded_too_narrow () =
  Alcotest.check_raises "too narrow"
    (Invalid_argument "Nat.to_bytes_be_padded: value too wide") (fun () ->
      ignore (Nat.to_bytes_be_padded (Nat.of_int 256) ~len:1))

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let test_decimal_roundtrip () =
  let t = prng () in
  for _ = 1 to 50 do
    let v = Nat.random_bits t 300 in
    Alcotest.check nat "decimal roundtrip" v (Nat.of_decimal (Nat.to_decimal v))
  done

let test_hex_roundtrip () =
  let t = prng () in
  let hex b =
    String.concat ""
      (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))
  in
  for _ = 1 to 50 do
    let v = Nat.random_bits t 300 in
    Alcotest.check nat "hex roundtrip" v (Nat.of_hex (hex (Nat.to_bytes_be v)))
  done

let test_hex_known () =
  Alcotest.check nat "of_hex odd length" (Nat.of_int 0xabc) (Nat.of_hex "abc")

let test_bytes_roundtrip () =
  let t = prng () in
  for _ = 1 to 50 do
    let v = Nat.random_bits t 200 in
    Alcotest.check nat "bytes roundtrip" v (Nat.of_bytes_be (Nat.to_bytes_be v))
  done

(* ------------------------------------------------------------------ *)
(* Randomness / primality                                              *)
(* ------------------------------------------------------------------ *)

let test_random_below_in_range () =
  let t = prng () in
  let bound = Nat.of_decimal "123456789123456789" in
  for _ = 1 to 200 do
    let v = Nat.random_below t bound in
    Alcotest.(check bool) "below bound" true (Nat.compare v bound < 0)
  done

let test_primality_known () =
  let t = prng () in
  let primes = [ 2; 3; 5; 7; 97; 7919; 104729 ] in
  let composites = [ 0; 1; 4; 9; 561 (* Carmichael *); 7917; 104730 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%d prime" p)
        true
        (Nat.is_probable_prime t (Nat.of_int p)))
    primes;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%d composite" c)
        false
        (Nat.is_probable_prime t (Nat.of_int c)))
    composites

let test_primality_large_known () =
  let t = prng () in
  (* 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite. *)
  let m127 = Nat.sub (Nat.pow Nat.two 127) Nat.one in
  Alcotest.(check bool) "2^127-1 prime" true (Nat.is_probable_prime t m127);
  let f7ish = Nat.add (Nat.pow Nat.two 128) Nat.one in
  Alcotest.(check bool) "2^128+1 composite" false (Nat.is_probable_prime t f7ish)

let test_generate_prime () =
  let t = prng () in
  let p = Nat.generate_prime t ~bits:64 in
  Alcotest.(check int) "exact width" 64 (Nat.num_bits p);
  Alcotest.(check bool) "is prime" true (Nat.is_probable_prime t p)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_nat =
  QCheck2.Gen.(
    map
      (fun (seed, bits) ->
        Nat.random_bits (Dstress_util.Prng.of_int seed) (1 + bits))
      (pair int (int_bound 250)))

let prop_add_comm =
  QCheck2.Test.make ~name:"nat add commutative" ~count:200
    QCheck2.Gen.(pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_mul_comm =
  QCheck2.Test.make ~name:"nat mul commutative" ~count:200
    QCheck2.Gen.(pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_assoc =
  QCheck2.Test.make ~name:"nat mul associative" ~count:100
    QCheck2.Gen.(triple gen_nat gen_nat gen_nat)
    (fun (a, b, c) -> Nat.equal (Nat.mul (Nat.mul a b) c) (Nat.mul a (Nat.mul b c)))

let prop_distributive =
  QCheck2.Test.make ~name:"nat mul distributes over add" ~count:100
    QCheck2.Gen.(triple gen_nat gen_nat gen_nat)
    (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_divmod_identity =
  QCheck2.Test.make ~name:"nat divmod identity" ~count:300
    QCheck2.Gen.(pair gen_nat gen_nat)
    (fun (a, b) ->
      QCheck2.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let prop_decimal_roundtrip =
  QCheck2.Test.make ~name:"nat decimal roundtrip" ~count:200 gen_nat (fun v ->
      Nat.equal v (Nat.of_decimal (Nat.to_decimal v)))

let prop_kernel_mul =
  QCheck2.Test.make ~name:"kernel mod_mul matches schoolbook" ~count:200
    QCheck2.Gen.(pair int (int_range 2 260))
    (fun (seed, bits) ->
      let t = Dstress_util.Prng.of_int seed in
      let m = odd_modulus t bits in
      let a = Nat.random_below t m and b = Nat.random_below t m in
      Nat.equal (Nat.mod_mul a b ~m) (school_mod_mul a b ~m))

let prop_kernel_pow =
  QCheck2.Test.make ~name:"kernel mod_pow matches schoolbook" ~count:60
    QCheck2.Gen.(pair int (int_range 2 200))
    (fun (seed, bits) ->
      let t = Dstress_util.Prng.of_int seed in
      let m = odd_modulus t bits in
      let b = Nat.random_below t m in
      let e = Nat.random_bits t 96 in
      Nat.equal
        (Nat.mod_pow ~base:b ~exp:e ~m)
        (school_mod_pow ~base:b ~exp:e ~m))

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_add_comm;
        prop_mul_comm;
        prop_mul_assoc;
        prop_distributive;
        prop_divmod_identity;
        prop_decimal_roundtrip;
        prop_kernel_mul;
        prop_kernel_pow;
      ]
  in
  Alcotest.run "bignum"
    [
      ( "nat-basic",
        [
          Alcotest.test_case "of/to int" `Quick test_nat_of_to_int;
          Alcotest.test_case "of_int negative" `Quick test_nat_of_int_negative;
          Alcotest.test_case "compare" `Quick test_nat_compare;
          Alcotest.test_case "hash" `Quick test_nat_hash;
          Alcotest.test_case "add/sub" `Quick test_nat_add_sub;
          Alcotest.test_case "sub negative" `Quick test_nat_sub_negative;
          Alcotest.test_case "mul known" `Quick test_nat_mul_known;
          Alcotest.test_case "divmod known" `Quick test_nat_divmod_known;
          Alcotest.test_case "divmod small" `Quick test_nat_divmod_small_cases;
          Alcotest.test_case "div by zero" `Quick test_nat_div_by_zero;
          Alcotest.test_case "shifts" `Quick test_nat_shifts;
          Alcotest.test_case "num_bits" `Quick test_nat_num_bits;
          Alcotest.test_case "pow" `Quick test_nat_pow;
        ] );
      ( "nat-modular",
        [
          Alcotest.test_case "mod_pow known" `Quick test_mod_pow_known;
          Alcotest.test_case "mod_pow vs naive" `Quick test_mod_pow_vs_naive;
          Alcotest.test_case "mod_pow even modulus" `Quick test_mod_pow_even_modulus;
          Alcotest.test_case "mod_inv" `Quick test_mod_inv;
          Alcotest.test_case "mod_inv missing" `Quick test_mod_inv_no_inverse;
          Alcotest.test_case "mod_add/mod_sub" `Quick test_mod_add_sub;
        ] );
      ( "nat-montgomery",
        [
          Alcotest.test_case "roundtrip" `Quick test_mont_roundtrip;
          Alcotest.test_case "mul matches plain" `Quick test_mont_mul_matches_plain;
          Alcotest.test_case "pow matches plain" `Quick test_mont_pow_matches;
          Alcotest.test_case "rejects even modulus" `Quick test_mont_rejects_even;
        ] );
      ( "kernel-differential",
        [
          Alcotest.test_case "mul vs schoolbook" `Quick test_kernel_mul_vs_schoolbook;
          Alcotest.test_case "pow vs schoolbook" `Quick test_kernel_pow_vs_schoolbook;
          Alcotest.test_case "comb vs pow" `Quick test_comb_vs_pow;
          Alcotest.test_case "comb contract" `Quick test_comb_contract;
          Alcotest.test_case "mul allocates only results" `Quick
            test_mont_mul_allocates_results_only;
          Alcotest.test_case "mul counter" `Quick test_mont_mul_count;
          Alcotest.test_case "to_bytes_be_padded" `Quick test_to_bytes_be_padded;
          Alcotest.test_case "padded too narrow" `Quick test_to_bytes_be_padded_too_narrow;
        ] );
      ( "nat-conversions",
        [
          Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex known" `Quick test_hex_known;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
        ] );
      ( "nat-primes",
        [
          Alcotest.test_case "random_below range" `Quick test_random_below_in_range;
          Alcotest.test_case "known primes/composites" `Quick test_primality_known;
          Alcotest.test_case "large known" `Quick test_primality_large_known;
          Alcotest.test_case "generate prime" `Quick test_generate_prime;
        ] );
      ("properties", qsuite);
    ]
