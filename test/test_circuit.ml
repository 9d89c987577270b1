open Dstress_circuit

let int_of_bits out =
  let r = ref 0 in
  for i = Array.length out - 1 downto 0 do
    r := (!r lsl 1) lor (if out.(i) then 1 else 0)
  done;
  !r

(* Build a circuit over [n] words of [bits] bits each, apply it to integer
   inputs, and return the outputs as an integer (little-endian bit order).
   This is the harness all gadget tests share. *)
let run ~bits ~arity f values =
  let b = Builder.create () in
  let words = Array.init arity (fun _ -> Word.inputs b ~bits) in
  let outputs = f b words in
  let circuit = Builder.finish b ~outputs in
  let input_bits =
    Array.concat
      (List.map
         (fun v -> Array.init bits (fun i -> (v lsr i) land 1 = 1))
         values)
  in
  int_of_bits (Circuit.eval circuit input_bits)

let run2 ~bits f a c = run ~bits ~arity:2 (fun b w -> f b w.(0) w.(1)) [ a; c ]

let bit_of w = [| w |]

(* ------------------------------------------------------------------ *)
(* Circuit IR                                                          *)
(* ------------------------------------------------------------------ *)

let test_eval_basic () =
  let gates =
    [| Circuit.Input 0; Circuit.Input 1; Circuit.Xor (0, 1); Circuit.And (0, 1);
       Circuit.Not 3 |]
  in
  let c = Circuit.make ~gates ~num_inputs:2 ~outputs:[| 2; 4 |] in
  Alcotest.(check (array bool)) "xor/nand of (t,f)" [| true; true |]
    (Circuit.eval c [| true; false |]);
  Alcotest.(check (array bool)) "xor/nand of (t,t)" [| false; false |]
    (Circuit.eval c [| true; true |])

let test_make_rejects_forward_ref () =
  Alcotest.(check bool) "forward ref rejected" true
    (try
       ignore
         (Circuit.make ~gates:[| Circuit.Xor (0, 1) |] ~num_inputs:0 ~outputs:[||]);
       false
     with Invalid_argument _ -> true)

let test_make_rejects_bad_input_index () =
  Alcotest.(check bool) "bad input index" true
    (try
       ignore (Circuit.make ~gates:[| Circuit.Input 3 |] ~num_inputs:2 ~outputs:[||]);
       false
     with Invalid_argument _ -> true)

let test_eval_wrong_arity () =
  let c = Circuit.make ~gates:[| Circuit.Input 0 |] ~num_inputs:1 ~outputs:[| 0 |] in
  Alcotest.check_raises "wrong input length"
    (Invalid_argument "Circuit.eval: wrong input length") (fun () ->
      ignore (Circuit.eval c [||]))

let test_and_depth () =
  let b = Builder.create () in
  let x = Builder.input b and y = Builder.input b and z = Builder.input b in
  (* (x AND y) AND z: two AND levels. *)
  let out = Builder.band b (Builder.band b x y) z in
  let c = Builder.finish b ~outputs:[| out |] in
  Alcotest.(check int) "depth 2" 2 (Circuit.and_depth c);
  Alcotest.(check int) "two ANDs" 2 (Circuit.and_count c)

let test_stats () =
  let b = Builder.create () in
  let x = Builder.input b and y = Builder.input b in
  let out = Builder.bxor b (Builder.band b x y) (Builder.bnot b x) in
  let c = Builder.finish b ~outputs:[| out |] in
  let s = Circuit.stats c in
  Alcotest.(check int) "inputs" 2 s.Circuit.inputs;
  Alcotest.(check int) "ands" 1 s.Circuit.ands;
  Alcotest.(check int) "xors" 1 s.Circuit.xors;
  Alcotest.(check int) "nots" 1 s.Circuit.nots

let test_stats_matches_direct_counts () =
  (* stats is a single fused pass; cross-check it against the per-kind
     fold and the dedicated and_count/and_depth entry points on random
     topologically-valid circuits. *)
  let seed = ref 12345 in
  let rand bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod bound
  in
  for _ = 1 to 5 do
    let num_inputs = 3 + rand 6 in
    let rev = ref [] and wires = ref 0 in
    let push g =
      rev := g :: !rev;
      incr wires
    in
    for k = 0 to num_inputs - 1 do
      push (Circuit.Input k)
    done;
    for _ = 1 to 40 + rand 40 do
      let w () = rand !wires in
      match rand 8 with
      | 0 -> push (Circuit.Const (rand 2 = 1))
      | 1 | 2 -> push (Circuit.Not (w ()))
      | 3 | 4 -> push (Circuit.Xor (w (), w ()))
      | _ -> push (Circuit.And (w (), w ()))
    done;
    let c =
      Circuit.make ~gates:(Array.of_list (List.rev !rev)) ~num_inputs
        ~outputs:[| !wires - 1 |]
    in
    let s = Circuit.stats c in
    let count p =
      Array.fold_left (fun acc g -> if p g then acc + 1 else acc) 0 c.Circuit.gates
    in
    Alcotest.(check int) "gates" (Array.length c.Circuit.gates) s.Circuit.gates;
    Alcotest.(check int) "inputs"
      (count (function Circuit.Input _ -> true | _ -> false))
      s.Circuit.inputs;
    Alcotest.(check int) "ands vs and_count" (Circuit.and_count c) s.Circuit.ands;
    Alcotest.(check int) "ands vs fold"
      (count (function Circuit.And _ -> true | _ -> false))
      s.Circuit.ands;
    Alcotest.(check int) "xors"
      (count (function Circuit.Xor _ -> true | _ -> false))
      s.Circuit.xors;
    Alcotest.(check int) "nots"
      (count (function Circuit.Not _ -> true | _ -> false))
      s.Circuit.nots;
    Alcotest.(check int) "depth vs and_depth" (Circuit.and_depth c) s.Circuit.depth
  done

(* ------------------------------------------------------------------ *)
(* Builder simplifications                                             *)
(* ------------------------------------------------------------------ *)

let test_builder_folding () =
  let b = Builder.create () in
  let x = Builder.input b in
  let t = Builder.const b true and f = Builder.const b false in
  Alcotest.(check int) "x XOR 0 = x" x (Builder.bxor b x f);
  Alcotest.(check int) "x AND 1 = x" x (Builder.band b x t);
  Alcotest.(check int) "x AND x = x" x (Builder.band b x x);
  Alcotest.(check int) "NOT NOT x = x" x (Builder.bnot b (Builder.bnot b x));
  let zero = Builder.bxor b x x in
  Alcotest.(check int) "x XOR x = 0" f zero

let test_builder_hash_consing () =
  let b = Builder.create () in
  let x = Builder.input b and y = Builder.input b in
  let a1 = Builder.band b x y in
  let a2 = Builder.band b y x in
  Alcotest.(check int) "commutative dedup" a1 a2

let test_builder_dead_code_elimination () =
  let b = Builder.create () in
  let x = Builder.input b and y = Builder.input b in
  let _dead = Builder.band b x y in
  let live = Builder.bxor b x y in
  let c = Builder.finish b ~outputs:[| live |] in
  Alcotest.(check int) "dead AND removed" 0 (Circuit.and_count c)

let test_builder_finish_twice () =
  let b = Builder.create () in
  let x = Builder.input b in
  ignore (Builder.finish b ~outputs:[| x |]);
  Alcotest.check_raises "second finish"
    (Invalid_argument "Builder.finish: already finished") (fun () ->
      ignore (Builder.finish b ~outputs:[| x |]))

let test_constant_add_costs_no_ands () =
  (* Adding a constant word folds the carry chain almost entirely when the
     constant is zero. *)
  let b = Builder.create () in
  let x = Word.inputs b ~bits:8 in
  let zero = Word.constant b ~bits:8 0 in
  let out = Word.add b x zero in
  let c = Builder.finish b ~outputs:out in
  Alcotest.(check int) "x + 0 has no ANDs" 0 (Circuit.and_count c)

(* ------------------------------------------------------------------ *)
(* Word gadgets vs integer semantics                                   *)
(* ------------------------------------------------------------------ *)

let bits = 8
let mask = (1 lsl bits) - 1

let test_word_add () =
  for a = 0 to 20 do
    for b = 0 to 20 do
      let got = run2 ~bits Word.add (a * 11) (b * 9) in
      Alcotest.(check int) "add" (((a * 11) + (b * 9)) land mask) got
    done
  done

let test_word_sub_wraps () =
  Alcotest.(check int) "5 - 9 wraps" ((5 - 9) land mask) (run2 ~bits Word.sub 5 9)

let test_word_saturating_sub () =
  Alcotest.(check int) "5 -sat 9 = 0" 0 (run2 ~bits Word.saturating_sub 5 9);
  Alcotest.(check int) "9 -sat 5 = 4" 4 (run2 ~bits Word.saturating_sub 9 5)

let test_word_comparisons () =
  let check_cmp name f expected a b =
    let got = run2 ~bits (fun bl x y -> bit_of (f bl x y)) a b in
    Alcotest.(check int) (Printf.sprintf "%s %d %d" name a b) (if expected then 1 else 0) got
  in
  List.iter
    (fun (a, b) ->
      check_cmp "lt" Word.lt (a < b) a b;
      check_cmp "ge" Word.ge (a >= b) a b;
      check_cmp "eq" Word.eq (a = b) a b)
    [ (0, 0); (1, 0); (0, 1); (255, 255); (254, 255); (100, 100); (7, 200) ]

let test_word_is_zero () =
  let f b w = bit_of (Word.is_zero b w) in
  Alcotest.(check int) "zero" 1 (run ~bits ~arity:1 (fun b ws -> f b ws.(0)) [ 0 ]);
  Alcotest.(check int) "nonzero" 0 (run ~bits ~arity:1 (fun b ws -> f b ws.(0)) [ 64 ])

let test_word_mux () =
  let f sel b ws = Word.mux b (Builder.const b sel) ws.(0) ws.(1) in
  Alcotest.(check int) "sel=1" 42 (run ~bits ~arity:2 (f true) [ 42; 13 ]);
  Alcotest.(check int) "sel=0" 13 (run ~bits ~arity:2 (f false) [ 42; 13 ])

let test_word_min_max () =
  Alcotest.(check int) "min" 13 (run2 ~bits Word.min 42 13);
  Alcotest.(check int) "min, swapped" 13 (run2 ~bits Word.min 13 42)

let test_word_mul () =
  List.iter
    (fun (a, b) ->
      let got = run2 ~bits Word.mul a b in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) got)
    [ (0, 0); (1, 255); (255, 255); (12, 17); (200, 3) ]

let test_word_mul_truncated () =
  let f b x y = Word.mul_truncated b x y ~bits in
  Alcotest.(check int) "truncated product" (12 * 17 land mask) (run2 ~bits f 12 17)

let test_word_divmod () =
  List.iter
    (fun (a, b) ->
      let q = run2 ~bits (fun bl x y -> fst (Word.divmod bl x y)) a b in
      let r = run2 ~bits (fun bl x y -> snd (Word.divmod bl x y)) a b in
      Alcotest.(check int) (Printf.sprintf "%d/%d" a b) (a / b) q;
      Alcotest.(check int) (Printf.sprintf "%d mod %d" a b) (a mod b) r)
    [ (0, 1); (255, 1); (255, 255); (100, 7); (13, 17); (200, 10) ]

let test_word_div_by_zero_all_ones () =
  let q = run2 ~bits (fun bl x y -> fst (Word.divmod bl x y)) 77 0 in
  Alcotest.(check int) "all ones quotient" mask q

let test_word_shifts () =
  let f k b ws = Word.shift_left_const b ws.(0) k in
  Alcotest.(check int) "shl" (0b1010100) (run ~bits ~arity:1 (f 2) [ 0b10101 ]);
  let g k b ws = Word.shift_right_const b ws.(0) k in
  Alcotest.(check int) "shr" 0b101 (run ~bits ~arity:1 (g 2) [ 0b10101 ])

let test_word_sum () =
  let f b ws = Word.sum b ~bits:10 (Array.to_list ws) in
  let got = run ~bits ~arity:4 f [ 200; 200; 200; 100 ] in
  Alcotest.(check int) "sum widened" 700 got

let test_word_negate () =
  Alcotest.(check int) "negate" ((-5) land mask)
    (run ~bits ~arity:1 (fun b ws -> Word.negate b ws.(0)) [ 5 ])

(* Build [f] once over an [xbits]-bit and a [ybits]-bit input word, then
   evaluate it through [Circuit.eval] on every operand pair and compare
   its outputs, read as one little-endian integer, with [expected]. *)
let check_all_pairs name ~xbits ~ybits f expected =
  let b = Builder.create () in
  let x = Word.inputs b ~bits:xbits in
  let y = Word.inputs b ~bits:ybits in
  let c = Builder.finish b ~outputs:(f b x y) in
  let input = Array.make (xbits + ybits) false in
  for u = 0 to (1 lsl xbits) - 1 do
    for v = 0 to (1 lsl ybits) - 1 do
      for i = 0 to xbits + ybits - 1 do
        input.(i) <- (if i < xbits then u lsr i else v lsr (i - xbits)) land 1 = 1
      done;
      let got = int_of_bits (Circuit.eval c input) in
      let want = expected u v in
      if got <> want then
        Alcotest.failf "%s (%d, %d bits): %d, %d gives %d, expected %d" name xbits ybits u
          v got want
    done
  done

(* The sum with the carry-out as its top bit. *)
let add_with_carry_out b x y =
  let s, c = Word.add_with_carry b x y in
  Array.append s [| c |]

let test_word_exhaustive () =
  let ind p = if p then 1 else 0 in
  for n = 1 to 8 do
    let check name f expected = check_all_pairs name ~xbits:n ~ybits:n f expected in
    let mask = (1 lsl n) - 1 in
    check "add_with_carry" add_with_carry_out ( + );
    check "sub_with_borrow"
      (fun b x y ->
        let d, w = Word.sub_with_borrow b x y in
        Array.append d [| w |])
      (fun u v -> ((u - v) land mask) lor (ind (u < v) lsl n));
    check "lt/ge"
      (fun b x y -> [| Word.lt b x y; Word.ge b x y |])
      (fun u v -> ind (u < v) lor (ind (u >= v) lsl 1));
    check "saturating_sub" Word.saturating_sub (fun u v -> Stdlib.max (u - v) 0);
    check "min" Word.min Stdlib.min
  done

(* Quotient bits first, then the remainder; a zero divisor gives the
   all-ones quotient and the dividend's low bits. *)
let test_word_divmod_exhaustive () =
  for n = 1 to 6 do
    for m = 1 to 6 do
      check_all_pairs "divmod" ~xbits:n ~ybits:m
        (fun b x y ->
          let q, r = Word.divmod b x y in
          Array.append q r)
        (fun u v ->
          if v = 0 then ((1 lsl n) - 1) lor ((u land ((1 lsl m) - 1)) lsl n)
          else (u / v) lor ((u mod v) lsl n))
    done
  done

(* One AND per carry bit; [add] and [sub] drop the last carry. *)
let test_word_and_counts () =
  let ands ~bits f =
    let b = Builder.create () in
    let x = Word.inputs b ~bits in
    let y = Word.inputs b ~bits in
    Circuit.and_count (Builder.finish b ~outputs:(f b x y))
  in
  List.iter
    (fun n ->
      let check name want f =
        Alcotest.(check int) (Printf.sprintf "%s %d" name n) want (ands ~bits:n f)
      in
      check "add" (n - 1) Word.add;
      check "add_with_carry" n add_with_carry_out;
      check "sub" (n - 1) Word.sub;
      check "lt" n (fun b x y -> [| Word.lt b x y |]))
    [ 8; 16; 32 ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let gen_byte = QCheck2.Gen.int_bound 255

let prop_gadget name f reference =
  QCheck2.Test.make ~name ~count:150
    QCheck2.Gen.(pair gen_byte gen_byte)
    (fun (a, b) -> run2 ~bits f a b = reference a b land mask)

let prop_add = prop_gadget "word add matches int" Word.add ( + )
let prop_sub = prop_gadget "word sub matches int" Word.sub ( - )

let prop_mul =
  QCheck2.Test.make ~name:"word mul matches int" ~count:100
    QCheck2.Gen.(pair gen_byte gen_byte)
    (fun (a, b) -> run2 ~bits Word.mul a b = a * b)

let prop_divmod =
  QCheck2.Test.make ~name:"word divmod matches int" ~count:100
    QCheck2.Gen.(pair gen_byte (int_range 1 255))
    (fun (a, b) ->
      run2 ~bits (fun bl x y -> fst (Word.divmod bl x y)) a b = a / b
      && run2 ~bits (fun bl x y -> snd (Word.divmod bl x y)) a b = a mod b)

let prop_lt =
  QCheck2.Test.make ~name:"word lt matches int" ~count:150
    QCheck2.Gen.(pair gen_byte gen_byte)
    (fun (a, b) ->
      run2 ~bits (fun bl x y -> [| Word.lt bl x y |]) a b = if a < b then 1 else 0)

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest [ prop_add; prop_sub; prop_mul; prop_divmod; prop_lt ]
  in
  Alcotest.run "circuit"
    [
      ( "ir",
        [
          Alcotest.test_case "eval basic" `Quick test_eval_basic;
          Alcotest.test_case "rejects forward ref" `Quick test_make_rejects_forward_ref;
          Alcotest.test_case "rejects bad input" `Quick test_make_rejects_bad_input_index;
          Alcotest.test_case "eval wrong arity" `Quick test_eval_wrong_arity;
          Alcotest.test_case "and depth" `Quick test_and_depth;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "stats single pass" `Quick test_stats_matches_direct_counts;
        ] );
      ( "builder",
        [
          Alcotest.test_case "constant folding" `Quick test_builder_folding;
          Alcotest.test_case "hash consing" `Quick test_builder_hash_consing;
          Alcotest.test_case "dead code elimination" `Quick
            test_builder_dead_code_elimination;
          Alcotest.test_case "finish twice" `Quick test_builder_finish_twice;
          Alcotest.test_case "constant add folds" `Quick test_constant_add_costs_no_ands;
        ] );
      ( "word",
        [
          Alcotest.test_case "add" `Quick test_word_add;
          Alcotest.test_case "sub wraps" `Quick test_word_sub_wraps;
          Alcotest.test_case "saturating sub" `Quick test_word_saturating_sub;
          Alcotest.test_case "comparisons" `Quick test_word_comparisons;
          Alcotest.test_case "is_zero" `Quick test_word_is_zero;
          Alcotest.test_case "mux" `Quick test_word_mux;
          Alcotest.test_case "min/max" `Quick test_word_min_max;
          Alcotest.test_case "mul" `Quick test_word_mul;
          Alcotest.test_case "mul truncated" `Quick test_word_mul_truncated;
          Alcotest.test_case "divmod" `Quick test_word_divmod;
          Alcotest.test_case "div by zero" `Quick test_word_div_by_zero_all_ones;
          Alcotest.test_case "shifts" `Quick test_word_shifts;
          Alcotest.test_case "sum" `Quick test_word_sum;
          Alcotest.test_case "negate" `Quick test_word_negate;
          Alcotest.test_case "exhaustive widths 1-8" `Quick test_word_exhaustive;
          Alcotest.test_case "divmod exhaustive widths 1-6" `Quick test_word_divmod_exhaustive;
          Alcotest.test_case "AND counts" `Quick test_word_and_counts;
        ] );
      ("properties", qsuite);
    ]
