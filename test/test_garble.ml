(* Yao garbled circuits vs plaintext circuit evaluation. *)

module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Garble = Dstress_crypto.Garble
module Xfer = Dstress_crypto.Xfer
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word

let grp = Group.by_name "toy"

let run_both ?(mode = Ot_ext.Simulation) ?(seed = "tg") circuit ~garbler_bits inputs =
  let n = circuit.Circuit.num_inputs in
  let garbler_input = Bitvec.sub inputs ~pos:0 ~len:garbler_bits in
  let evaluator_input = Bitvec.sub inputs ~pos:garbler_bits ~len:(n - garbler_bits) in
  let meter = Xfer.create () in
  let r =
    Garble.execute ~mode grp meter circuit ~garbler_bits ~garbler_input ~evaluator_input
      ~seed
  in
  let expected =
    Bitvec.of_bool_array (Circuit.eval circuit (Bitvec.to_bool_array inputs))
  in
  (r, expected, meter)

let adder bits =
  let b = Builder.create () in
  let x = Word.inputs b ~bits and y = Word.inputs b ~bits in
  Builder.finish b ~outputs:(Word.add b x y)

let test_single_gates () =
  (* AND, XOR, NOT in one circuit, over every input combination. *)
  let b = Builder.create () in
  let x = Builder.input b and y = Builder.input b in
  let c =
    Builder.finish b
      ~outputs:[| Builder.band b x y; Builder.bxor b x y; Builder.bnot b x |]
  in
  List.iter
    (fun (a, bb) ->
      let inputs = Bitvec.of_bool_array [| a; bb |] in
      let r, expected, _ = run_both c ~garbler_bits:1 inputs in
      Alcotest.(check bool)
        (Printf.sprintf "gates (%b,%b)" a bb)
        true
        (Bitvec.equal r.Garble.output expected))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_adder_matches () =
  let c = adder 8 in
  let t = Prng.of_int 0x6A4 in
  for _ = 1 to 10 do
    let inputs = Bitvec.random t 16 in
    let r, expected, _ = run_both c ~garbler_bits:8 inputs in
    Alcotest.(check bool) "adder" true (Bitvec.equal r.Garble.output expected)
  done

let test_divider_matches () =
  let b = Builder.create () in
  let x = Word.inputs b ~bits:8 and y = Word.inputs b ~bits:8 in
  let q, rem = Word.divmod b x y in
  let c = Builder.finish b ~outputs:(Array.append q rem) in
  List.iter
    (fun (a, d) ->
      let inputs = Bitvec.of_int ~bits:16 (a lor (d lsl 8)) in
      let r, expected, _ = run_both c ~garbler_bits:8 inputs in
      Alcotest.(check bool)
        (Printf.sprintf "div %d/%d" a d)
        true
        (Bitvec.equal r.Garble.output expected))
    [ (200, 7); (255, 255); (13, 1) ]

let test_input_split_boundaries () =
  (* All inputs on one side or the other. *)
  let c = adder 6 in
  let t = Prng.of_int 0x6A5 in
  let inputs = Bitvec.random t 12 in
  List.iter
    (fun garbler_bits ->
      let r, expected, _ = run_both c ~garbler_bits inputs in
      Alcotest.(check bool)
        (Printf.sprintf "split %d" garbler_bits)
        true
        (Bitvec.equal r.Garble.output expected))
    [ 0; 12; 5 ]

let test_crypto_mode () =
  let c = adder 4 in
  let inputs = Bitvec.of_int ~bits:8 0b1011_0110 in
  let r, expected, _ = run_both ~mode:Ot_ext.Crypto c ~garbler_bits:4 inputs in
  Alcotest.(check bool) "crypto backend" true (Bitvec.equal r.Garble.output expected)

let test_free_xor_costs_nothing () =
  (* A circuit of XORs only ships zero tables. *)
  let b = Builder.create () in
  let x = Word.inputs b ~bits:16 and y = Word.inputs b ~bits:16 in
  let c = Builder.finish b ~outputs:(Word.logxor b x y) in
  let inputs = Bitvec.of_int ~bits:32 0xDEAD in
  let r, expected, _ = run_both c ~garbler_bits:16 inputs in
  Alcotest.(check bool) "xor result" true (Bitvec.equal r.Garble.output expected);
  Alcotest.(check int) "no tables" 0 r.Garble.and_tables

let test_table_count_equals_and_count () =
  let c = adder 8 in
  let inputs = Bitvec.of_int ~bits:16 0x1234 in
  let r, _, _ = run_both c ~garbler_bits:8 inputs in
  Alcotest.(check int) "tables = ANDs" (Circuit.and_count c) r.Garble.and_tables;
  Alcotest.(check int) "table bytes" (4 * Garble.label_bytes * Circuit.and_count c)
    r.Garble.table_bytes

let test_traffic_metered () =
  let c = adder 8 in
  let inputs = Bitvec.of_int ~bits:16 0xBEEF in
  let r, _, meter = run_both c ~garbler_bits:8 inputs in
  (* Garbler sends at least the tables + its labels. *)
  Alcotest.(check bool) "g->e covers tables" true
    (Xfer.a_to_b meter >= r.Garble.table_bytes + (8 * Garble.label_bytes));
  Alcotest.(check bool) "e->g only OT" true (Xfer.b_to_a meter > 0)

let test_bad_widths_rejected () =
  let c = adder 4 in
  Alcotest.check_raises "bad garbler width"
    (Invalid_argument "Garble.execute: garbler input width") (fun () ->
      ignore
        (Garble.execute grp (Xfer.create ()) c ~garbler_bits:4
           ~garbler_input:(Bitvec.create 2 false)
           ~evaluator_input:(Bitvec.create 4 false) ~seed:"x"))

let prop_garble_matches_plaintext =
  QCheck2.Test.make ~name:"garbled output = plaintext" ~count:25
    QCheck2.Gen.(triple (int_bound 255) (int_bound 255) (int_bound 100000))
    (fun (a, b, seed) ->
      let c =
        let bld = Builder.create () in
        let x = Word.inputs bld ~bits:8 and y = Word.inputs bld ~bits:8 in
        let product = Word.mul_truncated bld x y ~bits:8 in
        let lt = Word.lt bld x y in
        Builder.finish bld ~outputs:(Array.append product [| lt |])
      in
      let inputs = Bitvec.of_int ~bits:16 (a lor (b lsl 8)) in
      let r, expected, _ =
        run_both ~seed:(string_of_int seed) c ~garbler_bits:8 inputs
      in
      Bitvec.equal r.Garble.output expected)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_garble_matches_plaintext ] in
  Alcotest.run "garble"
    [
      ( "correctness",
        [
          Alcotest.test_case "single gates" `Quick test_single_gates;
          Alcotest.test_case "adder" `Quick test_adder_matches;
          Alcotest.test_case "divider" `Quick test_divider_matches;
          Alcotest.test_case "input splits" `Quick test_input_split_boundaries;
          Alcotest.test_case "crypto mode" `Quick test_crypto_mode;
        ] );
      ( "cost",
        [
          Alcotest.test_case "free XOR" `Quick test_free_xor_costs_nothing;
          Alcotest.test_case "tables = ANDs" `Quick test_table_count_equals_and_count;
          Alcotest.test_case "traffic metered" `Quick test_traffic_metered;
        ] );
      ("validation", [ Alcotest.test_case "bad widths" `Quick test_bad_widths_rejected ]);
      ("properties", qsuite);
    ]
