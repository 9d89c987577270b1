open Dstress_util

let prng () = Prng.of_int 0xD57E55

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.of_int 42 and b = Prng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_int_bounds () =
  let t = prng () in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_int_rejects () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound <= 0")
    (fun () -> ignore (Prng.int (prng ()) 0))

let test_prng_bits_range () =
  let t = prng () in
  for n = 0 to 20 do
    for _ = 1 to 50 do
      let v = Prng.bits t n in
      Alcotest.(check bool) "bits in range" true (v >= 0 && v < 1 lsl n)
    done
  done

let test_prng_float_unit_interval () =
  let t = prng () in
  for _ = 1 to 1000 do
    let f = Prng.float t in
    Alcotest.(check bool) "[0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_float_mean () =
  let t = prng () in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float t
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_prng_bool_balanced () =
  let t = prng () in
  let trues = ref 0 in
  for _ = 1 to 10000 do
    if Prng.bool t then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 4500 && !trues < 5500)

let test_prng_sample_without_replacement () =
  let t = prng () in
  for _ = 1 to 100 do
    let s = Prng.sample_without_replacement t 5 10 in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq Stdlib.compare s));
    List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 10)) s
  done

let test_prng_sample_full () =
  let t = prng () in
  let s = Prng.sample_without_replacement t 10 10 in
  Alcotest.(check (list int)) "permutation of 0..9"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.sort Stdlib.compare s)

let test_prng_shuffle_is_permutation () =
  let t = prng () in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort Stdlib.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitvec_roundtrip () =
  List.iter
    (fun v ->
      let bv = Bitvec.of_int ~bits:12 v in
      Alcotest.(check int) "roundtrip" v (Bitvec.to_int bv))
    [ 0; 1; 5; 100; 4095 ]

let test_bitvec_signed () =
  List.iter
    (fun v ->
      let bv = Bitvec.of_int ~bits:12 v in
      Alcotest.(check int) "signed roundtrip" v (Bitvec.to_int_signed bv))
    [ 0; 1; -1; -2048; 2047; -100 ]

let test_bitvec_xor_involution () =
  let t = prng () in
  for _ = 1 to 100 do
    let a = Bitvec.random t 16 and b = Bitvec.random t 16 in
    Alcotest.(check bool) "xor twice" true
      (Bitvec.equal a (Bitvec.xor (Bitvec.xor a b) b))
  done

let test_bitvec_xor_all () =
  let a = Bitvec.of_int ~bits:8 0b1010 in
  let b = Bitvec.of_int ~bits:8 0b0110 in
  let c = Bitvec.of_int ~bits:8 0b0001 in
  Alcotest.(check int) "xor_all" 0b1101 (Bitvec.to_int (Bitvec.xor_all [ a; b; c ]))

let test_bitvec_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitvec.xor") (fun () ->
      ignore (Bitvec.xor (Bitvec.create 3 false) (Bitvec.create 4 false)))

let test_bitvec_set_get () =
  let v = Bitvec.create 8 false in
  let v = Bitvec.set v 3 true in
  Alcotest.(check bool) "set bit" true (Bitvec.get v 3);
  Alcotest.(check bool) "other bit" false (Bitvec.get v 2)

(* ------------------------------------------------------------------ *)
(* Hex                                                                 *)
(* ------------------------------------------------------------------ *)

(* Lowercase hex, the form [Hex.decode]'s callers write by hand. *)
let to_hex b =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let test_hex_roundtrip () =
  let t = prng () in
  for _ = 1 to 50 do
    let b = Bytes.init (Prng.int t 40) (fun _ -> Char.chr (Prng.bits t 8)) in
    Alcotest.(check bytes) "roundtrip" b (Hex.decode (to_hex b))
  done

let test_hex_known () =
  Alcotest.(check bytes) "decode lower" (Bytes.of_string "\xde\xad\xbe\xef")
    (Hex.decode "deadbeef");
  Alcotest.(check bytes) "decode upper" (Bytes.of_string "\xde\xad")
    (Hex.decode "DEAD")

let test_hex_invalid () =
  Alcotest.check_raises "odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_known_vectors () =
  (* The zlib/PNG/Ethernet check value, plus a couple of fixed points. *)
  let crc s = Crc32.digest (Bytes.of_string s) in
  Alcotest.(check int32) "check value" 0xCBF43926l (crc "123456789");
  Alcotest.(check int32) "empty" 0l (crc "");
  Alcotest.(check int32) "single zero byte" 0xD202EF8Dl (crc "\x00");
  Alcotest.(check int32) "ascii" 0x414FA339l (crc "The quick brown fox jumps over the lazy dog")

let test_crc32_detects_flip () =
  let t = prng () in
  for _ = 1 to 50 do
    let b = Bytes.init (1 + Prng.int t 64) (fun _ -> Char.chr (Prng.bits t 8)) in
    let c0 = Crc32.digest b in
    let i = Prng.int t (Bytes.length b) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int t 8)));
    Alcotest.(check bool) "bit flip changes crc" true (Crc32.digest b <> c0)
  done

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (8.75 /. 3.0))
    (Stats.stddev [| 1.0; 2.0; 3.0; 5.0 |])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile xs 25.0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_bitvec_int_roundtrip =
  QCheck2.Test.make ~name:"bitvec of_int/to_int roundtrip" ~count:500
    QCheck2.Gen.(int_bound ((1 lsl 16) - 1))
    (fun v -> Bitvec.to_int (Bitvec.of_int ~bits:16 v) = v)

let prop_bitvec_xor_comm =
  QCheck2.Test.make ~name:"bitvec xor commutative" ~count:200
    QCheck2.Gen.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let va = Bitvec.of_int ~bits:8 a and vb = Bitvec.of_int ~bits:8 b in
      Bitvec.equal (Bitvec.xor va vb) (Bitvec.xor vb va))

let prop_hex_roundtrip =
  QCheck2.Test.make ~name:"hex roundtrip" ~count:200 QCheck2.Gen.string (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (Hex.decode (to_hex b)) b)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [ prop_bitvec_int_roundtrip; prop_bitvec_xor_comm; prop_hex_roundtrip ]
  in
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_prng_int_rejects;
          Alcotest.test_case "bits range" `Quick test_prng_bits_range;
          Alcotest.test_case "float in [0,1)" `Quick test_prng_float_unit_interval;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "bool balanced" `Quick test_prng_bool_balanced;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "sample full range" `Quick test_prng_sample_full;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_is_permutation;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitvec_roundtrip;
          Alcotest.test_case "signed roundtrip" `Quick test_bitvec_signed;
          Alcotest.test_case "xor involution" `Quick test_bitvec_xor_involution;
          Alcotest.test_case "xor_all" `Quick test_bitvec_xor_all;
          Alcotest.test_case "length mismatch" `Quick test_bitvec_length_mismatch;
          Alcotest.test_case "set/get" `Quick test_bitvec_set_get;
        ] );
      ( "hex",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "known vectors" `Quick test_hex_known;
          Alcotest.test_case "invalid input" `Quick test_hex_invalid;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_known_vectors;
          Alcotest.test_case "detects bit flips" `Quick test_crc32_detects_flip;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
        ] );
      ("properties", qsuite);
    ]
