open Dstress_mpc
module Bitvec = Dstress_util.Bitvec
module Prg = Dstress_crypto.Prg
module Group = Dstress_crypto.Group
module Circuit = Dstress_circuit.Circuit
module Builder = Dstress_circuit.Builder
module Word = Dstress_circuit.Word

let grp = Group.by_name "toy"
let prg tag = Prg.of_string ("test-mpc:" ^ tag)

(* ------------------------------------------------------------------ *)
(* Sharing                                                             *)
(* ------------------------------------------------------------------ *)

let test_share_reconstruct () =
  let t = prg "share" in
  for parties = 1 to 8 do
    let v = Prg.bits t 24 in
    let shares = Sharing.share t ~parties v in
    Alcotest.(check int) "share count" parties (Array.length shares);
    Alcotest.(check bool) "reconstructs" true (Bitvec.equal v (Sharing.reconstruct shares))
  done

let test_share_hides () =
  (* Any k of k+1 shares XOR to something independent of the secret: with
     the same PRG stream, sharing 0 and sharing v produce identical first
     k shares. *)
  let v = Bitvec.of_int ~bits:16 12345 in
  let zero = Bitvec.of_int ~bits:16 0 in
  let s1 = Sharing.share (prg "hide") ~parties:4 v in
  let s2 = Sharing.share (prg "hide") ~parties:4 zero in
  for i = 0 to 2 do
    Alcotest.(check bool) "prefix shares equal" true (Bitvec.equal s1.(i) s2.(i))
  done

let test_share_bad_parties () =
  Alcotest.check_raises "parties < 1" (Invalid_argument "Sharing.share: parties < 1")
    (fun () -> ignore (Sharing.share (prg "bad") ~parties:0 (Bitvec.create 4 false)))

(* ------------------------------------------------------------------ *)
(* Traffic                                                             *)
(* ------------------------------------------------------------------ *)

let test_traffic_accounting () =
  let t = Traffic.create 3 in
  Traffic.add t ~src:0 ~dst:1 100;
  Traffic.add t ~src:1 ~dst:0 50;
  Traffic.add t ~src:2 ~dst:1 10;
  Alcotest.(check int) "sent by 0" 100 (Traffic.sent_by t 0);
  Alcotest.(check int) "received by 1" 110 (Traffic.received_by t 1);
  Alcotest.(check int) "by node 1" 160 (Traffic.by_node t 1);
  Alcotest.(check int) "total" 160 (Traffic.total t);
  Alcotest.(check int) "max per node" 160 (Traffic.max_per_node t)

let test_traffic_merge_clear () =
  let a = Traffic.create 2 and b = Traffic.create 2 in
  Traffic.add a ~src:0 ~dst:1 5;
  Traffic.add b ~src:0 ~dst:1 7;
  Traffic.merge_into ~dst:a b;
  Alcotest.(check int) "merged" 12 (Traffic.total a);
  Traffic.clear a;
  Alcotest.(check int) "cleared" 0 (Traffic.total a)

let test_traffic_bounds () =
  let t = Traffic.create 2 in
  Alcotest.check_raises "bad party" (Invalid_argument "Traffic.add: party out of range")
    (fun () -> Traffic.add t ~src:0 ~dst:5 1)

let test_traffic_external_row () =
  (* Bytes from outside the party set (the TP's setup download) live on a
     dedicated row: they count as received but are never sent by anyone,
     and the matrix iterator does not visit them. *)
  let t = Traffic.create 3 in
  Traffic.add t ~src:0 ~dst:1 100;
  Traffic.add_external t ~dst:1 40;
  Traffic.add_external t ~dst:2 5;
  Alcotest.(check int) "external to 1" 40 (Traffic.external_to t 1);
  Alcotest.(check int) "external total" 45 (Traffic.external_total t);
  Alcotest.(check int) "received includes external" 140 (Traffic.received_by t 1);
  Alcotest.(check int) "sent excludes external" 0 (Traffic.sent_by t 1);
  Alcotest.(check int) "by_node counts external once" 140 (Traffic.by_node t 1);
  Alcotest.(check int) "total includes external" 145 (Traffic.total t);
  let visited = ref 0 in
  Traffic.iter_nonzero t (fun ~src:_ ~dst:_ _ -> incr visited);
  Alcotest.(check int) "iterator skips external row" 1 !visited;
  let u = Traffic.create 3 in
  Traffic.add_external u ~dst:0 7;
  Traffic.merge_into ~dst:t u;
  Alcotest.(check int) "merge carries external" 52 (Traffic.external_total t);
  Traffic.clear t;
  Alcotest.(check int) "clear resets external" 0 (Traffic.external_total t);
  Alcotest.check_raises "bad external party"
    (Invalid_argument "Traffic.add_external: party out of range") (fun () ->
      Traffic.add_external t ~dst:9 1)

(* ------------------------------------------------------------------ *)
(* GMW vs plaintext evaluation                                         *)
(* ------------------------------------------------------------------ *)

(* Run a circuit both in plaintext and under GMW with [parties] parties,
   and check the reconstructed outputs agree. *)
let gmw_matches_plaintext ?(mode = Dstress_crypto.Ot_ext.Simulation) ~parties circuit inputs =
  let session = Gmw.create_session ~mode grp ~parties ~seed:"match" in
  let input_shares = Gmw.share_input session inputs in
  let out_shares = Gmw.eval session (Plan.compile circuit) ~input_shares in
  let got = Sharing.reconstruct out_shares in
  let expected = Bitvec.of_bool_array (Circuit.eval circuit (Bitvec.to_bool_array inputs)) in
  Bitvec.equal got expected

let adder_circuit bits =
  let b = Builder.create () in
  let x = Word.inputs b ~bits in
  let y = Word.inputs b ~bits in
  Builder.finish b ~outputs:(Word.add b x y)

let test_gmw_single_and () =
  let b = Builder.create () in
  let x = Builder.input b and y = Builder.input b in
  let c = Builder.finish b ~outputs:[| Builder.band b x y |] in
  List.iter
    (fun (a, bb) ->
      let inputs = Bitvec.of_bool_array [| a; bb |] in
      Alcotest.(check bool)
        (Printf.sprintf "and %b %b" a bb)
        true
        (gmw_matches_plaintext ~parties:3 c inputs))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_gmw_adder () =
  let c = adder_circuit 8 in
  let t = prg "adder" in
  for _ = 1 to 10 do
    let inputs = Prg.bits t 16 in
    Alcotest.(check bool) "adder matches" true (gmw_matches_plaintext ~parties:3 c inputs)
  done

let test_gmw_adder_crypto_mode () =
  (* Full cryptographic path (real base OTs + SHA hashes), small case. *)
  let c = adder_circuit 4 in
  let inputs = Bitvec.of_int ~bits:8 0b0110_1011 in
  Alcotest.(check bool) "crypto mode matches" true
    (gmw_matches_plaintext ~mode:Dstress_crypto.Ot_ext.Crypto ~parties:2 c inputs)

let test_gmw_many_parties () =
  let c = adder_circuit 6 in
  let t = prg "many" in
  List.iter
    (fun parties ->
      let inputs = Prg.bits t 12 in
      Alcotest.(check bool)
        (Printf.sprintf "%d parties" parties)
        true
        (gmw_matches_plaintext ~parties c inputs))
    [ 2; 4; 8; 12 ]

let test_gmw_multiplier () =
  let b = Builder.create () in
  let x = Word.inputs b ~bits:6 and y = Word.inputs b ~bits:6 in
  let c = Builder.finish b ~outputs:(Word.mul b x y) in
  let t = prg "mul" in
  for _ = 1 to 5 do
    let inputs = Prg.bits t 12 in
    Alcotest.(check bool) "multiplier matches" true (gmw_matches_plaintext ~parties:3 c inputs)
  done

let test_gmw_divider () =
  let b = Builder.create () in
  let x = Word.inputs b ~bits:8 and y = Word.inputs b ~bits:8 in
  let q, r = Word.divmod b x y in
  let c = Builder.finish b ~outputs:(Array.append q r) in
  List.iter
    (fun (a, d) ->
      let inputs = Bitvec.of_int ~bits:16 (a lor (d lsl 8)) in
      Alcotest.(check bool)
        (Printf.sprintf "divide %d/%d" a d)
        true
        (gmw_matches_plaintext ~parties:3 c inputs))
    [ (200, 7); (13, 13); (255, 1); (0, 5) ]

let test_gmw_rounds_equal_depth () =
  let c = adder_circuit 8 in
  let session = Gmw.create_session ~mode:Dstress_crypto.Ot_ext.Simulation grp ~parties:3 ~seed:"depth" in
  let input_shares = Gmw.share_input session (Bitvec.of_int ~bits:16 0xBEEF) in
  ignore (Gmw.eval session (Plan.compile c) ~input_shares);
  Alcotest.(check int) "rounds = AND depth" (Circuit.and_depth c) (Gmw.rounds session)

let test_gmw_and_count_accounting () =
  let c = adder_circuit 8 in
  let session = Gmw.create_session ~mode:Dstress_crypto.Ot_ext.Simulation grp ~parties:4 ~seed:"acct" in
  let input_shares = Gmw.share_input session (Bitvec.of_int ~bits:16 0x1234) in
  ignore (Gmw.eval session (Plan.compile c) ~input_shares);
  Alcotest.(check int) "and gates" (Circuit.and_count c) (Gmw.and_gates_evaluated session);
  (* Every AND gate needs one OT per ordered pair: n(n-1). *)
  Alcotest.(check int) "ots" (Circuit.and_count c * 4 * 3) (Gmw.ots_performed session)

let test_gmw_traffic_scales_with_parties () =
  let c = adder_circuit 8 in
  let run parties =
    let session = Gmw.create_session ~mode:Dstress_crypto.Ot_ext.Simulation grp ~parties ~seed:"scale" in
    let input_shares = Gmw.share_input session (Bitvec.of_int ~bits:16 0xCAFE) in
    ignore (Gmw.eval session (Plan.compile c) ~input_shares);
    Traffic.total (Gmw.traffic session)
  in
  let t3 = run 3 and t6 = run 6 in
  (* Total traffic grows quadratically in the party count. *)
  Alcotest.(check bool) "superlinear growth" true (t6 > 3 * t3)

let test_gmw_outputs_stay_shared () =
  (* No single party's output share should equal the cleartext result in
     general; verify shares differ across parties and reconstruct. *)
  let c = adder_circuit 8 in
  let session = Gmw.create_session ~mode:Dstress_crypto.Ot_ext.Simulation grp ~parties:3 ~seed:"shared" in
  let inputs = Bitvec.of_int ~bits:16 (77 lor (88 lsl 8)) in
  let out_shares = Gmw.eval session (Plan.compile c) ~input_shares:(Gmw.share_input session inputs) in
  Alcotest.(check int) "reconstruction" ((77 + 88) land 255)
    (Bitvec.to_int (Sharing.reconstruct out_shares))

let test_gmw_reveal_meters () =
  let c = adder_circuit 8 in
  let session = Gmw.create_session ~mode:Dstress_crypto.Ot_ext.Simulation grp ~parties:3 ~seed:"reveal" in
  let inputs = Bitvec.of_int ~bits:16 (1 lor (2 lsl 8)) in
  let out_shares = Gmw.eval session (Plan.compile c) ~input_shares:(Gmw.share_input session inputs) in
  Gmw.reset_traffic session;
  let v = Gmw.reveal session out_shares in
  Alcotest.(check int) "revealed value" 3 (Bitvec.to_int v);
  Alcotest.(check int) "broadcast bytes" (3 * 2 * 1) (Traffic.total (Gmw.traffic session))

let test_gmw_input_shape_errors () =
  let c = adder_circuit 4 in
  let session = Gmw.create_session ~mode:Dstress_crypto.Ot_ext.Simulation grp ~parties:3 ~seed:"err" in
  Alcotest.check_raises "wrong party count"
    (Invalid_argument "Gmw.eval: need one input share vector per party") (fun () ->
      ignore (Gmw.eval session (Plan.compile c) ~input_shares:[| Bitvec.create 8 false |]));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Gmw.eval: input share length mismatch") (fun () ->
      ignore
        (Gmw.eval session (Plan.compile c)
           ~input_shares:(Array.make 3 (Bitvec.create 5 false))))

let test_gmw_rejects_one_party () =
  Alcotest.check_raises "parties < 2" (Invalid_argument "Gmw.create_session: parties < 2")
    (fun () -> ignore (Gmw.create_session grp ~parties:1 ~seed:"x"))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_gmw_adder =
  QCheck2.Test.make ~name:"gmw adder matches plaintext" ~count:20
    QCheck2.Gen.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let c = adder_circuit 8 in
      let inputs = Bitvec.of_int ~bits:16 (a lor (b lsl 8)) in
      gmw_matches_plaintext ~parties:3 c inputs)

let prop_gmw_comparator =
  QCheck2.Test.make ~name:"gmw comparator matches plaintext" ~count:20
    QCheck2.Gen.(pair (int_bound 255) (int_bound 255))
    (fun (a, b) ->
      let bld = Builder.create () in
      let x = Word.inputs bld ~bits:8 and y = Word.inputs bld ~bits:8 in
      let c = Builder.finish bld ~outputs:[| Word.lt bld x y |] in
      let inputs = Bitvec.of_int ~bits:16 (a lor (b lsl 8)) in
      gmw_matches_plaintext ~parties:4 c inputs)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_gmw_adder; prop_gmw_comparator ] in
  Alcotest.run "mpc"
    [
      ( "sharing",
        [
          Alcotest.test_case "share/reconstruct" `Quick test_share_reconstruct;
          Alcotest.test_case "prefix hides secret" `Quick test_share_hides;
          Alcotest.test_case "bad party count" `Quick test_share_bad_parties;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "accounting" `Quick test_traffic_accounting;
          Alcotest.test_case "merge/clear" `Quick test_traffic_merge_clear;
          Alcotest.test_case "bounds" `Quick test_traffic_bounds;
          Alcotest.test_case "external row" `Quick test_traffic_external_row;
        ] );
      ( "gmw",
        [
          Alcotest.test_case "single AND" `Quick test_gmw_single_and;
          Alcotest.test_case "adder" `Quick test_gmw_adder;
          Alcotest.test_case "adder (crypto mode)" `Quick test_gmw_adder_crypto_mode;
          Alcotest.test_case "many parties" `Quick test_gmw_many_parties;
          Alcotest.test_case "multiplier" `Quick test_gmw_multiplier;
          Alcotest.test_case "divider" `Quick test_gmw_divider;
          Alcotest.test_case "rounds = depth" `Quick test_gmw_rounds_equal_depth;
          Alcotest.test_case "and/ot accounting" `Quick test_gmw_and_count_accounting;
          Alcotest.test_case "traffic scales" `Quick test_gmw_traffic_scales_with_parties;
          Alcotest.test_case "outputs stay shared" `Quick test_gmw_outputs_stay_shared;
          Alcotest.test_case "reveal meters" `Quick test_gmw_reveal_meters;
          Alcotest.test_case "input shape errors" `Quick test_gmw_input_shape_errors;
          Alcotest.test_case "rejects one party" `Quick test_gmw_rejects_one_party;
        ] );
      ("properties", qsuite);
    ]
