open Dstress_transfer
module Group = Dstress_crypto.Group
module Prg = Dstress_crypto.Prg
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Schnorr = Dstress_crypto.Schnorr
module Nat = Dstress_bignum.Nat
module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Traffic = Dstress_mpc.Traffic
module Sharing = Dstress_mpc.Sharing

let grp = Group.by_name "toy"
let prg tag = Prg.of_string ("test-transfer:" ^ tag)

let small_setup =
  lazy (Setup.run (prg "setup") grp ~n:8 ~k:2 ~degree_bound:3 ~bits:8)

let table = lazy (Exp_elgamal.Table.make grp ~lo:(-300) ~hi:320)

let params () = { Protocol.alpha = 0.5; table = Lazy.force table }

(* [s] with node [i]'s state rewritten by [f]: a forged setup. *)
let with_node s i f =
  let nodes = Array.copy s.Setup.nodes in
  nodes.(i) <- f nodes.(i);
  { s with Setup.nodes }

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

let test_setup_shapes () =
  let s = Lazy.force small_setup in
  Alcotest.(check int) "node count" 8 (Array.length s.Setup.nodes);
  Array.iter
    (fun ns ->
      Alcotest.(check int) "block size" 3 (Array.length ns.Setup.block);
      Alcotest.(check int) "first member is owner" ns.Setup.node ns.Setup.block.(0);
      Alcotest.(check int) "cert count" 3 (Array.length ns.Setup.certificates);
      Alcotest.(check int) "neighbor keys" 3 (Array.length ns.Setup.neighbor_keys);
      (* members distinct *)
      let sorted = List.sort_uniq compare (Array.to_list ns.Setup.block) in
      Alcotest.(check int) "distinct members" 3 (List.length sorted))
    s.Setup.nodes;
  Alcotest.(check int) "agg block size" 3 (Array.length s.Setup.agg_block)

let test_setup_roster_verifies () =
  let s = Lazy.force small_setup in
  Alcotest.(check bool) "roster signature" true (Setup.verify_roster s)

let test_setup_certificates_verify () =
  let s = Lazy.force small_setup in
  Array.iter
    (fun ns ->
      Array.iter
        (fun cert ->
          Alcotest.(check bool) "certificate verifies" true (Setup.verify_certificate s cert))
        ns.Setup.certificates)
    s.Setup.nodes

let test_setup_tampered_certificate_fails () =
  let s = Lazy.force small_setup in
  let cert = s.Setup.nodes.(0).Setup.certificates.(0) in
  let refused what member_keys =
    Alcotest.(check bool) what false (Setup.verify_certificate s { cert with Setup.member_keys })
  in
  refused "tampered fails"
    (Array.map (Array.map (fun k -> Group.mul grp k (Group.g grp))) cert.Setup.member_keys);
  (* A key wider than an element has no signed encoding. *)
  let wide = Nat.shift_left (Group.p grp) 8 in
  refused "over-wide key fails"
    (Array.mapi (fun m -> Array.mapi (fun b k -> if m + b = 0 then wide else k))
       cert.Setup.member_keys);
  (* The same keys cut into 4 members of 6, not 3 of 8, encode to the
     signed bytes. *)
  let flat = Array.concat (Array.to_list cert.Setup.member_keys) in
  refused "reshaped keys fail" (Array.init 4 (fun m -> Array.sub flat (6 * m) 6));
  (* Nothing verifies under a trusted-party key wider than an element. *)
  let s = { s with Setup.tp_public = wide } in
  Alcotest.(check bool) "over-wide tp key: certificate" false (Setup.verify_certificate s cert);
  Alcotest.(check bool) "over-wide tp key: roster" false (Setup.verify_roster s);
  Alcotest.check_raises "over-wide tp key: keys"
    (Protocol.Bad_certificate { receiver = 0; neighbor_slot = 0 }) (fun () ->
      ignore (Protocol.keys s ~receiver:0 ~neighbor_slot:0))

(* [s] with node [i]'s block rewritten by [f]. *)
let with_block s i f = with_node s i (fun ns -> { ns with Setup.block = f ns.Setup.block })

let test_setup_roster_rejects_swapped_member () =
  let s = Lazy.force small_setup in
  let refused what forged = Alcotest.(check bool) what false (Setup.verify_roster forged) in
  let last b = b.(Array.length b - 1) and drop_last b = Array.sub b 0 (Array.length b - 1) in
  (* Node 4's block with its last member swapped for a node outside it. *)
  refused "swapped member"
    (with_block s 4 (fun b ->
         let outsider = List.find (fun v -> not (Array.mem v b)) (List.init s.Setup.n Fun.id) in
         Array.append (drop_last b) [| outsider |]));
  (* An id that wraps its 4-byte field would encode as the genuine one. *)
  refused "wrapped id"
    (with_block s 4 (Array.mapi (fun i v -> if i = 0 then v + (1 lsl 32) else v)));
  (* Moving a block's last member to the front of the next block, or the
     last block's into the aggregation block, keeps the run of ids. *)
  let moved i = [| last (Setup.block_of s i) |] and n = s.Setup.n in
  refused "moved member" (with_block (with_block s 0 drop_last) 1 (Array.append (moved 0)));
  refused "moved into the aggregation block"
    { (with_block s (n - 1) drop_last) with
      Setup.agg_block = Array.append (moved (n - 1)) s.Setup.agg_block };
  refused "block moved into the aggregation block"
    { s with
      Setup.nodes = Array.sub s.Setup.nodes 0 (n - 1);
      agg_block = Array.append (Setup.block_of s (n - 1)) s.Setup.agg_block };
  (* The same 27 ids read as n = 2 blocks of k + 1 = 9, then an
     aggregation block of 9: only the signed n and k tell them apart. *)
  let ids = Array.concat (List.init n (Setup.block_of s) @ [ s.Setup.agg_block ]) in
  let nine i = Array.sub ids (9 * i) 9 in
  refused "n and k changed"
    { s with
      Setup.n = 2;
      k = 8;
      nodes = Array.init 2 (fun i -> { s.Setup.nodes.(i) with Setup.block = nine i });
      agg_block = nine 2 }

(* σTP signs fixed-width fields: a kind byte, 4-byte ids and keys padded
   to the group's element width. *)
let test_setup_signed_lengths () =
  List.iter
    (fun (name, n, k, bits) ->
      let g = Group.by_name name in
      let s = Setup.run (prg "lengths") g ~n ~k ~degree_bound:2 ~bits in
      let check what want msg =
        Alcotest.(check int) (name ^ " " ^ what) want (String.length msg)
      in
      Array.iter
        (fun ns ->
          Array.iter
            (fun { Setup.owner; neighbor_slot; member_keys; _ } ->
              check "certificate" (9 + ((k + 1) * bits * Group.element_bytes g))
                (Setup.certificate_message g ~owner ~neighbor_slot member_keys))
            ns.Setup.certificates)
        s.Setup.nodes;
      check "roster" (9 + (4 * (n + 1) * (k + 1)))
        (Setup.roster_message ~n ~k (Array.init n (Setup.block_of s)) s.Setup.agg_block))
    [ ("toy", 8, 2, 8); ("medium", 5, 1, 12); ("standard", 4, 3, 4) ]

let test_setup_certificate_keys_rerandomized () =
  (* cert key = public key ^ neighbor_key, for every member and bit. *)
  let s = Lazy.force small_setup in
  let ns = s.Setup.nodes.(2) in
  Array.iteri
    (fun slot cert ->
      let r = ns.Setup.neighbor_keys.(slot) in
      Array.iteri
        (fun mi member ->
          let pubs = s.Setup.nodes.(member).Setup.keys.Keys.publics in
          Array.iteri
            (fun t pk ->
              Alcotest.(check bool) "key matches pk^r" true
                (Group.elt_equal (Group.pow grp pk r) cert.Setup.member_keys.(mi).(t)))
            pubs)
        ns.Setup.block)
    ns.Setup.certificates

let test_setup_rejects_bad_params () =
  Alcotest.(check bool) "k+1 > n" true
    (try
       ignore (Setup.run (prg "bad") grp ~n:2 ~k:5 ~degree_bound:1 ~bits:4);
       false
     with Invalid_argument _ -> true)

let test_setup_member_index () =
  let s = Lazy.force small_setup in
  let block = Setup.block_of s 4 in
  Array.iteri
    (fun i m -> Alcotest.(check int) "index" i (Setup.member_index s ~block_owner:4 ~node:m))
    block

let test_setup_traffic_positive () =
  let s = Lazy.force small_setup in
  Alcotest.(check bool) "setup traffic > 0" true (Setup.setup_traffic_bytes s > 0)

(* ------------------------------------------------------------------ *)
(* Protocol: correctness (Theorem 1)                                   *)
(* ------------------------------------------------------------------ *)

let run_transfer ?(variant = Protocol.Final) ?(message = 0xA7) () =
  let s = Lazy.force small_setup in
  let sender = 1 and receiver = 5 in
  let m = Bitvec.of_int ~bits:8 message in
  let shares = Sharing.share (prg "msg") ~parties:3 m in
  let traffic = Traffic.create 8 in
  let outcome =
    Protocol.transfer (params ()) ~prg:(prg "run") ~noise:(Prng.of_int 0x11) ~traffic
      ~variant ~setup:s ~sender ~receiver ~neighbor_slot:1 ~shares
  in
  (m, shares, outcome, traffic)

let test_transfer_correct_all_variants () =
  List.iter
    (fun (name, variant) ->
      List.iter
        (fun message ->
          let m, _, outcome, _ = run_transfer ~variant ~message () in
          Alcotest.(check int) (name ^ " no failures") 0 outcome.Protocol.failures;
          Alcotest.(check bool)
            (Printf.sprintf "%s preserves message %#x" name message)
            true
            (Bitvec.equal m (Sharing.reconstruct outcome.Protocol.shares)))
        [ 0x00; 0x01; 0xA7; 0xFF ])
    [
      ("strawman1", Protocol.Strawman1);
      ("strawman2", Protocol.Strawman2);
      ("strawman3", Protocol.Strawman3);
      ("final", Protocol.Final);
    ]

let test_transfer_shares_change () =
  (* The new shares must be a fresh sharing, not the old one shipped
     across (subsharing re-randomizes). *)
  let _, old_shares, outcome, _ = run_transfer ~variant:Protocol.Final () in
  let same =
    Array.for_all2 (fun a b -> Bitvec.equal a b) old_shares outcome.Protocol.shares
  in
  Alcotest.(check bool) "shares re-randomized" false same

let test_transfer_repeated_messages () =
  let t = Prng.of_int 0x77 in
  for _ = 1 to 10 do
    let message = Prng.int t 256 in
    let m, _, outcome, _ = run_transfer ~variant:Protocol.Final ~message () in
    Alcotest.(check bool) "roundtrip" true
      (Bitvec.equal m (Sharing.reconstruct outcome.Protocol.shares))
  done

let test_transfer_bad_shapes () =
  let s = Lazy.force small_setup in
  let traffic = Traffic.create 8 in
  Alcotest.check_raises "wrong share count"
    (Invalid_argument "Protocol.transfer: wrong share count") (fun () ->
      ignore
        (Protocol.transfer (params ()) ~prg:(prg "bad") ~noise:(Prng.of_int 1) ~traffic
           ~variant:Protocol.Final ~setup:s ~sender:0 ~receiver:1 ~neighbor_slot:0
           ~shares:[| Bitvec.create 8 false |]));
  Alcotest.check_raises "bad slot" (Invalid_argument "Protocol.transfer: bad neighbor slot")
    (fun () ->
      ignore
        (Protocol.transfer (params ()) ~prg:(prg "bad2") ~noise:(Prng.of_int 1) ~traffic
           ~variant:Protocol.Final ~setup:s ~sender:0 ~receiver:1 ~neighbor_slot:9
           ~shares:(Array.make 3 (Bitvec.create 8 false))))

let test_transfer_tiny_table_fails () =
  (* A lookup table too small for the noise range must produce decryption
     failures (the P_fail event of Appendix B). *)
  let s = Lazy.force small_setup in
  let tiny = { Protocol.alpha = 0.9; table = Exp_elgamal.Table.make grp ~lo:0 ~hi:3 } in
  let m = Bitvec.of_int ~bits:8 0x5A in
  let shares = Sharing.share (prg "tiny") ~parties:3 m in
  let traffic = Traffic.create 8 in
  let outcome =
    Protocol.transfer tiny ~prg:(prg "tiny-run") ~noise:(Prng.of_int 3) ~traffic
      ~variant:Protocol.Final ~setup:s ~sender:1 ~receiver:5 ~neighbor_slot:0 ~shares
  in
  Alcotest.(check bool) "failures occurred" true (outcome.Protocol.failures > 0)

(* A Final transfer on the 256-bit group through installed keys: the
   comb tables are built once and reused, as the engine reuses them for
   every round of an edge, and give the same shares as tables built for
   the call alone. *)
let test_transfer_final_standard () =
  let std = Group.by_name "standard" in
  let s = Setup.run (prg "std-setup") std ~n:5 ~k:2 ~degree_bound:2 ~bits:8 in
  let params = { Protocol.alpha = 0.5; table = Exp_elgamal.Table.make std ~lo:(-120) ~hi:123 } in
  let keys = Protocol.keys s ~receiver:3 ~neighbor_slot:1 in
  let transfer ?keys tag message =
    let m = Bitvec.of_int ~bits:8 message in
    let shares = Sharing.share (prg ("std-msg:" ^ tag)) ~parties:3 m in
    let o =
      Protocol.transfer ?keys params ~prg:(prg ("std-run:" ^ tag)) ~noise:(Prng.of_int 0x57D)
        ~traffic:(Traffic.create 5) ~variant:Protocol.Final ~setup:s ~sender:0 ~receiver:3
        ~neighbor_slot:1 ~shares
    in
    Alcotest.(check int) (tag ^ " no misses") 0 o.Protocol.failures;
    Alcotest.(check int) (tag ^ " nothing unrecovered") 0 o.Protocol.unrecovered;
    Alcotest.(check bool) (tag ^ " reconstructs") true
      (Bitvec.equal m (Sharing.reconstruct o.Protocol.shares));
    o
  in
  let first = transfer ~keys "a" 0xA7 in
  ignore (transfer ~keys "b" 0x3C);
  let fresh = transfer "a" 0xA7 in
  Array.iteri
    (fun y sh ->
      Alcotest.(check bool) (Printf.sprintf "share %d as with fresh tables" y) true
        (Bitvec.equal sh fresh.Protocol.shares.(y)))
    first.Protocol.shares;
  Alcotest.check_raises "keys of another slot"
    (Invalid_argument "Protocol.transfer: keys of another certificate") (fun () ->
      ignore
        (Protocol.transfer ~keys params ~prg:(prg "std-bad") ~noise:(Prng.of_int 1)
           ~traffic:(Traffic.create 5) ~variant:Protocol.Final ~setup:s ~sender:0
           ~receiver:3 ~neighbor_slot:0
           ~shares:(Array.make 3 (Bitvec.create 8 false))))

(* [s] with [receiver]'s certificate [slot] rewritten by [f]. *)
let with_certificate s ~receiver ~slot f =
  with_node s receiver (fun ns ->
      let certificates = Array.copy ns.Setup.certificates in
      certificates.(slot) <- f certificates.(slot);
      { ns with Setup.certificates })

(* A forged certificate 5/1 is refused where it is installed, by
   [Protocol.keys] and by a transfer that installs it itself; node 5's
   other certificates still install. *)
let check_certificate_rejected forged =
  let rejected = Protocol.Bad_certificate { receiver = 5; neighbor_slot = 1 } in
  Alcotest.check_raises "keys" rejected (fun () ->
      ignore (Protocol.keys forged ~receiver:5 ~neighbor_slot:1));
  Alcotest.check_raises "transfer" rejected (fun () ->
      ignore
        (Protocol.transfer (params ()) ~prg:(prg "forged") ~noise:(Prng.of_int 1)
           ~traffic:(Traffic.create 8) ~variant:Protocol.Final ~setup:forged ~sender:1
           ~receiver:5 ~neighbor_slot:1
           ~shares:(Array.make 3 (Bitvec.create 8 false))));
  ignore (Protocol.keys forged ~receiver:5 ~neighbor_slot:0)

let test_keys_reject_replaced_member_key () =
  let attacker = Group.pow_g grp (Group.random_exponent (prg "attacker") grp) in
  check_certificate_rejected
    (with_certificate (Lazy.force small_setup) ~receiver:5 ~slot:1 (fun cert ->
         let keys = Array.map Array.copy cert.Setup.member_keys in
         keys.(1).(2) <- attacker;
         { cert with Setup.member_keys = keys }))

let test_keys_reject_bumped_signature () =
  check_certificate_rejected
    (with_certificate (Lazy.force small_setup) ~receiver:5 ~slot:1 (fun cert ->
         let sg = cert.Setup.signature in
         { cert with
           Setup.signature =
             { sg with Schnorr.response = Group.exp_add grp sg.Schnorr.response Nat.one } }))

(* ------------------------------------------------------------------ *)
(* Protocol: traffic accounting                                        *)
(* ------------------------------------------------------------------ *)

let test_transfer_traffic_matches_formula () =
  List.iter
    (fun (name, variant) ->
      let _, _, _, traffic = run_transfer ~variant () in
      let _, _, _, expected_total =
        Protocol.expected_bytes variant ~k:2 ~bits:8 ~element_bytes:(Group.element_bytes grp)
      in
      Alcotest.(check int) (name ^ " total bytes") expected_total (Traffic.total traffic))
    [
      ("strawman1", Protocol.Strawman1);
      ("strawman2", Protocol.Strawman2);
      ("strawman3", Protocol.Strawman3);
      ("final", Protocol.Final);
    ]

let test_transfer_final_cheaper_than_strawman2 () =
  (* The homomorphic combine shrinks i->j and j->B_j traffic. *)
  let _, _, _, t2 = run_transfer ~variant:Protocol.Strawman2 () in
  let _, _, _, tf = run_transfer ~variant:Protocol.Final () in
  Alcotest.(check bool) "final cheaper" true (Traffic.total tf < Traffic.total t2)

let test_transfer_receiver_traffic_constant_in_k () =
  (* §5.3: "The nodes in B_j each receive a single encrypted share,
     regardless of the block size". Verified via the closed form. *)
  let per_receiver k =
    let _, _, r, _ =
      Protocol.expected_bytes Protocol.Final ~k ~bits:12 ~element_bytes:48
    in
    r
  in
  Alcotest.(check int) "k=7 vs k=19" (per_receiver 7) (per_receiver 19)

(* ------------------------------------------------------------------ *)
(* Side channel: strawman 3 vs final                                   *)
(* ------------------------------------------------------------------ *)

let test_strawman3_sums_exact () =
  (* Without noise the recipients see the exact bit-sums: all values lie
     in [0, k+1] — a recognizable, attributable signal. *)
  let _, _, outcome, _ = run_transfer ~variant:Protocol.Strawman3 () in
  match outcome.Protocol.sums with
  | None -> Alcotest.fail "expected sums"
  | Some sums ->
      Array.iter
        (Array.iter (fun v ->
             Alcotest.(check bool) "sum in [0,3]" true (v >= 0 && v <= 3)))
        sums

let test_final_sums_noised () =
  (* With noise, some observed sums fall outside [0, k+1] — the signal is
     no longer the raw count — while parity (hence the message) is
     preserved. *)
  let outside = ref 0 in
  let t = Prng.of_int 0x5EED in
  for trial = 1 to 20 do
    let s = Lazy.force small_setup in
    let m = Bitvec.of_int ~bits:8 (Prng.int t 256) in
    let shares = Sharing.share (prg ("noised" ^ string_of_int trial)) ~parties:3 m in
    let traffic = Traffic.create 8 in
    let outcome =
      Protocol.transfer (params ())
        ~prg:(prg ("run-noised" ^ string_of_int trial))
        ~noise:(Prng.of_int (trial * 97))
        ~traffic ~variant:Protocol.Final ~setup:s ~sender:1 ~receiver:5 ~neighbor_slot:0
        ~shares
    in
    (match outcome.Protocol.sums with
    | None -> Alcotest.fail "expected sums"
    | Some sums ->
        Array.iter (Array.iter (fun v -> if v < 0 || v > 3 then incr outside)) sums);
    Alcotest.(check bool) "message still correct" true
      (Bitvec.equal m (Sharing.reconstruct outcome.Protocol.shares))
  done;
  Alcotest.(check bool) "noise visible" true (!outside > 0)

let test_final_noise_is_even () =
  (* The added noise must be even: observed sum and true subshare-bit sum
     share parity. We verify indirectly — messages always reconstruct —
     and directly on the mechanism in test_dp. Here: across many
     transfers, no parity error ever occurs. *)
  let t = Prng.of_int 0xE7E4 in
  for trial = 1 to 10 do
    let message = Prng.int t 256 in
    let m, _, outcome, _ = run_transfer ~variant:Protocol.Final ~message () in
    ignore trial;
    Alcotest.(check bool) "parity preserved" true
      (Bitvec.equal m (Sharing.reconstruct outcome.Protocol.shares))
  done

(* ------------------------------------------------------------------ *)
(* Edge privacy accounting (Appendix B)                                *)
(* ------------------------------------------------------------------ *)

let test_edge_privacy_paper_numbers () =
  let cfg = Edge_privacy.paper_example in
  Alcotest.(check int) "Delta = 20" 20 (Edge_privacy.sensitivity cfg);
  (* N_q = 369.6e9: the paper rounds to "about 370 billion". *)
  let n_q = Edge_privacy.total_transfers cfg in
  Alcotest.(check bool) "N_q ~ 370e9" true (abs_float (n_q -. 369.6e9) < 1e9);
  (* With the paper's N_l ~ 230e6, eps/transfer ~ 2.34e-7 and the budget
     numbers of Appendix B follow. *)
  let alpha = Edge_privacy.max_alpha cfg ~table_entries:230e6 in
  let eps = Edge_privacy.per_transfer_epsilon ~alpha in
  Alcotest.(check bool) "eps/transfer ~ 2.3e-7" true
    (eps > 1.8e-7 && eps < 2.8e-7);
  let per_iter = Edge_privacy.per_iteration_epsilon cfg ~alpha in
  Alcotest.(check bool) "eps/iteration ~ 0.0014" true
    (per_iter > 0.0011 && per_iter < 0.0018);
  let yearly = Edge_privacy.yearly_epsilon cfg ~alpha in
  Alcotest.(check bool) "eps/year ~ 0.047" true (yearly > 0.037 && yearly < 0.058)

let test_edge_privacy_analyze_consistent () =
  let r = Edge_privacy.analyze Edge_privacy.paper_example in
  Alcotest.(check bool) "alpha in (0,1)" true (r.Edge_privacy.alpha > 0.0 && r.Edge_privacy.alpha < 1.0);
  Alcotest.(check (float 1e-12)) "eps consistency"
    (r.Edge_privacy.eps_per_iteration *. 33.0)
    r.Edge_privacy.eps_per_year;
  (* Failure constraint actually satisfied. *)
  let pfail =
    Dstress_dp.Mechanism.failure_probability ~alpha:r.Edge_privacy.alpha
      ~table_entries:(int_of_float r.Edge_privacy.n_l)
  in
  Alcotest.(check bool) "P_fail <= 1/N_q" true (pfail <= 1.0 /. r.Edge_privacy.n_q *. 1.01)

let test_edge_privacy_more_ram_less_noise_needed () =
  (* Bigger lookup tables tolerate more noise: alpha_max increases. *)
  let cfg = Edge_privacy.paper_example in
  let a_small = Edge_privacy.max_alpha cfg ~table_entries:1e6 in
  let a_big = Edge_privacy.max_alpha cfg ~table_entries:1e9 in
  Alcotest.(check bool) "monotone in table size" true (a_big > a_small)

let () =
  Alcotest.run "transfer"
    [
      ( "setup",
        [
          Alcotest.test_case "shapes" `Quick test_setup_shapes;
          Alcotest.test_case "roster verifies" `Quick test_setup_roster_verifies;
          Alcotest.test_case "certificates verify" `Quick test_setup_certificates_verify;
          Alcotest.test_case "tampered cert fails" `Quick test_setup_tampered_certificate_fails;
          Alcotest.test_case "roster rejects swapped member" `Quick
            test_setup_roster_rejects_swapped_member;
          Alcotest.test_case "signed message lengths" `Quick test_setup_signed_lengths;
          Alcotest.test_case "keys re-randomized" `Quick test_setup_certificate_keys_rerandomized;
          Alcotest.test_case "rejects bad params" `Quick test_setup_rejects_bad_params;
          Alcotest.test_case "member index" `Quick test_setup_member_index;
          Alcotest.test_case "setup traffic" `Quick test_setup_traffic_positive;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "correct (all variants)" `Quick test_transfer_correct_all_variants;
          Alcotest.test_case "shares re-randomized" `Quick test_transfer_shares_change;
          Alcotest.test_case "random messages" `Quick test_transfer_repeated_messages;
          Alcotest.test_case "bad shapes" `Quick test_transfer_bad_shapes;
          Alcotest.test_case "tiny table fails" `Quick test_transfer_tiny_table_fails;
          Alcotest.test_case "final on standard" `Quick test_transfer_final_standard;
          Alcotest.test_case "keys reject replaced member key" `Quick
            test_keys_reject_replaced_member_key;
          Alcotest.test_case "keys reject bumped signature" `Quick
            test_keys_reject_bumped_signature;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "matches formula" `Quick test_transfer_traffic_matches_formula;
          Alcotest.test_case "final cheaper than s2" `Quick test_transfer_final_cheaper_than_strawman2;
          Alcotest.test_case "receiver constant in k" `Quick
            test_transfer_receiver_traffic_constant_in_k;
        ] );
      ( "side-channel",
        [
          Alcotest.test_case "strawman3 sums exact" `Quick test_strawman3_sums_exact;
          Alcotest.test_case "final sums noised" `Quick test_final_sums_noised;
          Alcotest.test_case "noise even" `Quick test_final_noise_is_even;
        ] );
      ( "edge-privacy",
        [
          Alcotest.test_case "paper numbers" `Quick test_edge_privacy_paper_numbers;
          Alcotest.test_case "analyze consistent" `Quick test_edge_privacy_analyze_consistent;
          Alcotest.test_case "more ram, more alpha" `Quick
            test_edge_privacy_more_ram_less_noise_needed;
        ] );
    ]
