(* §5.2/§5.3 message-transfer microbenchmarks: end-to-end latency and
   exact Montgomery multiplications of a single L-bit transfer for
   different block sizes, and the per-role traffic breakdown (relay-out
   node i, senders in B_i, receivers in B_j), validated against the
   closed-form expectations. Also the strawman ablation of §3.5. *)

open Bench_util
module Setup = Dstress_transfer.Setup
module Protocol = Dstress_transfer.Protocol
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Sharing = Dstress_mpc.Sharing

let l = 12

let run_one ~k ~variant =
  let n = k + 3 in
  let setup = Setup.run (Prg.of_string "bench-transfer") grp ~n ~k ~degree_bound:2 ~bits:l in
  let table = Exp_elgamal.Table.make grp ~lo:(-150) ~hi:(k + 1 + 150) in
  let params = { Protocol.alpha = 0.5; table } in
  let m = Bitvec.of_int ~bits:l 0xABC in
  let shares = Sharing.share (Prg.of_string "bench-msg") ~parties:(k + 1) m in
  let traffic = Traffic.create n in
  let (outcome, seconds), muls =
    counting_muls (fun () ->
        time (fun () ->
            Protocol.transfer params ~prg:(Prg.of_string "bench-run") ~noise:(Prng.of_int 7)
              ~traffic ~variant ~setup ~sender:0 ~receiver:1 ~neighbor_slot:0 ~shares))
  in
  assert (Bitvec.equal m (Sharing.reconstruct outcome.Protocol.shares));
  (seconds, traffic, muls)

let latency ~quick () =
  header "Message transfer latency vs block size (§5.2)";
  let ks = if quick then [ 3; 7 ] else [ 7; 11; 15; 19 ] in
  Printf.printf "(single %d-bit transfer, toy group; paper: 285 ms at block 8 -> 610 ms at block 20 over secp384r1)\n\n" l;
  Printf.printf "%8s %12s %14s\n" "block" "latency" "total bytes";
  let points =
    List.map
      (fun k ->
        let seconds, traffic, muls = run_one ~k ~variant:Protocol.Final in
        emit
          (Bench_result.make_result
             ~params:[ ("block", Json.Int (k + 1)) ]
             ~wall:
               { Bench_result.median_s = seconds; min_s = seconds;
                 p10_s = seconds; p90_s = seconds }
             ~counters:
               [ ("traffic.total_bytes", Traffic.total traffic); ("bignum.mont_muls", muls) ]
             "transfer");
        Printf.printf "%8d %9.1f ms %12d B\n" (k + 1) (seconds *. 1000.0)
          (Traffic.total traffic);
        (k, seconds))
      ks
  in
  (match (points, List.rev points) with
  | (k0, s0) :: _, (k1, s1) :: _ ->
      Printf.printf "\n  -> latency grew x%.1f while block size grew x%.1f (paper: ~linear in k)\n"
        (s1 /. s0)
        (float_of_int (k1 + 1) /. float_of_int (k0 + 1))
  | _ -> ())

let traffic_roles ~quick () =
  header "Message transfer traffic by role (§5.3)";
  let ks = if quick then [ 3; 7 ] else [ 7; 11; 15; 19 ] in
  Printf.printf "%8s | %18s | %18s | %18s\n" "block" "sender member (B)" "relay i recv (B)"
    "receiver member (B)";
  List.iter
    (fun k ->
      let _, traffic, _ = run_one ~k ~variant:Protocol.Final in
      (* Node 0 is the relay-out i; nodes of B_0 send to it; node 1 is j;
         B_1 members receive from 1. Extract roles from the matrix. *)
      let setup = Setup.run (Prg.of_string "bench-transfer") grp ~n:(k + 3) ~k ~degree_bound:2 ~bits:l in
      let bi = Setup.block_of setup 0 and bj = Setup.block_of setup 1 in
      let sender_member = Traffic.sent_by traffic bi.(1) in
      let relay_recv = Traffic.received_by traffic 0 in
      let receiver_member = Traffic.received_by traffic bj.(1) in
      let e_sender, _, e_receiver, _ =
        Protocol.expected_bytes Protocol.Final ~k ~bits:l
          ~element_bytes:(Group.element_bytes grp)
      in
      record "roles"
        ~params:[ ("block", Json.Int (k + 1)) ]
        ~counters:
          [
            ("sender_member_bytes", sender_member);
            ("relay_recv_bytes", relay_recv);
            ("receiver_member_bytes", receiver_member);
            ("expected_sender_bytes", e_sender);
            ("expected_receiver_bytes", e_receiver);
          ];
      Printf.printf "%8d | %9d (=%d calc) | %18d | %8d (=%d calc)\n" (k + 1) sender_member
        e_sender relay_recv receiver_member e_receiver)
    ks;
  Printf.printf "\nShape targets (paper): relay i receives (k+1)^2 subshares (quadratic);\n";
  Printf.printf "sender members linear in k; receiver members constant in k.\n"

let strawman_ablation ~quick:_ () =
  header "Ablation: transfer protocol variants (§3.5 strawmen)";
  let k = 7 in
  Printf.printf "(block size %d, L=%d)\n\n" (k + 1) l;
  Printf.printf "%-12s %12s %14s %s\n" "variant" "latency" "total bytes" "leak";
  List.iter
    (fun (name, variant, leak) ->
      let seconds, traffic, _ = run_one ~k ~variant in
      emit
        (Bench_result.make_result
           ~params:[ ("block", Json.Int (k + 1)) ]
           ~wall:
             { Bench_result.median_s = seconds; min_s = seconds;
               p10_s = seconds; p90_s = seconds }
           ~counters:[ ("traffic.total_bytes", Traffic.total traffic) ]
           name);
      Printf.printf "%-12s %9.1f ms %12d B %s\n" name (seconds *. 1000.0)
        (Traffic.total traffic) leak)
    [
      ("strawman1", Protocol.Strawman1, "collusion breaks value privacy");
      ("strawman2", Protocol.Strawman2, "subshare recognition reveals edges");
      ("strawman3", Protocol.Strawman3, "exact bit-sums leak edges (App. B)");
      ("final", Protocol.Final, "eps-DP side channel");
    ];
  Printf.printf
    "\nKurosawa multi-recipient optimization (closed form, block 20, L=16):\n";
  let eb = Group.element_bytes grp in
  let with_opt = Exp_elgamal.multi_ciphertext_bytes grp (20 * 16) in
  let without = 20 * 16 * 2 * eb in
  record "kurosawa"
    ~counters:[ ("bundle_bytes_shared", with_opt); ("bundle_bytes_naive", without) ];
  Printf.printf "  one sender bundle: %d B with shared ephemeral vs %d B without (x%.2f)\n"
    with_opt without
    (float_of_int without /. float_of_int with_opt)
