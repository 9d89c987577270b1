(* Bechamel microbenchmarks of the cryptographic primitives — the unit
   costs everything else is built from. *)

open Bench_util
module Nat = Dstress_bignum.Nat
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Sha256 = Dstress_crypto.Sha256

let make_tests () =
  let open Bechamel in
  let prg = Prg.of_string "micro" in
  let exponent = Group.random_exponent prg grp in
  let grp_std = Group.by_name "standard" in
  let exponent_std = Group.random_exponent prg grp_std in
  let g_std = Group.g grp_std in
  let _, pk = Exp_elgamal.keygen prg grp in
  let msg = Bytes.make 64 'x' in
  [
    Test.make ~name:"modexp-64bit-group" (Staged.stage (fun () -> Group.pow_g grp exponent));
    Test.make ~name:"modexp-256bit-group"
      (Staged.stage (fun () -> Group.pow_g grp_std exponent_std));
    (* Same base and exponent through the generic window path: the gap
       is what the generator's comb table buys. *)
    Test.make ~name:"modexp-256bit-generic"
      (Staged.stage (fun () -> Group.pow grp_std g_std exponent_std));
    Test.make ~name:"exp-elgamal-encrypt"
      (Staged.stage (fun () -> Exp_elgamal.encrypt prg grp pk 5));
    Test.make ~name:"sha256-64B" (Staged.stage (fun () -> Sha256.digest msg));
  ]

let run ~quick:_ () =
  header "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 200) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"crypto" (make_tests ())) in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) i raw) instances
  in
  let merged = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
  let estimates = ref [] in
  Hashtbl.iter
    (fun name tbl ->
      Hashtbl.iter
        (fun test result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] ->
              estimates := (test ^ ".ns_per_op", est) :: !estimates;
              Printf.printf "%-40s %12.1f ns/op (%s)\n" test est name
          | _ -> Printf.printf "%-40s (no estimate)\n" test)
        tbl)
    merged;
  record "primitives" ~floats:!estimates
