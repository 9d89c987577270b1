(* Microbenchmarks of the cryptographic primitives — the unit costs
   everything else is built from. Each primitive is one row of the
   harness's own sampler: a repeat is a loop of a fixed number of calls,
   timed after one warm-up, and the row reports the median repeat and
   the calls per second. The exponentiation and encryption rows also
   gate the exact Montgomery multiplications of one repeat; every repeat
   starts from the same fixed seed, so that count does not depend on
   which repeat it is read from. *)

open Bench_util
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Sha256 = Dstress_crypto.Sha256

(* One row: each repeat calls [start ()] for a fresh call function and
   runs it [calls] times. With [~muls], the row gates the Montgomery
   multiplications of one repeat. *)
let row ~repeats ~calls ?(muls = false) name start =
  ignore
    (measure ~repeats ~warmup:1 ~name
       ~params:[ ("calls", Json.Int calls) ]
       ~items:("call", float_of_int calls)
       ~telemetry:(fun n -> ((if muls then [ ("bignum.mont_muls", n) ] else []), []))
       (fun () ->
         let call = start () in
         snd
           (counting_muls (fun () ->
                for _ = 1 to calls do
                  call ()
                done))))

let run ~quick () =
  header "Microbenchmarks of the crypto primitives";
  let repeats = if quick then 5 else 11 in
  let prg = Prg.of_string "micro" in
  let exponent = Group.random_exponent prg grp in
  let grp_std = Group.by_name "standard" in
  let exponent_std = Group.random_exponent prg grp_std in
  let g_std = Group.g grp_std in
  let _, pk = Exp_elgamal.keygen prg grp in
  let msg = Bytes.make 64 'x' in
  let fixed f () = f in
  row ~repeats ~calls:20000 ~muls:true "modexp-64bit-group"
    (fixed (fun () -> ignore (Group.pow_g grp exponent)));
  row ~repeats ~calls:1000 ~muls:true "modexp-256bit-group"
    (fixed (fun () -> ignore (Group.pow_g grp_std exponent_std)));
  (* Same base and exponent through the generic path: the gap is what
     the generator's comb table buys. *)
  row ~repeats ~calls:300 ~muls:true "modexp-256bit-generic"
    (fixed (fun () -> ignore (Group.pow grp_std g_std exponent_std)));
  row ~repeats ~calls:2000 ~muls:true "exp-elgamal-encrypt" (fun () ->
      let prg = Prg.of_string "micro-encrypt" in
      fun () -> ignore (Exp_elgamal.encrypt prg grp pk 5));
  row ~repeats ~calls:5000 "sha256-64B" (fixed (fun () -> ignore (Sha256.digest msg)));
  List.iter
    (fun (r : Bench_result.result) ->
      Option.iter
        (fun (_, per_s) ->
          Printf.printf "%-24s %10.1f ns/call" r.name (1e9 /. per_s);
          Option.iter
            (Printf.printf ", %d Montgomery multiplications per repeat")
            (List.assoc_opt "bignum.mont_muls" r.counters);
          print_newline ())
        r.throughput)
    (suite_rows ())
