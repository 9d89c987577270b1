(* Microbenchmarks of the rebuilt bignum/crypto hot path at real 2048-bit
   parameters, one end-to-end EN run on ffdhe2048 — the workload the
   kernel refactor exists to make feasible — and one EGJ run at the
   egj-256 benchmark workload's shape that counts its Montgomery
   multiplications.

   The speedup yardstick is a seed-faithful reference exponentiation
   embedded below: the pre-refactor kernel shape (26-bit limbs, a fresh
   buffer allocated per multiplication, a fresh Montgomery context per
   call). Wall times and speedup ratios are informational floats; the
   gated counters are the mismatch counts of each fast path against the
   reference (always 0), the deterministic outputs of the EN and EGJ
   runs, and the EGJ run's exact multiplication counts. *)

open Bench_util
module Nat = Dstress_bignum.Nat
module Engine = Dstress_runtime.Engine
module Executor = Dstress_runtime.Executor
module Graph = Dstress_runtime.Graph
module En_program = Dstress_risk.En_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking
module Query = Dstress_graphgen.Query
module Service = Dstress_runtime.Service
module Setup = Dstress_transfer.Setup

(* ------------------------------------------------------------------ *)
(* Seed-faithful reference: allocating 26-bit CIOS Montgomery ladder    *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  let limb_bits = 26
  let mask = (1 lsl limb_bits) - 1

  (* Big-endian bytes of a Nat, viewed as a little-endian bit string. *)
  let bit_of_bytes b i =
    let nbytes = Bytes.length b in
    let byte = nbytes - 1 - (i / 8) in
    if byte < 0 then 0 else (Char.code (Bytes.get b byte) lsr (i mod 8)) land 1

  let limbs_of_nat k v =
    let b = Nat.to_bytes_be v in
    Array.init k (fun j ->
        let acc = ref 0 in
        for t = limb_bits - 1 downto 0 do
          acc := (!acc lsl 1) lor bit_of_bytes b ((j * limb_bits) + t)
        done;
        !acc)

  let nat_of_limbs limbs =
    Array.fold_right
      (fun limb acc -> Nat.add (Nat.shift_left acc limb_bits) (Nat.of_int limb))
      limbs Nat.zero

  (* -m^-1 mod 2^26 by Newton-Hensel iteration. *)
  let m0' m0 =
    let x = ref 1 in
    for _ = 1 to 5 do
      x := !x * (2 - (m0 * !x)) land mask
    done;
    (- !x) land mask

  let ge_limbs a b =
    let rec go i =
      if i < 0 then true
      else if a.(i) > b.(i) then true
      else if a.(i) < b.(i) then false
      else go (i - 1)
    in
    go (Array.length a - 1)

  let sub_limbs a b =
    let k = Array.length a in
    let r = Array.make k 0 in
    let borrow = ref 0 in
    for i = 0 to k - 1 do
      let x = a.(i) - b.(i) - !borrow in
      if x < 0 then (r.(i) <- x + mask + 1; borrow := 1)
      else (r.(i) <- x; borrow := 0)
    done;
    r

  (* One Montgomery multiplication, allocating its working buffer and its
     result — the per-op allocation pattern of the seed kernel. *)
  let mont_mul k m m0' a b =
    let t = Array.make (k + 1) 0 in
    for i = 0 to k - 1 do
      let ai = a.(i) in
      let t0 = t.(0) + (ai * b.(0)) in
      let mu = t0 * m0' land mask in
      let c = ref ((t0 + (mu * m.(0))) lsr limb_bits) in
      for j = 1 to k - 1 do
        let x = t.(j) + (ai * b.(j)) + (mu * m.(j)) + !c in
        t.(j - 1) <- x land mask;
        c := x lsr limb_bits
      done;
      let x = t.(k) + !c in
      t.(k - 1) <- x land mask;
      t.(k) <- x lsr limb_bits
    done;
    let r = Array.sub t 0 k in
    if t.(k) > 0 || ge_limbs r m then sub_limbs r m else r

  (* Generic modular exponentiation the way the seed did it: fresh
     context per call, 4-bit window, allocating multiplications. *)
  let mod_pow ~base ~exp ~m =
    let k = (Nat.num_bits m + limb_bits - 1) / limb_bits in
    let ml = limbs_of_nat k m in
    let m0' = m0' ml.(0) in
    let r2 =
      limbs_of_nat k (Nat.rem (Nat.shift_left Nat.one (2 * limb_bits * k)) m)
    in
    let one_r = limbs_of_nat k (Nat.rem (Nat.shift_left Nat.one (limb_bits * k)) m) in
    let mul = mont_mul k ml m0' in
    let bm = mul (limbs_of_nat k (Nat.rem base m)) r2 in
    (* 4-bit window table bm^1 .. bm^15 *)
    let table = Array.make 16 one_r in
    table.(1) <- bm;
    for i = 2 to 15 do
      table.(i) <- mul table.(i - 1) bm
    done;
    let eb = Nat.to_bytes_be exp in
    let ebits = Nat.num_bits exp in
    let ndigits = (ebits + 3) / 4 in
    let digit i =
      (bit_of_bytes eb ((4 * i) + 3) lsl 3)
      lor (bit_of_bytes eb ((4 * i) + 2) lsl 2)
      lor (bit_of_bytes eb ((4 * i) + 1) lsl 1)
      lor bit_of_bytes eb (4 * i)
    in
    let acc = ref one_r in
    for i = ndigits - 1 downto 0 do
      for _ = 1 to 4 do
        acc := mul !acc !acc
      done;
      let d = digit i in
      if d <> 0 then acc := mul !acc table.(d)
    done;
    nat_of_limbs (mul !acc (limbs_of_nat k Nat.one))
end

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let mismatch expected got = if Nat.equal expected got then 0 else 1

(* One query at the egj-256 benchmark workload's shape, as `dstress
   stress --model egj --group standard --core 3 --periphery 5 -i 5
   --preprocess` runs it for seed 1 (sequential executor): output,
   traffic and the exact Montgomery multiplications of the whole query
   and of its trusted-party setup ([Setup.run] alone, replayed with the
   engine's PRG seed). *)
let egj_256 () =
  subheader "EGJ at egj-256's shape (standard group, core 3, periphery 5, 5 iterations)";
  let grp = Group.by_name "standard" in
  let seed = 1 and core = 3 and periphery = 5 and iterations = 5 and k = 2 in
  let req =
    {
      Service.workload = Service.Egj;
      core;
      periphery;
      iterations;
      k;
      seed;
      slice_width = 64;
      ot_mode = Ot_ext.Simulation;
      preprocess = true;
      executor = "";
    }
  in
  let b = Result.get_ok (Query.build ~epsilon:1.0 ~shock:Banking.Cascade req) in
  let _, setup_muls =
    counting_muls (fun () ->
        Setup.run
          (Prg.of_string ("engine:" ^ string_of_int seed))
          grp ~n:(Graph.n b.Query.graph) ~k ~degree_bound:b.Query.degree
          ~bits:b.Query.program.Vertex_program.message_bits)
  in
  let (report, query_muls), wall =
    time (fun () ->
        counting_muls (fun () ->
            Query.run ~grp ~obs_level:Obs.Off ~fault_plan:Dstress_faults.Fault.empty
              ~max_retries:2 ~backoff:0.05 req b))
  in
  let traffic = Dstress_mpc.Traffic.total report.Engine.traffic in
  emit
    (Bench_result.make_result
       ~params:
         [
           ("group", Json.Str "standard"); ("core", Json.Int core);
           ("periphery", Json.Int periphery); ("iterations", Json.Int iterations);
           ("k", Json.Int k); ("preprocess", Json.Bool true);
         ]
       ~wall:{ Bench_result.median_s = wall; min_s = wall; p10_s = wall; p90_s = wall }
       ~counters:
         [
           ("output", report.Engine.output);
           ("traffic.total_bytes", traffic);
           ("transfer_failures", report.Engine.transfer_failures);
           ("setup.mont_muls", setup_muls);
           ("query.mont_muls", query_muls);
         ]
       "egj-256");
  Printf.printf
    "EGJ egj-256 shape: wall %.2f s, output %d, %.1f MB total, %d Montgomery multiplications \
     (%d in Setup.run)\n"
    wall report.Engine.output (mb traffic) query_muls setup_muls

let run ~quick () =
  header "bignum kernel (2048-bit hot path)";
  let grp2048 = Group.by_name "ffdhe2048" in
  let p = Group.p grp2048 in
  let bits = Nat.num_bits p in
  let prg = Prg.of_string "bignum-bench" in
  let rand_elt () = Group.pow_g grp2048 (Group.random_exponent prg grp2048) in
  let repeats = if quick then 3 else 5 in
  (* mont-mul: the kernel everything reduces to. *)
  let ctx = Nat.Mont.create p in
  let a = rand_elt () and b = rand_elt () in
  let am = Nat.Mont.to_mont ctx a and bm = Nat.Mont.to_mont ctx b in
  let mul_iters = 2000 in
  ignore
    (measure ~repeats ~warmup:1 ~name:"mont-mul"
       ~params:[ ("bits", Json.Int bits) ]
       ~items:("mul", float_of_int mul_iters)
       ~telemetry:(fun r ->
         ([ ("mismatch", mismatch (Nat.mod_mul a b ~m:p) r) ], []))
       (fun () ->
         let acc = ref am in
         for _ = 1 to mul_iters do
           acc := Nat.Mont.mul ctx am bm
         done;
         Nat.Mont.from_mont ctx !acc));
  (* The yardstick: seed-shaped generic exponentiation. *)
  let e = Group.random_exponent prg grp2048 in
  let g = Group.g grp2048 in
  let params = [ ("bits", Json.Int bits) ] in
  let ref_pow, ref_wall =
    sample ~repeats ~warmup:1 (fun () -> Ref.mod_pow ~base:g ~exp:e ~m:p)
  in
  emit (Bench_result.make_result ~params ~repeats ~warmup:1 ~wall:ref_wall "generic-pow-ref");
  (* Current generic path (fresh Montgomery context per call). *)
  ignore
    (measure ~repeats ~warmup:1 ~name:"generic-pow"
       ~params:[ ("bits", Json.Int bits) ]
       ~telemetry:(fun r -> ([ ("mismatch", mismatch ref_pow r) ], []))
       (fun () -> Nat.mod_pow ~base:g ~exp:e ~m:p));
  (* Fixed-base path through the generator's comb table. The speedup
     divides the two rows' medians over the same number of repeats. *)
  let fb, fb_wall = sample ~repeats ~warmup:1 (fun () -> Group.pow_g grp2048 e) in
  let speedup = ref_wall.Bench_result.median_s /. fb_wall.Bench_result.median_s in
  emit
    (Bench_result.make_result ~params ~repeats ~warmup:1 ~wall:fb_wall
       ~counters:[ ("mismatch", mismatch ref_pow fb) ]
       ~floats:[ ("speedup_vs_ref", speedup) ]
       "fixed-base-pow");
  Printf.printf "fixed-base vs seed generic: %.1fx (medians of %d)\n" speedup repeats;
  (* End-to-end: an EN run at N = 100 with real 2048-bit parameters —
     infeasible before the kernel refactor, now a bench row. Sequential
     executor; the deterministic outputs gate the run. A quick run uses
     N = 10, which gates the same four counters in a tenth of the time. *)
  let n = if quick then 10 else 100 and iterations = 1 and k = 1 and l = 8 in
  subheader (Printf.sprintf "EN end-to-end on ffdhe2048 (N=%d)" n);
  let topo = Topology.ring ~n in
  let prng = Prng.of_int 0xB16 in
  let inst = Banking.en_of_topology prng topo () in
  let graph = En_program.graph_of_instance inst in
  let d = max 1 (Graph.max_degree graph) in
  let program = En_program.make ~l ~degree:d ~iterations () in
  let states = En_program.encode_instance inst ~graph ~l ~degree:d ~scale:0.25 in
  let cfg =
    { (Engine.default_config grp2048 ~k ~degree_bound:d ~seed:"bignum-en") with
      Engine.executor = Executor.sequential }
  in
  let report, wall = time (fun () -> Engine.run cfg program ~graph ~initial_states:states) in
  emit
    (Bench_result.make_result
       ~params:
         [
           ("n", Json.Int n); ("d", Json.Int d); ("k", Json.Int k); ("l", Json.Int l);
           ("group", Json.Str "ffdhe2048");
         ]
       ~wall:{ Bench_result.median_s = wall; min_s = wall; p10_s = wall; p90_s = wall }
       ~counters:
         [
           ("output", report.Engine.output);
           ("traffic.total_bytes", Dstress_mpc.Traffic.total report.Engine.traffic);
           ("and_gates", report.Engine.mpc_and_gates);
           ("unrecovered", report.Engine.unrecovered_failures);
         ]
       "en-ffdhe2048");
  Printf.printf "EN N=%d D=%d k=%d l=%d on ffdhe2048: wall %.1f s, output %d, %.1f MB total\n"
    n d k l wall report.Engine.output
    (mb (Dstress_mpc.Traffic.total report.Engine.traffic));
  egj_256 ()
