(* Shared plumbing for the figure-reproduction harness.

   Besides the human-oriented table printers, this module is the funnel
   every benchmark reports through: [measure]/[emit] append typed
   {!Bench_result.result} rows to the suite opened by [begin_suite], and
   [main.ml] collects the finished suites into one machine-comparable
   JSON document (see Bench_result for the schema and Bench_diff for the
   regression gate). *)

module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Prg = Dstress_crypto.Prg
module Group = Dstress_crypto.Group
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit
module Gmw = Dstress_mpc.Gmw
module Plan = Dstress_mpc.Plan
module Traffic = Dstress_mpc.Traffic
module Vertex_program = Dstress_runtime.Vertex_program
module Obs = Dstress_obs.Obs
module Json = Dstress_obs.Json
module Bench_result = Dstress_obs.Bench_result

let grp = Group.by_name "toy"

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let mb bytes = float_of_int bytes /. 1048576.0

(* [f ()] and the Montgomery multiplications it did on this domain. *)
let counting_muls f =
  let c0 = Dstress_bignum.Nat.Mont.muls () in
  let r = f () in
  (r, Dstress_bignum.Nat.Mont.muls () - c0)

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let subheader title = Printf.printf "--- %s ---\n%!" title

(* ------------------------------------------------------------------ *)
(* Result collection                                                   *)
(* ------------------------------------------------------------------ *)

let current : (string * Bench_result.result list ref) option ref = ref None
let collected : Bench_result.suite list ref = ref []

let begin_suite name = current := Some (name, ref [])

let end_suite () =
  match !current with
  | None -> ()
  | Some (name, rows) ->
      collected :=
        { Bench_result.suite = name; results = List.rev !rows } :: !collected;
      current := None

(* Append a row to the open suite. A bench invoked outside the harness
   (no open suite) just prints its tables; emission is a no-op. *)
let emit row =
  match !current with None -> () | Some (_, rows) -> rows := row :: !rows

(* The open suite's rows so far, oldest first: lets a bench print its
   table from exactly what it emitted. *)
let suite_rows () = match !current with None -> [] | Some (_, rows) -> List.rev !rows

let collected_doc ~mode = { Bench_result.mode; suites = List.rev !collected }

(* [sample f] runs [f] [warmup] times untimed, then [repeats] times
   timed, and returns the last run's value with the summary of the timed
   runs. *)
let sample ?(repeats = 1) ?(warmup = 0) f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let samples = ref [] and last = ref None in
  for _ = 1 to repeats do
    let v, s = time f in
    samples := s :: !samples;
    last := Some v
  done;
  let v = match !last with Some v -> v | None -> invalid_arg "measure: repeats < 1" in
  (v, Bench_result.wall_of_samples !samples)

(* [measure ~name f] samples [f] (see [sample]), emits a row summarising
   the wall samples, and returns the last run's value. [telemetry] turns
   that value into the row's (counters, floats); [items = (unit, count)]
   derives a throughput from the median repeat. Stateful benches that
   cannot re-run keep the default [repeats = 1]. *)
let measure ?repeats ?warmup ?(params = []) ?items ?telemetry ~name f =
  let v, wall = sample ?repeats ?warmup f in
  let repeats = Option.value repeats ~default:1 and warmup = Option.value warmup ~default:0 in
  let throughput =
    match items with
    | Some (unit_, count) when wall.Bench_result.median_s > 0.0 ->
        Some (unit_, count /. wall.Bench_result.median_s)
    | _ -> None
  in
  let counters, floats =
    match telemetry with None -> ([], []) | Some t -> t v
  in
  emit
    (Bench_result.make_result ~params ~repeats ~warmup ~wall ?throughput
       ~counters ~floats name);
  v

(* Row without its own timing — analytic results, closed forms, numbers
   extracted from an engine report. *)
let record ?(params = []) ?(counters = []) ?(floats = []) name =
  emit (Bench_result.make_result ~params ~counters ~floats name)

(* ------------------------------------------------------------------ *)
(* GMW circuit points                                                  *)
(* ------------------------------------------------------------------ *)

(* Evaluate one circuit under GMW with [block] parties on random shared
   inputs; returns (simulated seconds, per-party mean bytes). The
   simulated time serializes all parties; the per-party wall-clock
   estimate divides the pairwise work among the block. *)
type mpc_point = {
  block : int;
  sim_seconds : float;
  per_party_seconds : float;
  per_party_mb : float;
  total_bytes : int;
  ands : int;
}

let run_mpc_circuit ?(seed = "bench") circuit ~block =
  let session = Gmw.create_session ~mode:Ot_ext.Simulation grp ~parties:block ~seed in
  let prng = Prng.of_int (Hashtbl.hash seed) in
  let inputs = Bitvec.random prng circuit.Circuit.num_inputs in
  let input_shares = Gmw.share_input session inputs in
  let _, sim_seconds =
    time (fun () -> ignore (Gmw.eval session (Plan.compile circuit) ~input_shares))
  in
  let traffic = Gmw.traffic session in
  {
    block;
    sim_seconds;
    per_party_seconds = sim_seconds *. 2.0 /. float_of_int block;
    per_party_mb = Traffic.mean_per_node traffic /. 1048576.0;
    total_bytes = Traffic.total traffic;
    ands = Circuit.and_count circuit;
  }

(* The typed-row counterpart of [print_mpc_table]: AND count and traffic
   bytes are deterministic counters, the timing split informational. *)
let emit_mpc_point ?(params = []) name p =
  emit
    (Bench_result.make_result
       ~params:(("block", Json.Int p.block) :: params)
       ~wall:
         {
           Bench_result.median_s = p.sim_seconds;
           min_s = p.sim_seconds;
           p10_s = p.sim_seconds;
           p90_s = p.sim_seconds;
         }
       ~counters:[ ("and_gates", p.ands); ("traffic.total_bytes", p.total_bytes) ]
       ~floats:
         [
           ("per_party_s", p.per_party_seconds); ("per_party_mb", p.per_party_mb);
         ]
       name)

let print_mpc_table ~label points =
  Printf.printf "%-28s %8s %10s %12s %12s %10s\n" label "block" "ANDs" "sim time" "time/party"
    "MB/party";
  List.iter
    (fun p ->
      Printf.printf "%-28s %8d %10d %10.2f s %10.2f s %10.3f\n" "" p.block p.ands
        p.sim_seconds p.per_party_seconds p.per_party_mb)
    points;
  print_newline ()

(* Linear-shape check used in the printed commentary: ratio of the cost
   at the largest parameter to the smallest, versus the parameter ratio. *)
let growth_factor points value =
  match (points, List.rev points) with
  | first :: _, last :: _ -> value last /. value first
  | _ -> nan
