(* DStress end-to-end benchmark: seeded EN/EGJ clearing queries, timed
   from the client side, with every released output checked against the
   plaintext reference.

   Two workloads, each a closed loop that never keeps more than two
   processes busy (the reference host has two cores):
   - serve-en: a real `dstress serve --service-workers 1` on a private
     Unix socket, driven by two client connections;
   - egj-256: solo EGJ on the 256-bit group, preprocessing on.

   [--trace 0] prints the end-to-end metrics of an untraced timed run.
   [--trace 1] runs the workload untraced for half the time, then the
   same query seeds traced, and prints the per-layer metrics. Per-layer
   numbers are taken from outside the library: the benchmark's own Obs
   spans around each call it makes, and what the library already reports
   (phase_seconds, offline_metrics, report counters, engine spans through
   Prof, the daemon's dstress-stats/1 snapshot). Spans stay in memory and
   are written once, at the end, under .bench_out/.

   The last line of stdout is the JSON result; progress goes to stderr.
   Build and run it through perfbench/run.py. *)

open Helpers
module Bitvec = Dstress_util.Bitvec
module Nat = Dstress_bignum.Nat
module Group = Dstress_crypto.Group
module Elgamal = Dstress_crypto.Elgamal
module Ot_ext = Dstress_crypto.Ot_ext
module Sha256 = Dstress_crypto.Sha256
module Xfer = Dstress_crypto.Xfer
module Traffic = Dstress_mpc.Traffic
module Triple = Dstress_mpc.Triple
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
module Engine = Dstress_runtime.Engine
module Executor = Dstress_runtime.Executor
module Graph = Dstress_runtime.Graph
module Service = Dstress_runtime.Service
module Transport = Dstress_runtime.Transport
module Vertex_program = Dstress_runtime.Vertex_program
module Obs = Dstress_obs.Obs
module Metrics = Obs.Metrics
module Prof = Dstress_obs.Prof
module Json = Dstress_obs.Json

(* ------------------------------------------------------------------ *)
(* Workloads and metrics                                               *)
(* ------------------------------------------------------------------ *)

let run_seconds = 40

(* Set-up is measured this many times per run, each time in a fresh
   process (solo) or a fresh daemon (serve-en); the median is reported. *)
let setup_samples = 7

(* Peak RSS is read once this many timed queries have been handed out:
   every query builds fresh circuits and plans, so a reading at the end
   would grow with how many queries fit in the run. *)
let rss_after = 5

type model = En | Egj

type spec = {
  name : string;
  why : string;
  model : model;
  group : string;
  core : int;
  periphery : int;
  iterations : int;
  k : int;
  ot_mode : Ot_ext.mode;
  preprocess : bool;
  daemon : bool;
}

let specs =
  [
    {
      name = "serve-en";
      why =
        "real dstress serve, 1 worker, 2 closed-loop Unix-socket clients: the only workload \
         crossing the service queue, transport frames and serve loop; sim-mode GMW in the \
         worker";
      model = En;
      group = "toy";
      core = 2;
      periphery = 2;
      iterations = 2;
      k = 2;
      ot_mode = Ot_ext.Simulation;
      preprocess = false;
      daemon = true;
    };
    {
      name = "egj-256";
      why =
        "solo EGJ on the 256-bit group with preprocessing: transfer, Group/ElGamal and \
         Nat.Mont do most of the work; service and transport are bypassed; traced run also \
         replays Ot_ext and SHA-256";
      model = Egj;
      group = "standard";
      core = 3;
      periphery = 5;
      iterations = 5;
      k = 2;
      ot_mode = Ot_ext.Simulation;
      preprocess = true;
      daemon = false;
    };
  ]

(* End-to-end metrics: name, unit, better, regression bound.

   The host slows down by a third to a half for seconds to minutes at a
   time (other tenants; CPU time tracks wall time, so it is not
   scheduling). A run's median query latency follows whichever state
   held the larger part of the run; its lower quartile reads the host's
   unloaded state as long as a quarter of the queries ran in it, so the
   gate is on the lower quartile. The median and the closed-loop rate
   (connections / mean latency) are reported per layer. *)
let end_to_end =
  [
    ("query_p25_s", "s", "lower", 0.25);
    ("traffic_mb_per_node", "MB", "lower", 0.05);
    ("setup_s", "s", "lower", 0.25);
    ("peak_rss_mb", "MB", "lower", 0.15);
  ]

(* Per-layer metrics of the traced run: name, unit, better. A layer a
   workload does not exercise reports 0 there. *)
let per_layer =
  [
    ("client.queries", "count", "higher");
    ("client.query_p50_s", "s", "lower");
    ("client.queries_per_s", "1/s", "higher");
    ("client.query_tail_s", "s", "lower");
    ("client.tail_pct", "pct", "higher");
    ("host.probe_ms", "ms", "lower");
    ("risk.build_s", "s", "lower");
    ("engine.setup_s", "s", "lower");
    ("engine.initialization_s", "s", "lower");
    ("engine.computation_s", "s", "lower");
    ("engine.communication_s", "s", "lower");
    ("engine.aggregation_s", "s", "lower");
    ("engine.offline_s", "s", "lower");
    ("engine.unattributed_frac", "frac", "lower");
    ("mpc.and_gates", "count", "lower");
    ("mpc.ots", "count", "lower");
    ("mpc.rounds", "count", "lower");
    ("mpc.and_gates_per_s", "1/s", "higher");
    ("triple.sessions", "count", "lower");
    ("triple.evals", "count", "lower");
    ("triple.generations", "count", "lower");
    ("triple.hits", "count", "higher");
    ("triple.hit_ratio", "frac", "higher");
    ("transfer.attempts", "count", "lower");
    ("transfer.retries", "count", "lower");
    ("transfer.failures", "count", "lower");
    ("transfer.attempt_self_s", "s", "lower");
    ("bignum.mont_mul_ns", "ns", "lower");
    ("crypto.group_pow_us", "us", "lower");
    ("crypto.elgamal_rerandomize_us", "us", "lower");
    ("crypto.ot_ext_extend_us", "us", "lower");
    ("crypto.sha256_mb_per_s", "MB/s", "higher");
    ("traffic.computation_mb", "MB", "lower");
    ("traffic.communication_mb", "MB", "lower");
    ("traffic.aggregation_mb", "MB", "lower");
    ("obs.export_kb_per_request", "KB", "lower");
    ("obs.trace_overhead_frac", "frac", "lower");
    ("service.queue_wait_p50_s", "s", "lower");
    ("service.dispatch_p50_s", "s", "lower");
    ("service.request_p50_s", "s", "lower");
    ("service.overhead_p50_s", "s", "lower");
    ("service.queue_high_water", "count", "lower");
    ("service.requests_completed", "count", "higher");
    ("service.requests_rejected", "count", "lower");
    ("service.requests_degraded", "count", "lower");
    ("pool.respawns", "count", "lower");
    ("pool.suspicions", "count", "lower");
    ("transport.frames_sent", "count", "lower");
    ("transport.bytes_sent", "B", "lower");
    ("transport.retransmits", "count", "lower");
    ("transport.reconnects", "count", "lower");
    ("gc.minor_mwords_per_query", "Mword", "lower");
    ("gc.major_collections_per_query", "count", "lower");
    ("gc.heap_top_mb", "MB", "lower");
  ]

(* The BENCHMARK.json document this benchmark satisfies. *)
let describe () =
  let str s = Json.Str s in
  Json.Obj
    [
      ("command", Json.List [ str "python3"; str "perfbench/run.py" ]);
      ("paths", Json.List [ str "perfbench" ]);
      ("run_seconds", Json.Int run_seconds);
      ( "workloads",
        Json.List
          (List.map (fun s -> Json.Obj [ ("name", str s.name); ("why", str s.why) ]) specs) );
      ( "end_to_end",
        Json.List
          (List.map
             (fun (n, u, b, bound) ->
               Json.Obj
                 [ ("name", str n); ("unit", str u); ("better", str b); ("bound", Json.Num bound) ])
             end_to_end) );
      ( "per_layer",
        Json.List
          (List.map
             (fun (n, u, b) -> Json.Obj [ ("name", str n); ("unit", str u); ("better", str b) ])
             per_layer) );
    ]

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday
let out_dir = ".bench_out"

(* Everything that makes a run incorrect: oracle misses, exact-count
   disagreements, daemon lifecycle violations. *)
let problems = ref []

let problem fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      problems := m :: !problems)
    fmt

let note fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m)) fmt

(* ------------------------------------------------------------------ *)
(* Networks                                                            *)
(* ------------------------------------------------------------------ *)

(* Built exactly as the daemon's request handler builds them (the shared
   run_model path of bin/dstress.ml under `dstress serve` defaults:
   epsilon 1, cascade shock, the protocol's fixed-point encodings), so a
   solo build here is the instance the daemon computed on. *)
type instance = {
  program : Vertex_program.t;
  graph : Graph.t;
  states : Bitvec.t array;
  degree : int;
}

let epsilon = 1.0

let topology spec seed =
  let prng = Prng.of_int seed in
  (prng, Topology.core_periphery prng ~core:spec.core ~periphery:spec.periphery ())

let build spec seed =
  let prng, topo = topology spec seed in
  match spec.model with
  | En ->
      let healthy = Banking.en_of_topology prng topo () in
      let inst = Banking.shock_en prng healthy topo Banking.Cascade in
      let graph = En_program.graph_of_instance inst in
      let degree = Graph.max_degree graph in
      let l = 12 in
      let program =
        En_program.make ~epsilon ~sensitivity:20 ~l ~degree ~iterations:spec.iterations ()
      in
      let states = En_program.encode_instance inst ~graph ~l ~degree ~scale:0.25 in
      { program; graph; states; degree }
  | Egj ->
      let healthy = Banking.egj_of_topology prng topo () in
      let inst = Banking.shock_egj prng healthy topo Banking.Cascade in
      let graph = Egj_program.graph_of_instance inst in
      let degree = Graph.max_degree graph in
      let l = 16 and frac = 6 in
      let program =
        Egj_program.make ~epsilon ~sensitivity:20 ~l ~frac ~degree
          ~iterations:spec.iterations ()
      in
      let states = Egj_program.encode_instance inst ~graph ~l ~frac ~degree ~scale:4.0 in
      { program; graph; states; degree }

(* MPC cost is data-oblivious: networks with the same link count and
   degree bound cost the same, whatever their balance sheets. Every query
   of a workload runs on the generator's most common shape, so the spread
   between runs is the host's, not the inputs'. *)
let shape spec seed =
  let _, topo = topology spec seed in
  (List.length topo.Topology.links, Topology.max_degree topo)

let canonical_shape spec =
  let counts = Hashtbl.create 16 in
  for s = 1 to 256 do
    let k = shape spec s in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let best =
    Hashtbl.fold
      (fun k c best ->
        match best with
        | Some (bk, bc) when bc > c || (bc = c && compare bk k < 0) -> best
        | _ -> Some (k, c))
      counts None
  in
  fst (Option.get best)

(* [count] query seeds, drawn up front so no input generation happens in
   a timed phase. *)
let query_seeds spec ~seed ~label count =
  let target = canonical_shape spec in
  let builds s = match build spec s with _ -> true | exception Invalid_argument _ -> false in
  let accept s = shape spec s = target && builds s in
  take count (seed_stream ~label:(spec.name ^ label) ~seed ~accept)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  qseed : int;
  latency : float;
  output : int option;  (** [None]: the query failed *)
  exact : string;  (** exact work counters, compared across runs of a seed *)
  node_bytes : float;  (** mean per-node bytes of the query *)
  facts : (string * float) list;  (** per-layer observations of the query *)
}

let failed_query qseed latency =
  { qseed; latency; output = None; exact = ""; node_bytes = 0.0; facts = [] }

let completed os = List.filter (fun o -> o.output <> None) os
let phases = List.map (fun p -> (p, Engine.phase_name p)) Engine.all_phases

let exact_line ~and_gates ~ots ~rounds ~node_bytes ~phase_bytes =
  Printf.sprintf "and=%d ots=%d rounds=%d node_bytes=%h %s" and_gates ots rounds node_bytes
    (String.concat " " (List.map (fun (p, b) -> Printf.sprintf "%s=%d" p b) phase_bytes))

(* Work counters that solo reports and daemon replies both carry. *)
let work_facts ~and_gates ~ots ~rounds ~phase_bytes =
  let mb p = float_of_int (Option.value ~default:0 (List.assoc_opt p phase_bytes)) /. 1e6 in
  [
    ("mpc.and_gates", float_of_int and_gates);
    ("mpc.ots", float_of_int ots);
    ("mpc.rounds", float_of_int rounds);
    ("traffic.computation_mb", mb "computation");
    ("traffic.communication_mb", mb "communication");
    ("traffic.aggregation_mb", mb "aggregation");
  ]

let engine_config spec grp inst ~qseed ~obs_level =
  {
    (Engine.default_config grp ~k:spec.k ~degree_bound:inst.degree ~seed:(string_of_int qseed))
    with
    Engine.executor = Executor.sequential;
    ot_mode = spec.ot_mode;
    preprocess = spec.preprocess;
    obs_level;
  }

(* One solo query: build the network, run the engine. With a live [bobs]
   the engine runs at Obs.Full and its spans are merged under the
   benchmark's own. *)
let solo_query spec grp ~bobs qseed =
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let inst = Obs.span bobs "risk.build" (fun () -> build spec qseed) in
  let t1 = now () in
  let cfg = engine_config spec grp inst ~qseed ~obs_level:(Obs.level bobs) in
  let report =
    Obs.span bobs "engine.run" (fun () ->
        let r = Engine.run cfg inst.program ~graph:inst.graph ~initial_states:inst.states in
        if Obs.enabled bobs then Obs.merge_into ~dst:bobs r.Engine.obs;
        r)
  in
  let t2 = now () in
  let gc1 = Gc.quick_stat () in
  (* Every query seed misses the triple cache; dropping its material keeps
     memory independent of how many queries fit in a run. *)
  Triple.Cache.clear Triple.Cache.shared;
  let latency = t2 -. t0 and build_s = t1 -. t0 in
  let secs p = List.assoc p report.Engine.phase_seconds in
  let phase_bytes = List.map (fun (p, n) -> (n, List.assoc p report.Engine.phase_bytes)) phases in
  let offline = Option.value ~default:(Metrics.create ()) report.Engine.offline_metrics in
  let c = Metrics.counter offline in
  let offline_s = Metrics.sum offline "preprocess.wall_s" in
  let phases_s = List.fold_left (fun a (_, s) -> a +. s) 0.0 report.Engine.phase_seconds in
  let hits = c "preprocess.cache.hits" in
  let lookups = hits + c "preprocess.cache.generations" + c "preprocess.cache.disk_loads" in
  let and_gates = report.Engine.mpc_and_gates
  and ots = report.Engine.mpc_ots
  and rounds = report.Engine.mpc_rounds in
  let node_bytes = Traffic.mean_per_node report.Engine.traffic in
  let traced =
    if not (Obs.enabled bobs) then []
    else
      let obs = report.Engine.obs in
      let attempt_self =
        List.fold_left
          (fun a (f : Prof.flat) ->
            if String.starts_with ~prefix:"attempt:" f.Prof.flat_label then a +. f.Prof.flat_self_s
            else a)
          0.0
          (Prof.flatten (Prof.of_obs obs))
      in
      let export = String.length (Obs.trace_json obs) + String.length (Obs.metrics_json obs) in
      [
        ("transfer.attempts", float_of_int (Metrics.counter (Obs.metrics obs) "transfer.attempts"));
        ("transfer.attempt_self_s", attempt_self);
        ("obs.export_kb_per_request", float_of_int export /. 1024.0);
      ]
  in
  {
    qseed;
    latency;
    output = Some report.Engine.output;
    node_bytes;
    exact = exact_line ~and_gates ~ots ~rounds ~node_bytes ~phase_bytes;
    facts =
      List.map (fun (p, n) -> ("engine." ^ n ^ "_s", secs p)) phases
      @ [
          ("risk.build_s", build_s);
          ("engine.offline_s", offline_s);
          ("engine.unattributed_frac", (latency -. build_s -. phases_s -. offline_s) /. latency);
          ( "mpc.and_gates_per_s",
            float_of_int and_gates /. (secs Engine.Computation +. secs Engine.Aggregation) );
          ("triple.sessions", float_of_int (c "preprocess.sessions"));
          ("triple.evals", float_of_int (c "preprocess.evals"));
          ("triple.generations", float_of_int (c "preprocess.cache.generations"));
          ("triple.hits", float_of_int hits);
          ( "triple.hit_ratio",
            if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups );
          ("transfer.retries", float_of_int report.Engine.transfer_retries);
          ("transfer.failures", float_of_int report.Engine.transfer_failures);
          ("gc.minor_mwords_per_query", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
          ( "gc.major_collections_per_query",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ]
      @ work_facts ~and_gates ~ots ~rounds ~phase_bytes
      @ traced;
  }

let json_num j name =
  match Json.member name j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Num f) -> f
  | _ -> 0.0

(* A daemon reply: the work counters come from the request's tick-domain
   metrics export. *)
let daemon_outcome qseed latency = function
  | Ok (Service.Completed s) -> (
      match Json.parse s.Service.metrics with
      | Error e ->
          problem "seed %d: the metrics export does not parse: %s" qseed e;
          failed_query qseed latency
      | Ok m ->
          let phase_bytes =
            List.map
              (fun (_, n) -> (n, int_of_float (json_num m ("phase." ^ n ^ ".bytes"))))
              phases
          in
          let node_bytes = json_num m "traffic.mean_node_bytes" in
          let and_gates = s.Service.mpc_and_gates
          and ots = s.Service.mpc_ots
          and rounds = s.Service.mpc_rounds in
          let export = String.length s.Service.trace + String.length s.Service.metrics in
          {
            qseed;
            latency;
            output = Some s.Service.output;
            node_bytes;
            exact = exact_line ~and_gates ~ots ~rounds ~node_bytes ~phase_bytes;
            facts =
              work_facts ~and_gates ~ots ~rounds ~phase_bytes
              @ [
                  ("transfer.attempts", json_num m "transfer.attempts");
                  ("transfer.retries", json_num m "transfer.retries");
                  ("transfer.failures", json_num m "transfer.failures");
                  ("obs.export_kb_per_request", float_of_int export /. 1024.0);
                ];
          })
  | Ok (Service.Rejected m | Service.Degraded m) ->
      note "seed %d: request failed: %s" qseed m;
      failed_query qseed latency
  | Error e ->
      note "seed %d: request failed: %s" qseed e;
      failed_query qseed latency

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Every released output must lie within the noise support around the
   plaintext run of the same instance; a miss fails the query. *)
let check_oracle spec outcomes =
  List.map
    (fun o ->
      match o.output with
      | None -> o
      | Some output ->
          let inst = build spec o.qseed in
          let p = inst.program in
          let expected =
            Engine.run_plaintext p ~degree_bound:inst.degree ~graph:inst.graph
              ~initial_states:inst.states
          in
          if
            within_noise ~agg_bits:p.Vertex_program.agg_bits
              ~noise_max:p.Vertex_program.noise_max_magnitude ~expected ~output
          then o
          else begin
            problem "seed %d: released %d lies outside the noise support around %d" o.qseed
              output expected;
            { o with output = None }
          end)
    outcomes

(* Two runs of the same query seeds must agree on every exact counter and
   on the released output. *)
let same_work what a b =
  let by_seed os = List.sort (fun x y -> compare x.qseed y.qseed) (completed os) in
  let a = by_seed a and b = by_seed b in
  if List.length a <> List.length b then
    problem "%s: %d vs %d completed queries" what (List.length a) (List.length b)
  else
    List.iter2
      (fun x y ->
        if x.qseed <> y.qseed || x.exact <> y.exact || x.output <> y.output then
          problem "seed %d: %s disagree (%s | %s)" x.qseed what x.exact y.exact)
      a b

(* Exact counters of every query seed this checkout has run, per
   workload and per build of the code under test ([binaries]: the
   benchmark, and the daemon for serve-en): a seed that comes back in a
   later run of the same code must reproduce them bit for bit. Code that
   does less work starts a record of its own. *)
let check_history spec ~binaries outcomes =
  let code = Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file binaries))) in
  let path =
    Filename.concat out_dir (Printf.sprintf "exact-%s-%s.tsv" spec.name (String.sub code 0 16))
  in
  let known = Hashtbl.create 256 in
  if Sys.file_exists path then
    In_channel.with_open_text path (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> ()
          | Some line ->
              (match String.index_opt line '\t' with
              | Some i ->
                  Hashtbl.replace known (String.sub line 0 i)
                    (String.sub line (i + 1) (String.length line - i - 1))
              | None -> ());
              go ()
        in
        go ());
  let added = ref false in
  List.iter
    (fun o ->
      let key = string_of_int o.qseed in
      match Hashtbl.find_opt known key with
      | Some e when e <> o.exact ->
          problem "seed %d: exact counters differ from an earlier run (%s | %s)" o.qseed o.exact e
      | Some _ -> ()
      | None ->
          Hashtbl.replace known key o.exact;
          added := true)
    (completed outcomes);
  if !added then begin
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_text tmp (fun oc ->
        Hashtbl.iter (fun k v -> Printf.fprintf oc "%s\t%s\n" k v) known);
    Sys.rename tmp path
  end

(* ------------------------------------------------------------------ *)
(* Host, memory and replayed primitives                                *)
(* ------------------------------------------------------------------ *)

(* A fixed pure-OCaml kernel (sort and hash 200k integers), timed before
   and after the workload: it explains drift of the host between runs and
   never normalises a metric. *)
let probe () =
  let once () =
    let t0 = now () in
    let a = Array.init 200_000 (fun i -> ((i * 7919) + 13) land 0xfffff) in
    Array.sort compare a;
    ignore (Sys.opaque_identity (Array.fold_left (fun h x -> (h * 31) + x) 0 a));
    (now () -. t0) *. 1e3
  in
  median (List.init 5 (fun _ -> once ()))

(* Probe readings of this run: right before its timed phase (after
   set-up) and after the run. *)
let probes = ref []
let take_probe () = probes := !probes @ [ probe () ]

(* Peak resident set (VmHWM) of a process, 0 = this one, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
          | Some kb -> float_of_int kb *. 1024.0 /. 1e6
          | None -> acc)
        0.0 (String.split_on_char '\n' s)

(* Seconds per call of [f]: batches of at least 20 ms, median of five. *)
let per_call f =
  let batch n =
    let t0 = now () in
    for _ = 1 to n do
      f ()
    done;
    now () -. t0
  in
  let rec calibrate n = if n >= 1 lsl 24 || batch n >= 0.02 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  median (List.init 5 (fun _ -> batch n /. float_of_int n))

(* The public crypto and bignum calls, replayed and timed one by one
   (traced run only) on the workload's group: Nat.Mont, Group and
   ElGamal, and Crypto-mode Ot_ext extension and SHA-256. No workload
   runs Crypto OT (one such query takes 3-5 s, too few per run for a
   steady figure), so those two ride on egj-256 with the rest; serve-en
   (toy group) reports 0 for all of them. *)
let crypto_replays spec grp bobs =
  let prg = Prg.of_string ("perfbench:" ^ spec.name) in
  let span name f = Obs.span bobs ("replay." ^ name) f in
  let elt () = Group.pow_g grp (Group.random_exponent prg grp) in
  let bignum () =
    let mont =
      span "mont_mul" (fun () ->
          let ctx = Nat.Mont.create (Group.p grp) in
          let b = Nat.Mont.to_mont ctx (elt ()) in
          let acc = ref (Nat.Mont.to_mont ctx (elt ())) in
          per_call (fun () -> acc := Nat.Mont.mul ctx !acc b))
    in
    let pow =
      span "group_pow" (fun () ->
          let base = elt () and e = Group.random_exponent prg grp in
          per_call (fun () -> ignore (Sys.opaque_identity (Group.pow grp base e))))
    in
    let rerandomize =
      span "elgamal_rerandomize" (fun () ->
          let _, pk = Elgamal.keygen prg grp in
          let ct = Elgamal.encrypt prg grp pk (elt ()) in
          per_call (fun () -> ignore (Sys.opaque_identity (Elgamal.rerandomize prg grp pk ct))))
    in
    [
      ("bignum.mont_mul_ns", mont *. 1e9);
      ("crypto.group_pow_us", pow *. 1e6);
      ("crypto.elgamal_rerandomize_us", rerandomize *. 1e6);
    ]
  in
  let ot () =
    let extend =
      span "ot_ext_extend" (fun () ->
          let xfer = Xfer.create () in
          let s =
            Ot_ext.setup ~mode:Ot_ext.Crypto grp xfer
              ~sender_prg:(Prg.of_string "perfbench:ot:sender")
              ~receiver_prg:(Prg.of_string "perfbench:ot:receiver")
          in
          let pairs = Array.init 16 (fun i -> (Int64.of_int i, Int64.of_int (i * 0x9e37))) in
          let choices = Array.init 16 (fun i -> Int64.of_int (i * 0x5bd1)) in
          per_call (fun () ->
              ignore (Sys.opaque_identity (Ot_ext.extend_words s xfer ~width:64 ~pairs ~choices))))
    in
    let sha =
      span "sha256" (fun () ->
          let buf = Bytes.make 65536 'd' in
          per_call (fun () -> ignore (Sys.opaque_identity (Sha256.digest buf))))
    in
    [
      ("crypto.ot_ext_extend_us", extend *. 1e6); ("crypto.sha256_mb_per_s", 65536.0 /. 1e6 /. sha);
    ]
  in
  if spec.group <> "toy" then bignum () @ ot () else []

let write_trace spec ~seed bobs =
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" spec.name seed) in
  Out_channel.with_open_text path (fun oc -> output_string oc (Prof.trace_wall_json bobs));
  Format.eprintf "%a@." (Prof.pp_table ~top_n:15) (Prof.of_obs bobs);
  note "wall-clock trace of this run: %s" path

(* ------------------------------------------------------------------ *)
(* Metric assembly                                                     *)
(* ------------------------------------------------------------------ *)

let latencies os = List.map (fun o -> o.latency) (completed os)

let end_to_end_values ~outcomes ~setup_s ~rss_mb =
  let ok = completed outcomes in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  [
    ("query_p25_s", percentile (latencies ok) 25.0);
    ("traffic_mb_per_node", mean (List.map (fun o -> o.node_bytes /. 1e6) ok));
    ("setup_s", setup_s);
    ("peak_rss_mb", rss_mb);
  ]

(* Each per-layer metric: a value measured for the whole run ([extra]),
   else the median of the queries' observations — untraced ones first,
   since tracing inflates timings. *)
let layer_values ~untraced ~traced extra =
  let facts os name = List.filter_map (fun o -> List.assoc_opt name o.facts) (completed os) in
  List.map
    (fun (name, _, _) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> (
            match facts untraced name with [] -> median (facts traced name) | xs -> median xs)
      in
      (name, v))
    per_layer

(* [heap]: the benchmark process is the one that computed (solo), so its
   top heap is the engine's. [wall]: seconds the untraced queries took. *)
let client_values ~untraced ~traced ~wall ~heap =
  let pct, tail_s = tail (latencies untraced) in
  let base = median (latencies untraced) in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    ("client.queries", float_of_int (List.length untraced));
    ("client.query_p50_s", base);
    ("client.queries_per_s", float_of_int (List.length (completed untraced)) /. wall);
    ("client.query_tail_s", tail_s);
    ("client.tail_pct", pct);
    ( "obs.trace_overhead_frac",
      if base > 0.0 then (median (latencies traced) /. base) -. 1.0 else 0.0 );
  ]
  @ if heap then [ ("gc.heap_top_mb", float_of_int top_heap /. 1e6) ] else []

(* ------------------------------------------------------------------ *)
(* Solo workloads                                                      *)
(* ------------------------------------------------------------------ *)

let warm_seeds spec ~seed n = query_seeds spec ~seed ~label:":warmup" n

(* Solo set-up, the first work of a fresh benchmark process: force the
   group, then one discarded warm-up query (the first network, program
   and plan build, lazily built tables). *)
let solo_setup spec ~seed =
  let warm = List.hd (warm_seeds spec ~seed 1) in
  let t0 = now () in
  let grp = Group.by_name spec.group in
  let o = solo_query spec grp ~bobs:Obs.off warm in
  (now () -. t0, grp, o)

(* A set-up sample taken the way the benchmark process takes its own: a
   fresh process (this binary with --setup-sample) that sets up first
   thing and prints the seconds it took. *)
let setup_in_child spec ~seed =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--workload"; spec.name; "--seed"; string_of_int seed; "--setup-sample" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let msg = In_channel.input_all ic in
  close_in ic;
  match (Unix.waitpid [] pid, float_of_string_opt (String.trim msg)) with
  | (_, Unix.WEXITED 0), Some s when Float.is_finite s -> s
  | _ -> failwith "a set-up sample failed in its child process"

(* [after n] runs once the [n]-th query has completed; queries start
   while [running ()] holds. *)
let solo_loop ?(after = ignore) spec grp ~bobs ~running seeds =
  let rec go acc n = function
    | s :: rest when running () ->
        let o = Obs.span bobs "client.query" (fun () -> solo_query spec grp ~bobs s) in
        after (n + 1);
        go (o :: acc) (n + 1) rest
    | _ -> List.rev acc
  in
  go [] 0 seeds

(* The host's speed drifts by tens of percent within one run, so set-up
   samples taken back to back would all see one moment of it. The timed
   phase is cut into [setup_samples - 1] equal slices and one sample is
   taken after each, with the phase's clock stopped. *)
let run_solo spec ~seed ~seconds ~trace =
  let own, grp, warm_o = solo_setup spec ~seed in
  let binaries = [ Sys.executable_name ] in
  let seeds = query_seeds spec ~seed ~label:"" (max 8 (4 * seconds)) in
  if not trace then begin
    let slices = setup_samples - 1 in
    let children = ref [] and paused = ref 0.0 and rss_mb = ref 0.0 in
    take_probe ();
    let t0 = now () in
    let clock () = now () -. t0 -. !paused in
    let sample () =
      let t = now () in
      children := setup_in_child spec ~seed :: !children;
      paused := !paused +. (now () -. t)
    in
    let after n =
      if n = rss_after then rss_mb := peak_rss_mb 0;
      let k = List.length !children in
      if k < slices && clock () >= float_of_int ((k + 1) * seconds) /. float_of_int slices then
        sample ()
    in
    let running () = clock () < float_of_int seconds in
    let timed = solo_loop ~after spec grp ~bobs:Obs.off ~running seeds in
    while List.length !children < slices do
      sample ()
    done;
    if !rss_mb = 0.0 then rss_mb := peak_rss_mb 0;
    let rss_mb = !rss_mb in
    let timed = check_oracle spec timed in
    check_history spec ~binaries timed;
    ( check_oracle spec [ warm_o ] @ timed,
      end_to_end_values ~outcomes:timed ~setup_s:(median (own :: !children)) ~rss_mb )
  end
  else begin
    take_probe ();
    let t0 = now () in
    let deadline = t0 +. (float_of_int seconds /. 2.0) in
    let untraced =
      solo_loop spec grp ~bobs:Obs.off ~running:(fun () -> now () < deadline) seeds
    in
    let wall = now () -. t0 in
    let bobs = Obs.create ~level:Obs.Full () in
    let traced =
      solo_loop spec grp ~bobs ~running:(fun () -> true) (List.map (fun o -> o.qseed) untraced)
    in
    let replays = crypto_replays spec grp bobs in
    write_trace spec ~seed bobs;
    let untraced = check_oracle spec untraced and traced = check_oracle spec traced in
    same_work "untraced and traced runs" untraced traced;
    check_history spec ~binaries untraced;
    ( check_oracle spec [ warm_o ] @ untraced @ traced,
      layer_values ~untraced ~traced (replays @ client_values ~untraced ~traced ~wall ~heap:true) )
  end

(* ------------------------------------------------------------------ *)
(* The daemon workload                                                 *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  dir : string;
  sock : string;
  mutable status : Unix.process_status option;
  mutable workers : int list;
}

let spawned = ref 0

(* `dstress serve` on a socket in a private directory under .bench_out
   (a relative path keeps it well inside the socket-path limit). *)
let spawn_daemon exe =
  incr spawned;
  let dir = Filename.concat out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !spawned) in
  Sys.mkdir dir 0o700;
  let sock = Filename.concat dir "sock" in
  let log =
    Unix.openfile (Filename.concat dir "log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o600
  in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--service-workers"; "1" |]
      Unix.stdin log log
  in
  Unix.close log;
  { pid; dir; sock; status = None; workers = [] }

let exited d =
  d.status <> None
  ||
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> false
  | _, st ->
      d.status <- Some st;
      true

(* Stop the daemon if it still runs, and remove its directory: the
   daemon leaves its socket file behind. *)
let kill d =
  if not (exited d) then begin
    List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) d.workers;
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let _, st = Unix.waitpid [] d.pid in
    d.status <- Some st
  end;
  List.iter
    (fun f -> try Sys.remove (Filename.concat d.dir f) with Sys_error _ -> ())
    [ "sock"; "log" ];
  try Sys.rmdir d.dir with Sys_error _ -> ()

(* Graceful stop: after SIGTERM the daemon must drain and exit 0 by
   itself, its worker must be gone, and nothing may stay on disk. *)
let drain d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 60.0 in
  while (not (exited d)) && now () < deadline do
    Unix.sleepf 0.005
  done;
  (match d.status with
  | Some (Unix.WEXITED 0) -> ()
  | Some (Unix.WEXITED c) -> problem "dstress serve exited with code %d after SIGTERM" c
  | Some (Unix.WSIGNALED n | Unix.WSTOPPED n) -> problem "dstress serve stopped by signal %d" n
  | None -> problem "dstress serve did not drain within 60 s of SIGTERM");
  let alive pid = match Unix.kill pid 0 with () -> true | exception Unix.Unix_error _ -> false in
  let deadline = now () +. 2.0 in
  while List.exists alive d.workers && now () < deadline do
    Unix.sleepf 0.005
  done;
  List.iter (fun pid -> if alive pid then problem "worker %d outlived its daemon" pid) d.workers;
  kill d;
  if Sys.file_exists d.dir then problem "%s was left behind" d.dir

(* Ready means the listener accepts a connection. *)
let connect d ~deadline =
  let rec go () =
    match Transport.connect ~attempts:1 ~path:d.sock () with
    | conn -> conn
    | exception Transport.Error _ ->
        if exited d then failwith "dstress serve exited before listening";
        if now () > deadline then failwith "dstress serve did not start listening";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let request spec seed =
  {
    Service.workload = (match spec.model with En -> Service.En | Egj -> Service.Egj);
    core = spec.core;
    periphery = spec.periphery;
    iterations = spec.iterations;
    k = spec.k;
    seed;
    slice_width = 64;
    ot_mode = spec.ot_mode;
    preprocess = spec.preprocess;
    executor = "";
  }

(* One client thread per connection, each sending its next request only
   after the previous reply (closed loop). [next i] hands connection [i]
   its next query seed, or [None] to stop. *)
let closed_loop spec conns ~next ~spans =
  let m = Mutex.create () in
  let results = ref [] in
  let client i conn obs =
    let rec loop () =
      match Mutex.protect m (fun () -> next i) with
      | None -> ()
      | Some qseed ->
          let t0 = now () in
          let resp =
            Obs.span obs "client.call" (fun () ->
                try Ok (Service.call ~timeout:120.0 conn (request spec qseed))
                with e -> Error (Printexc.to_string e))
          in
          let o = daemon_outcome qseed (now () -. t0) resp in
          Mutex.protect m (fun () -> results := o :: !results);
          loop ()
    in
    loop ()
  in
  let collectors =
    List.map (fun _ -> if spans then Obs.create ~level:Obs.Full () else Obs.off) conns
  in
  let threads =
    List.mapi
      (fun i (conn, obs) -> Thread.create (fun () -> client i conn obs) ())
      (List.combine conns collectors)
  in
  List.iter Thread.join threads;
  (List.rev !results, collectors)

type session = {
  d : daemon;
  conns : Transport.t list;
  admin : Transport.t;
  setup_s : float;
  warm : outcome list;
}

(* Daemon set-up: spawn `dstress serve`, wait until it accepts, and push
   one warm-up request through each client connection. *)
let start_session spec exe ~warm =
  let t0 = now () in
  let d = spawn_daemon exe in
  match
    let deadline = t0 +. 30.0 in
    let conns = List.map (fun _ -> connect d ~deadline) warm in
    let pending = Array.of_list (List.map Option.some warm) in
    let next i =
      let s = pending.(i) in
      pending.(i) <- None;
      s
    in
    let warm, _ = closed_loop spec conns ~next ~spans:false in
    let setup_s = now () -. t0 in
    { d; conns; admin = connect d ~deadline:(now () +. 30.0); setup_s; warm }
  with
  | s -> s
  | exception e ->
      kill d;
      raise e

let stats_counter (st : Service.stats) name =
  Option.value ~default:0 (List.assoc_opt name st.Service.counters)

let stats_p50 (st : Service.stats) name =
  match List.assoc_opt name st.Service.latencies with Some l -> l.Service.l_p50 | None -> 0.0

let worker_pids (st : Service.stats) = List.map (fun w -> w.Service.w_pid) st.Service.workers

(* Check the daemon's own account (every request sent was completed),
   then drain. *)
let stop_session s ~sent =
  let st = Service.fetch_stats s.admin in
  let completed = stats_counter st "service.requests_completed" in
  if completed <> sent then problem "the daemon completed %d requests; %d were sent" completed sent;
  s.d.workers <- worker_pids st;
  List.iter Transport.close (s.admin :: s.conns);
  drain s.d

(* The daemon must do exactly the work of a solo engine run of the same
   request: same released output, same AND/OT/round counts. *)
let cross_check spec grp (w : outcome) =
  let solo = solo_query spec grp ~bobs:Obs.off w.qseed in
  let count o name = List.assoc_opt name o.facts in
  if
    w.output <> solo.output
    || List.exists (fun n -> count w n <> count solo n) [ "mpc.and_gates"; "mpc.ots"; "mpc.rounds" ]
  then problem "seed %d: the daemon's reply differs from a solo engine run" w.qseed

let run_daemon spec exe ~seed ~seconds ~trace =
  let warm = warm_seeds spec ~seed 2 in
  let seeds = Array.of_list (query_seeds spec ~seed ~label:"" (12 * seconds)) in
  let cursor = ref 0 and rss_mb = ref 0.0 in
  (* Peak RSS of the coordinator and its worker, read when the
     [rss_after]-th timed request is handed out. *)
  let read_rss d st =
    rss_mb := List.fold_left (fun a pid -> a +. peak_rss_mb pid) 0.0 (d.pid :: worker_pids st)
  in
  let until ~d ~st deadline _ =
    if now () >= deadline || !cursor >= Array.length seeds then None
    else begin
      incr cursor;
      if !cursor = rss_after then read_rss d st;
      Some seeds.(!cursor - 1)
    end
  in
  (* An extra set-up sample: a fresh daemon, drained right away. *)
  let sample () =
    let s = start_session spec exe ~warm in
    Fun.protect
      ~finally:(fun () -> kill s.d)
      (fun () ->
        stop_session s ~sent:(List.length s.warm);
        (s.setup_s, s.warm))
  in
  let s = start_session spec exe ~warm in
  Fun.protect
    ~finally:(fun () -> kill s.d)
    (fun () ->
      let grp = Group.by_name spec.group in
      let st0 = Service.fetch_stats s.admin in
      let binaries = [ Sys.executable_name; exe ] in
      take_probe ();
      (* As in run_solo, set-up samples are spread over the timed phase:
         it is cut into slices, each ending once both connections have
         their last reply, and a fresh daemon is sampled after each one
         with the clock stopped. *)
      let slices = if trace then 1 else setup_samples - 1 in
      let slice = float_of_int seconds /. if trace then 2.0 else float_of_int slices in
      let untraced = ref [] and samples = ref [] and wall = ref 0.0 in
      for _ = 1 to slices do
        let t0 = now () in
        let os, _ =
          closed_loop spec s.conns ~next:(until ~d:s.d ~st:st0 (t0 +. slice)) ~spans:false
        in
        wall := !wall +. (now () -. t0);
        untraced := !untraced @ os;
        if not trace then samples := sample () :: !samples
      done;
      let untraced = !untraced and samples = !samples and wall = !wall in
      let warm_outcomes = check_oracle spec (List.concat_map snd samples @ s.warm) in
      if !rss_mb = 0.0 then read_rss s.d st0;
      if not trace then begin
        stop_session s ~sent:(List.length s.warm + List.length untraced);
        let rss_mb = !rss_mb in
        cross_check spec grp (List.hd s.warm);
        let untraced = check_oracle spec untraced in
        check_history spec ~binaries untraced;
        ( warm_outcomes @ untraced,
          end_to_end_values ~outcomes:untraced
            ~setup_s:(median (s.setup_s :: List.map fst samples))
            ~rss_mb )
      end
      else begin
        let pending = ref (List.map (fun o -> o.qseed) untraced) in
        let next _ =
          match !pending with
          | [] -> None
          | q :: rest ->
              pending := rest;
              Some q
        in
        let traced, collectors = closed_loop spec s.conns ~next ~spans:true in
        let bobs = Obs.create ~level:Obs.Full () in
        List.iter (fun c -> Obs.merge_into ~dst:bobs c) collectors;
        let st1 = Obs.span bobs "daemon.fetch_stats" (fun () -> Service.fetch_stats s.admin) in
        (* Solo replays of the first requests give the engine's phase split
           and allocation, which a daemon reply does not carry. *)
        let replay_seeds = List.filteri (fun i _ -> i < 3) (List.map (fun o -> o.qseed) untraced) in
        let replay ~bobs = List.map (fun q -> solo_query spec grp ~bobs q) replay_seeds in
        let replays_off = Obs.span bobs "replay.solo" (fun () -> replay ~bobs:Obs.off) in
        let replays_full = Obs.span bobs "replay.solo_traced" (fun () -> replay ~bobs) in
        let micro = crypto_replays spec grp bobs in
        let sent = List.length s.warm + List.length untraced + List.length traced in
        stop_session s ~sent;
        cross_check spec grp (List.hd s.warm);
        write_trace spec ~seed bobs;
        let untraced = check_oracle spec untraced and traced = check_oracle spec traced in
        same_work "untraced and traced requests" untraced traced;
        check_history spec ~binaries untraced;
        let delta name = float_of_int (stats_counter st1 name - stats_counter st0 name) in
        let request_p50 = stats_p50 st1 "service.request_s" in
        let service =
          [
            ("service.queue_wait_p50_s", stats_p50 st1 "service.queue_wait_s");
            ("service.dispatch_p50_s", stats_p50 st1 "service.dispatch_s");
            ("service.request_p50_s", request_p50);
            ("service.overhead_p50_s", median (latencies untraced) -. request_p50);
            ("service.queue_high_water", float_of_int st1.Service.queue_high_water);
          ]
          @ List.map
              (fun n -> (n, delta n))
              [
                "service.requests_completed";
                "service.requests_rejected";
                "service.requests_degraded";
                "pool.respawns";
                "pool.suspicions";
                "transport.frames_sent";
                "transport.bytes_sent";
                "transport.retransmits";
                "transport.reconnects";
              ]
        in
        ( warm_outcomes @ untraced @ traced,
          layer_values ~untraced:(untraced @ replays_off) ~traced:(traced @ replays_full)
            (micro @ service @ client_values ~untraced ~traced ~wall ~heap:false) )
      end)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage =
  "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--dstress PATH]\n\
   One run of one workload; the last stdout line is the JSON result."

let emit ~attempted ~failed values decl =
  let value name =
    match List.assoc_opt name values with Some v when Float.is_finite v -> v | _ -> 0.0
  in
  let metric (name, unit) =
    (name, Json.Obj [ ("value", Json.Num (value name)); ("unit", Json.Str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!problems = []));
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map metric decl));
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref run_seconds and trace = ref 0 in
  let dstress = ref "" and describe_only = ref false and setup_sample = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the workload's inputs");
      ("--seconds", Arg.Set_int seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--dstress", Arg.Set_string dstress, "PATH dstress CLI binary (serve-en)");
      ("--describe", Arg.Set describe_only, " print the BENCHMARK.json document and exit");
      ( "--setup-sample",
        Arg.Set setup_sample,
        " time one solo set-up in this fresh process, print its seconds and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !describe_only then begin
    print_endline (Json.to_string (describe ()));
    exit 0
  end;
  let names =
    List.map (fun (n, _, _, _) -> n) end_to_end @ List.map (fun (n, _, _) -> n) per_layer
  in
  (match self_test () @ List.filter (fun n -> not (valid_metric_name n)) names with
  | [] -> ()
  | fails ->
      prerr_endline ("perfbench: self-test failed: " ^ String.concat ", " fails);
      exit 2);
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline
          (Printf.sprintf "perfbench: unknown workload %S (one of %s)" !workload
             (String.concat ", " (List.map (fun s -> s.name) specs)));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  if spec.daemon && not (Sys.file_exists !dstress) then begin
    prerr_endline "perfbench: serve-en needs --dstress PATH to the dstress binary";
    exit 2
  end;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  if !setup_sample then begin
    if spec.daemon then begin
      prerr_endline "perfbench: --setup-sample times solo workloads only";
      exit 2
    end;
    let s, _, _ = solo_setup spec ~seed:!seed in
    Printf.printf "%h\n" s;
    exit 0
  end;
  let trace = !trace = 1 in
  let outcomes, values =
    if spec.daemon then run_daemon spec !dstress ~seed:!seed ~seconds:!seconds ~trace
    else run_solo spec ~seed:!seed ~seconds:!seconds ~trace
  in
  take_probe ();
  note "host probe: %s ms before the timed phase and after the run"
    (String.concat ", " (List.map (Printf.sprintf "%.3f") !probes));
  let values = ("host.probe_ms", median !probes) :: values in
  let failed = List.length (List.filter (fun o -> o.output = None) outcomes) in
  let decl =
    if trace then List.map (fun (n, u, _) -> (n, u)) per_layer
    else List.map (fun (n, u, _, _) -> (n, u)) end_to_end
  in
  emit ~attempted:(List.length outcomes) ~failed values decl;
  exit (if !problems = [] then 0 else 1)
