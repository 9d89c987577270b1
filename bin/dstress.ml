(* The dstress command-line tool: run private stress tests on synthetic
   banking networks, inspect the privacy accounting, and produce
   scalability projections. `dstress --help` lists the commands. *)

open Cmdliner
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Graph = Dstress_runtime.Graph
module Engine = Dstress_runtime.Engine
module Reference = Dstress_risk.Reference
module En_program = Dstress_risk.En_program
module Egj_program = Dstress_risk.Egj_program
module Topology = Dstress_graphgen.Topology
module Banking = Dstress_graphgen.Banking
module Projection = Dstress_costmodel.Projection
module Utility = Dstress_costmodel.Utility
module Edge_privacy = Dstress_transfer.Edge_privacy
module Matmul = Dstress_baseline.Matmul
module Fault = Dstress_faults.Fault

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc:"PRNG seed for the run.")

(* The accepted names and the help text both come from Group.names, so a
   group added to the registry shows up here automatically. *)
let group_arg =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Group.names)) "toy"
    & info [ "group" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "ElGamal group: one of %s."
             (String.concat ", " Group.names)))

let k_arg =
  Arg.(
    value & opt int 2
    & info [ "k" ] ~docv:"INT" ~doc:"Collusion bound; blocks have k+1 members.")

let ot_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("simulation", Dstress_crypto.Ot_ext.Simulation);
             ("crypto", Dstress_crypto.Ot_ext.Crypto);
           ])
        Dstress_crypto.Ot_ext.Simulation
    & info [ "ot" ] ~docv:"MODE"
        ~doc:
          "Oblivious-transfer backend for the GMW computation step: simulation \
           (cost-model only) or crypto (real base OTs + IKNP extension).")

let core_arg =
  Arg.(value & opt int 3 & info [ "core" ] ~docv:"INT" ~doc:"Core banks in the network.")

let periphery_arg =
  Arg.(
    value & opt int 5 & info [ "periphery" ] ~docv:"INT" ~doc:"Peripheral (regional) banks.")

let iterations_arg =
  Arg.(value & opt int 5 & info [ "iterations"; "i" ] ~docv:"INT" ~doc:"Protocol rounds.")

let epsilon_arg =
  Arg.(value & opt float 1.0 & info [ "epsilon" ] ~docv:"FLOAT" ~doc:"Query privacy cost.")

let shock_arg =
  Arg.(
    value
    & opt (enum [ ("absorbed", Banking.Absorbed); ("cascade", Banking.Cascade) ])
        Banking.Cascade
    & info [ "shock" ] ~docv:"SCENARIO" ~doc:"Stress scenario: absorbed or cascade.")

let reference_only_arg =
  Arg.(
    value & flag
    & info [ "reference-only" ] ~doc:"Skip MPC; run only the cleartext oracle.")

let fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "fault-rate" ] ~docv:"FLOAT"
        ~doc:
          "Per-(edge, round) probability of injecting a dropped, delayed or corrupted \
           transfer and of forcing a decryption-table miss. 0 disables injection.")

let fault_crashes_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-crashes" ] ~docv:"INT"
        ~doc:"Crash that many distinct block members at random mid-run rounds.")

let max_retries_arg =
  Arg.(
    value & opt int 2
    & info [ "max-retries" ] ~docv:"INT"
        ~doc:
          "Transfer retries after a decryption failure, before escalating to the \
           widened lookup table.")

let backoff_arg =
  Arg.(
    value & opt float 0.05
    & info [ "backoff" ] ~docv:"SECONDS"
        ~doc:"Base simulated retry backoff; doubles on every retry.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"INT"
        ~doc:
          "Worker domains for the block/edge task batches. 1 runs sequentially; \
           results are identical for every value.")

let executor_of_jobs jobs =
  if jobs < 1 then invalid_arg "dstress: --jobs must be >= 1"
  else Dstress_runtime.Executor.parallel ~jobs

module Executor = Dstress_runtime.Executor
module Distributed = Dstress_runtime.Distributed
module Transport = Dstress_runtime.Transport

let executor_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "executor" ] ~docv:"SPEC"
        ~doc:
          "Execution backend: sequential, parallel[:N] (domain pool) or \
           distributed[:N] (forked worker processes behind the fault-tolerant \
           transport). Overrides --jobs. Tick-domain results and exports are \
           identical for every backend.")

let wire_fault_rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "wire-fault-rate" ] ~docv:"FLOAT"
        ~doc:
          "Per-(worker, dispatch batch) probability of injecting a transport \
           fault (disconnect, stall or partition) into a distributed run. \
           Requires --executor distributed[:N]; 0 disables injection.")

let wire_faults_arg =
  Arg.(
    value
    & opt (list (enum [ ("disconnect", `Disconnect); ("stall", `Stall); ("partition", `Partition) ])) []
    & info [ "wire-faults" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated wire-fault kinds to inject deterministically (one \
           fault each on early dispatch batches): disconnect, stall, partition. \
           Requires --executor distributed[:N].")

let transport_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "transport-metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's wall-domain transport/pool counters (frames, \
           reconnects, backoff sleeps, respawns, suspicions, fenced frames) to \
           FILE: CSV when FILE ends in .csv, JSON otherwise. Only produced by \
           --executor distributed[:N] — these counters are deliberately not in \
           the deterministic --metrics export.")

(* --executor wins over the legacy --jobs. *)
let resolve_executor ~spec ~jobs =
  match spec with
  | None -> executor_of_jobs jobs
  | Some s -> (
      match Executor.of_string s with
      | Ok e -> e
      | Error m -> invalid_arg ("dstress: --executor " ^ m))

let wire_plan ~exec ~seed ~iterations ~wire_fault_rate ~wire_faults =
  if wire_fault_rate = 0.0 && wire_faults = [] then Fault.empty
  else
    match Executor.distributed_ctx exec with
    | None ->
        invalid_arg "dstress: wire faults require --executor distributed[:N]"
    | Some ctx ->
        let o = Distributed.opts ctx in
        let workers = o.Distributed.workers in
        (* Every engine phase is at most two dispatch batches per round. *)
        let batches = (2 * (iterations + 1)) + 2 in
        (if wire_fault_rate > 0.0 then
           Fault.random_wire_plan ~seed ~workers ~batches
             {
               Fault.disconnect = wire_fault_rate;
               stall = wire_fault_rate;
               partition = wire_fault_rate;
             }
         else Fault.empty)
        @ List.map
            (function
              | `Disconnect -> Fault.Disconnect_worker { worker = 0; batch = 1 }
              | `Stall ->
                  (* Twice the silence suspicion needs, so it always trips. *)
                  let seconds = 2.0 *. o.Distributed.phi *. o.Distributed.heartbeat_interval in
                  Fault.Stall_worker { worker = 1 mod workers; batch = 2; seconds }
              | `Partition ->
                  Fault.Partition_worker { worker = 0; from_batch = 3; until_batch = 4 })
            wire_faults

let export_transport_metrics path (report : Engine.report) =
  Option.iter
    (fun path ->
      match report.Engine.transport_metrics with
      | Some m ->
          let contents =
            if Filename.check_suffix path ".csv" then Dstress_obs.Obs.Metrics.to_csv m
            else Dstress_obs.Json.to_string (Dstress_obs.Obs.Metrics.to_json m)
          in
          let oc = open_out path in
          output_string oc contents;
          close_out oc
      | None ->
          prerr_endline
            "dstress: --transport-metrics ignored (no distributed transport in this run)")
    path

(* A degraded distributed run is an expected, typed outcome: report it
   and exit distinctly rather than crash with a backtrace. *)
let degraded_exit = 3

let catch_degraded f =
  try f () with
  | Distributed.Degraded d ->
      Format.eprintf "dstress: distributed run degraded: %a@." Distributed.pp_degradation d;
      exit degraded_exit
  | Distributed.Task_failed { index; message } ->
      Format.eprintf "dstress: worker task %d failed: %s@." index message;
      exit degraded_exit

let slice_width_arg =
  Arg.(
    value & opt int 64
    & info [ "slice-width" ] ~docv:"INT"
        ~doc:
          "Vertices per bitsliced GMW batch in a computation step (1-64). 1 \
           selects the scalar per-vertex evaluator; results are identical \
           for every value.")

let preprocess_arg =
  Arg.(
    value & flag
    & info [ "preprocess" ]
        ~doc:
          "Run the offline phase: generate (or load from --triple-cache) each \
           block's correlated randomness for the whole run before the timed \
           online rounds. Outputs, traffic and tick-domain observability are \
           identical either way; only wall-clock moves offline.")

let triple_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "triple-cache" ] ~docv:"DIR"
        ~doc:
          "Persist preprocessed correlated randomness under DIR (created on \
           demand) so later runs — including other processes — reuse it. \
           Implies --preprocess.")

(* ------------------------------------------------------------------ *)
(* Observability arguments                                              *)
(* ------------------------------------------------------------------ *)

module Obs = Dstress_obs.Obs
module Prof = Dstress_obs.Prof

let obs_level_arg =
  Arg.(
    value
    & opt (enum [ ("off", Obs.Off); ("basic", Obs.Basic); ("full", Obs.Full) ]) Obs.Off
    & info [ "obs-level" ] ~docv:"LEVEL"
        ~doc:
          "Observability level: off (zero-cost), basic (metrics + phase spans), full \
           (adds per-vertex, per-transfer and per-attempt spans). Implied full when \
           --trace or --metrics is given without an explicit level.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's span trace as Chrome trace_event JSON (load it in \
           about://tracing or Perfetto). The timeline is simulated — 1 tick per wire \
           byte — so the file is bit-identical across --jobs and --slice-width.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry to FILE: CSV when FILE ends in .csv, \
           JSON otherwise.")

let trace_wall_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-wall" ] ~docv:"FILE"
        ~doc:
          "Write the run's span trace on the measured wall-clock timeline instead \
           of simulated ticks. Unlike --trace this output varies run to run; it is \
           only produced when this flag is given.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Aggregate span wall-times into a hot-spot profile: a human table when \
           FILE is -, JSON otherwise (per-label self/total seconds and counts).")

(* An export flag without --obs-level means the user wants the data:
   collect everything rather than silently writing empty exports. *)
let effective_obs_level level ~trace ~metrics ~trace_wall ~profile =
  if
    level = Obs.Off
    && (trace <> None || metrics <> None || trace_wall <> None || profile <> None)
  then Obs.Full
  else level

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let export_obs ~trace ~metrics ~trace_wall ~profile report =
  let obs = report.Engine.obs in
  Option.iter (fun path -> write_file path (Obs.trace_json obs)) trace;
  Option.iter
    (fun path ->
      let contents =
        if Filename.check_suffix path ".csv" then Obs.metrics_csv obs
        else Obs.metrics_json obs
      in
      write_file path contents)
    metrics;
  Option.iter (fun path -> write_file path (Prof.trace_wall_json obs)) trace_wall;
  Option.iter
    (fun path ->
      let prof = Prof.of_obs obs in
      if path = "-" then Format.printf "%a@." (Prof.pp_table ?top_n:None) prof
      else write_file path (Dstress_obs.Json.to_string (Prof.to_json prof)))
    profile

(* Fault plans are drawn against the concrete graph, so this runs after
   graph construction, just before the engine starts. *)
let protocol_plan ~graph ~iterations ~seed ~fault_rate ~fault_crashes =
  let rounds = iterations + 1 in
  let nodes = Graph.n graph in
  (if fault_rate > 0.0 then
     let rates =
       { Fault.no_faults with
         drop = fault_rate;
         delay = fault_rate;
         corrupt = fault_rate;
         miss = fault_rate;
       }
     in
     Fault.random_plan ~seed ~rounds ~nodes ~edges:(Graph.edges graph) rates
   else Fault.empty)
  @
  if fault_crashes > 0 then Fault.random_crashes ~seed ~nodes ~rounds ~count:fault_crashes
  else Fault.empty

(* ------------------------------------------------------------------ *)
(* stress command                                                      *)
(* ------------------------------------------------------------------ *)

let make_network ~seed ~core ~periphery ~shock =
  let prng = Prng.of_int seed in
  let topo = Topology.core_periphery prng ~core ~periphery () in
  let inst = Banking.en_of_topology prng topo () in
  (Banking.shock_en prng inst topo shock, topo)

let make_egj_network ~seed ~core ~periphery ~shock =
  let prng = Prng.of_int seed in
  let topo = Topology.core_periphery prng ~core ~periphery () in
  let inst = Banking.egj_of_topology prng topo () in
  (Banking.shock_egj prng inst topo shock, topo)

(* Fixed-point encoding parameters are part of the protocol, not user
   knobs: both the solo path and the daemon must agree on them for a
   served request to reproduce a solo run bit for bit. *)
let en_scale = 0.25
let egj_frac = 6
let egj_scale = 4.0

(* One seeded clearing run — shared verbatim by the stress command and
   the daemon's request handler, so a request served by `dstress serve`
   is the same computation (same network draws, same engine config, same
   tick-domain exports) as a solo `dstress stress` of that config.
   Returns the report and the decoded TDS. *)
let run_model model ~grp ~k ~epsilon ~iterations ~seed ~core ~periphery ~shock ~ot_mode
    ~slice_width ~preprocess ~triple_cache ~executor ~obs_level ~fault_plan ~max_retries
    ~backoff =
  let base_cfg ~degree =
    { (Engine.default_config grp ~k ~degree_bound:degree ~seed:(string_of_int seed)) with
      Engine.executor;
      ot_mode;
      slice_width;
      preprocess;
      triple_cache;
      obs_level;
      fault_plan;
      max_retries;
      backoff;
    }
  in
  match model with
  | `En ->
      let inst, _ = make_network ~seed ~core ~periphery ~shock in
      let l = 12 and scale = en_scale in
      let graph = En_program.graph_of_instance inst in
      let degree = Graph.max_degree graph in
      let p = En_program.make ~epsilon ~sensitivity:20 ~l ~degree ~iterations () in
      let states = En_program.encode_instance inst ~graph ~l ~degree ~scale in
      let report = Engine.run (base_cfg ~degree) p ~graph ~initial_states:states in
      (report, En_program.decode_output ~scale report.Engine.output)
  | `Egj ->
      let inst, _ = make_egj_network ~seed ~core ~periphery ~shock in
      let l = 16 and frac = egj_frac and scale = egj_scale in
      let graph = Egj_program.graph_of_instance inst in
      let degree = Graph.max_degree graph in
      let p = Egj_program.make ~epsilon ~sensitivity:20 ~l ~frac ~degree ~iterations () in
      let states = Egj_program.encode_instance inst ~graph ~l ~frac ~degree ~scale in
      let report = Engine.run (base_cfg ~degree) p ~graph ~initial_states:states in
      (report, Egj_program.decode_output ~scale ~frac report.Engine.output)

let stress model seed grpname ot_mode k core periphery iterations epsilon shock
    reference_only fault_rate fault_crashes max_retries backoff jobs executor_spec
    wire_fault_rate wire_faults transport_metrics slice_width preprocess
    triple_cache obs_level trace metrics trace_wall profile =
  let grp = Group.by_name grpname in
  let preprocess = preprocess || triple_cache <> None in
  let obs_level = effective_obs_level obs_level ~trace ~metrics ~trace_wall ~profile in
  let exec = resolve_executor ~spec:executor_spec ~jobs in
  let wire = wire_plan ~exec ~seed ~iterations ~wire_fault_rate ~wire_faults in
  let finish ~graph ~tds report =
    ignore graph;
    Printf.printf "DStress noised TDS:   $%.2f\n" tds;
    Format.printf "%a@." Engine.pp_report report;
    export_obs ~trace ~metrics ~trace_wall ~profile report;
    export_transport_metrics transport_metrics report
  in
  let mpc graph_of_model =
    let graph = graph_of_model () in
    let fault_plan =
      protocol_plan ~graph ~iterations ~seed ~fault_rate ~fault_crashes @ wire
    in
    let report, tds =
      catch_degraded (fun () ->
          run_model model ~grp ~k ~epsilon ~iterations ~seed ~core ~periphery ~shock
            ~ot_mode ~slice_width ~preprocess ~triple_cache ~executor:exec ~obs_level
            ~fault_plan ~max_retries ~backoff)
    in
    finish ~graph ~tds report
  in
  match model with
  | `En ->
      let inst, _ = make_network ~seed ~core ~periphery ~shock in
      let oracle = Reference.eisenberg_noe ~iterations inst in
      Printf.printf "cleartext oracle TDS: $%.2f (converged at round %d)\n"
        oracle.Reference.en_tds oracle.Reference.en_rounds_to_converge;
      if not reference_only then mpc (fun () -> En_program.graph_of_instance inst)
  | `Egj ->
      let inst, _ = make_egj_network ~seed ~core ~periphery ~shock in
      let oracle = Reference.elliott_golub_jackson ~iterations inst in
      Printf.printf "cleartext oracle TDS: $%.2f (%d failed banks, monotone: %b)\n"
        oracle.Reference.egj_tds
        (Array.fold_left (fun a f -> if f then a + 1 else a) 0 oracle.Reference.failed)
        oracle.Reference.monotone;
      if not reference_only then mpc (fun () -> Egj_program.graph_of_instance inst)

let model_arg =
  Arg.(
    value
    & opt (enum [ ("en", `En); ("egj", `Egj) ]) `En
    & info [ "model" ] ~docv:"MODEL" ~doc:"Systemic-risk model: en or egj.")

let stress_cmd =
  let doc = "Run a private systemic-risk stress test on a synthetic network." in
  Cmd.v
    (Cmd.info "stress" ~doc)
    Term.(
      const stress $ model_arg $ seed_arg $ group_arg $ ot_arg $ k_arg $ core_arg
      $ periphery_arg
      $ iterations_arg $ epsilon_arg $ shock_arg $ reference_only_arg $ fault_rate_arg
      $ fault_crashes_arg $ max_retries_arg $ backoff_arg $ jobs_arg $ executor_arg
      $ wire_fault_rate_arg $ wire_faults_arg $ transport_metrics_arg
      $ slice_width_arg $ preprocess_arg $ triple_cache_arg $ obs_level_arg $ trace_arg
      $ metrics_arg $ trace_wall_arg $ profile_arg)

(* ------------------------------------------------------------------ *)
(* project command                                                     *)
(* ------------------------------------------------------------------ *)

let project grpname n d k l =
  let grp = Group.by_name grpname in
  let units = Projection.measure_units grp ~seed:"cli" in
  let params = { Projection.n; d; k; l; iterations = None; tree_fanout = 100 } in
  Format.printf "%a@." Projection.pp (Projection.project units params)

let project_cmd =
  let doc = "Project end-to-end cost for a network size (Figure 6 methodology)." in
  let n = Arg.(value & opt int 1750 & info [ "n" ] ~docv:"INT" ~doc:"Banks.") in
  let d = Arg.(value & opt int 100 & info [ "d" ] ~docv:"INT" ~doc:"Degree bound.") in
  let k = Arg.(value & opt int 19 & info [ "k" ] ~docv:"INT" ~doc:"Collusion bound.") in
  let l = Arg.(value & opt int 16 & info [ "l" ] ~docv:"INT" ~doc:"Message bits.") in
  Cmd.v (Cmd.info "project" ~doc) Term.(const project $ group_arg $ n $ d $ k $ l)

(* ------------------------------------------------------------------ *)
(* privacy command                                                     *)
(* ------------------------------------------------------------------ *)

let privacy () =
  let p = Utility.paper_policy in
  let eps = Utility.epsilon_for_accuracy p in
  Printf.printf "output privacy (§4.5):\n";
  Printf.printf "  eps_max = %.4f, eps_query = %.4f, runs/year = %d\n" p.Utility.epsilon_max
    eps (Utility.runs_per_year p);
  Printf.printf "  Laplace scale = $%.1fB for a +-$%.0fB accuracy target\n\n"
    (Utility.noise_scale_dollars p ~epsilon:eps /. 1e9)
    (p.Utility.accuracy_dollars /. 1e9);
  Printf.printf "edge privacy (Appendix B):\n";
  Format.printf "%a@." Edge_privacy.pp_report (Edge_privacy.analyze Edge_privacy.paper_example)

let privacy_cmd =
  let doc = "Print the privacy-budget accounting (output + edge privacy)." in
  Cmd.v (Cmd.info "privacy" ~doc) Term.(const privacy $ const ())

(* ------------------------------------------------------------------ *)
(* baseline command                                                    *)
(* ------------------------------------------------------------------ *)

let baseline grpname max_n =
  let grp = Group.by_name grpname in
  let sizes = List.filter (fun n -> n <= max_n) [ 3; 4; 5; 6; 8; 10 ] in
  let ms =
    List.map
      (fun n ->
        let m = Matmul.measure grp ~parties:3 ~n ~bits:12 ~seed:("cli" ^ string_of_int n) in
        Printf.printf "N=%2d: %.2f s (%d AND gates)\n" n m.Matmul.seconds m.Matmul.and_count;
        m)
      sizes
  in
  let c = Matmul.fit_cubic ms in
  Printf.printf "extrapolation: EN on 1750 banks as one MPC = %.1f years\n"
    (Matmul.years (Matmul.extrapolate_seconds ~c ~n:1750 ~powers:11))

let baseline_cmd =
  let doc = "Benchmark the naive monolithic-MPC baseline (§5.5)." in
  let max_n =
    Arg.(value & opt int 6 & info [ "max-n" ] ~docv:"INT" ~doc:"Largest matrix size.")
  in
  Cmd.v (Cmd.info "baseline" ~doc) Term.(const baseline $ group_arg $ max_n)

(* ------------------------------------------------------------------ *)
(* scenarios command                                                   *)
(* ------------------------------------------------------------------ *)

let scenarios seed iterations =
  Printf.printf "%-10s %12s %14s %16s\n" "scenario" "TDS" "impaired core" "converged round";
  List.iter
    (fun (name, shock) ->
      let inst, topo = Banking.appendix_c_network (Prng.of_int seed) shock in
      let r = Reference.eisenberg_noe ~iterations inst in
      let impaired =
        List.length
          (List.filter (fun c -> r.Reference.prorate.(c) < 0.999) topo.Dstress_graphgen.Topology.core)
      in
      Printf.printf "%-10s %12.2f %11d/10 %16d\n" name r.Reference.en_tds impaired
        r.Reference.en_rounds_to_converge)
    [ ("absorbed", Banking.Absorbed); ("cascade", Banking.Cascade) ]

let scenarios_cmd =
  let doc = "Compare the Appendix-C contagion scenarios on a 50-bank network." in
  let iters =
    Arg.(value & opt int 40 & info [ "iterations" ] ~docv:"INT" ~doc:"Solver rounds.")
  in
  Cmd.v (Cmd.info "scenarios" ~doc) Term.(const scenarios $ seed_arg $ iters)

(* ------------------------------------------------------------------ *)
(* transport command                                                   *)
(* ------------------------------------------------------------------ *)

(* A true two-process demo of the wire layer: the coordinator re-execs
   this same binary as an echo worker (no fork-snapshot sharing — the
   frames on the socket are the only channel), then measures frame RTTs
   and prints the transport counters. This is also the CI smoke test for
   the listen/connect/backoff path. *)

let transport_worker path =
  let conn = Transport.connect ~attempts:20 ~backoff:0.01 ~path () in
  let rec loop () =
    match Transport.recv conn ~timeout:30.0 with
    | None -> exit 1
    | Some fr when fr.Transport.kind = Transport.Kind.shutdown -> exit 0
    | Some fr when fr.Transport.kind = Transport.Kind.ping ->
        ignore (Transport.send conn ~kind:Transport.Kind.echo ~epoch:fr.Transport.epoch fr.Transport.payload);
        loop ()
    | Some _ -> loop ()
  in
  loop ()

let transport_run pings payload_bytes =
  if pings < 1 then invalid_arg "dstress transport: --pings must be >= 1";
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "dstress-transport-%d.sock" (Unix.getpid ())) in
  let lfd = Transport.listen ~path in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "transport"; "--connect"; path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      | _ | (exception Unix.Unix_error _) -> ())
    (fun () ->
      let conn = Transport.accept ~deadline:10.0 lfd in
      let payload = Bytes.make payload_bytes 'p' in
      let rtts =
        Array.init pings (fun _ ->
            let t0 = Unix.gettimeofday () in
            ignore (Transport.send conn ~kind:Transport.Kind.ping ~epoch:0 payload);
            match Transport.recv conn ~timeout:10.0 with
            | Some fr when fr.Transport.kind = Transport.Kind.echo ->
                Unix.gettimeofday () -. t0
            | _ -> failwith "dstress transport: echo did not arrive")
      in
      ignore (Transport.send conn ~kind:Transport.Kind.shutdown ~epoch:0 Bytes.empty);
      let wpid, status = Unix.waitpid [] pid in
      Array.sort compare rtts;
      let pct p = rtts.(min (pings - 1) (p * pings / 100)) in
      Printf.printf "transport echo over %s\n" path;
      Printf.printf "  worker pid %d exited %s\n" wpid
        (match status with
        | Unix.WEXITED c -> Printf.sprintf "with code %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "on signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped by %d" s);
      Printf.printf "  %d pings of %d B: rtt p50 %.1f us, p95 %.1f us, max %.1f us\n" pings
        payload_bytes
        (pct 50 *. 1e6)
        (pct 95 *. 1e6)
        (rtts.(pings - 1) *. 1e6);
      let m = Transport.metrics conn in
      Printf.printf "  frames sent %d (%d B), received %d (%d B)\n"
        (Dstress_obs.Obs.Metrics.counter m "transport.frames_sent")
        (Dstress_obs.Obs.Metrics.counter m "transport.bytes_sent")
        (Dstress_obs.Obs.Metrics.counter m "transport.frames_received")
        (Dstress_obs.Obs.Metrics.counter m "transport.bytes_received");
      Transport.close conn)

let transport pings payload connect =
  match connect with
  | Some path -> transport_worker path
  | None -> transport_run pings payload

let transport_cmd =
  let doc = "Exercise the fault-tolerant transport against a real worker process." in
  let pings =
    Arg.(value & opt int 200 & info [ "pings" ] ~docv:"INT" ~doc:"Ping frames to send.")
  in
  let payload =
    Arg.(value & opt int 64 & info [ "payload" ] ~docv:"BYTES" ~doc:"Ping payload size.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"PATH"
          ~doc:"Internal: run as the echo worker, connecting to PATH.")
  in
  Cmd.v (Cmd.info "transport" ~doc) Term.(const transport $ pings $ payload $ connect)

(* ------------------------------------------------------------------ *)
(* serve / request commands (daemon mode)                              *)
(* ------------------------------------------------------------------ *)

module Service = Dstress_runtime.Service
module Log = Dstress_obs.Log

let rejected_exit = 4

let default_socket = Filename.concat (Filename.get_temp_dir_name ()) "dstress.sock"

let parse_host_port spec =
  match String.rindex_opt spec ':' with
  | None -> invalid_arg (Printf.sprintf "dstress: %S is not HOST:PORT" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 0xffff && host <> "" -> (host, p)
      | _ -> invalid_arg (Printf.sprintf "dstress: %S is not HOST:PORT" spec))

(* The daemon side of run_model: rebuild the engine config from the wire
   request and return the per-request tick-domain exports. Runs inside a
   persistent worker, so it must never exit the process — engine
   exceptions propagate and become a typed error frame (-> Degraded). *)
let service_handler ~grpname ~epsilon ~shock ~triple_cache (req : Service.request) =
  let grp = Group.by_name grpname in
  let executor =
    match Service.request_executor req with Ok e -> e | Error m -> failwith m
  in
  let model = match req.Service.workload with Service.En -> `En | Service.Egj -> `Egj in
  let preprocess = req.Service.preprocess || triple_cache <> None in
  let report, _tds =
    run_model model ~grp ~k:req.Service.k ~epsilon ~iterations:req.Service.iterations
      ~seed:req.Service.seed ~core:req.Service.core ~periphery:req.Service.periphery
      ~shock ~ot_mode:req.Service.ot_mode ~slice_width:req.Service.slice_width
      ~preprocess ~triple_cache ~executor ~obs_level:Obs.Full ~fault_plan:Fault.empty
      ~max_retries:2 ~backoff:0.05
  in
  {
    Service.output = report.Engine.output;
    mpc_rounds = report.Engine.mpc_rounds;
    mpc_and_gates = report.Engine.mpc_and_gates;
    mpc_ots = report.Engine.mpc_ots;
    trace = Obs.trace_json report.Engine.obs;
    metrics = Obs.metrics_json report.Engine.obs;
  }

let serve socket listen workers queue_depth log_level slow_request grpname epsilon shock
    triple_cache =
  let listen_addr =
    match listen with
    | Some spec ->
        let host, port = parse_host_port spec in
        Service.Tcp (host, port)
    | None -> Service.Unix_socket socket
  in
  let listener, addr = Service.bind_listener listen_addr in
  let pool_opts =
    { Service.default_pool_opts with
      Service.workers;
      queue_depth;
      slow_request_s = slow_request;
    }
  in
  let log =
    match log_level with
    | None -> Log.nop
    | Some level -> Log.create ~level ~capacity:256 ~sink:Log.stderr_sink ()
  in
  let handler = service_handler ~grpname ~epsilon ~shock ~triple_cache in
  Service.serve ~pool_opts ~log
    ~ready:(fun ~addr ->
      Printf.printf "dstress: serving on %s (%d persistent workers, queue depth %d)\n%!"
        addr workers queue_depth)
    ~handler ~listener ~addr ();
  print_endline "dstress: drained"

let serve_cmd =
  let doc =
    "Run a clearing daemon: a persistent worker pool (forked once, reused across \
     requests) serving concurrent DSTRESS-REQ/1 requests over a Unix socket or TCP."
  in
  let socket =
    Arg.(
      value & opt string default_socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket to listen on.")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:"Listen on TCP instead of the Unix socket; port 0 picks an ephemeral one.")
  in
  let workers =
    Arg.(
      value & opt int 2
      & info [ "service-workers" ] ~docv:"INT"
          ~doc:"Persistent worker processes, forked once at startup.")
  in
  let queue_depth =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"INT"
          ~doc:
            "Bound on requests queued for dispatch; submissions past it are rejected \
             with typed backpressure.")
  in
  let log_level =
    let levels =
      ("off", None)
      :: List.map
           (fun l -> (Log.level_name l, Some l))
           [ Log.Error; Log.Warn; Log.Info; Log.Debug ]
    in
    Arg.(
      value
      & opt (enum levels) (Some Log.Info)
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Structured-log threshold for the daemon's wall-domain event log \
             (logfmt lines on stderr, last 256 kept for the stats endpoint): off, \
             error, warn, info or debug. Tick-domain request exports are \
             byte-identical at every level.")
  in
  let slow_request =
    Arg.(
      value
      & opt float Service.default_pool_opts.Service.slow_request_s
      & info [ "slow-request" ] ~docv:"SECONDS"
          ~doc:
            "Log a request at warn level when its end-to-end time (submit to \
             reply) exceeds this many seconds.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket $ listen $ workers $ queue_depth $ log_level $ slow_request
      $ group_arg $ epsilon_arg $ shock_arg $ triple_cache_arg)

let request socket connect model seed core periphery iterations k slice_width ot_mode
    preprocess executor_spec timeout trace metrics =
  let conn =
    match connect with
    | Some spec ->
        let host, port = parse_host_port spec in
        Transport.connect_tcp ~attempts:20 ~backoff:0.02 ~host ~port ()
    | None -> Transport.connect ~attempts:20 ~backoff:0.02 ~path:socket ()
  in
  let req =
    {
      Service.workload = (match model with `En -> Service.En | `Egj -> Service.Egj);
      core;
      periphery;
      iterations;
      k;
      seed;
      slice_width;
      ot_mode;
      preprocess;
      executor = Option.value executor_spec ~default:"";
    }
  in
  let response = Fun.protect ~finally:(fun () -> Transport.close conn) (fun () ->
      Service.call ~timeout conn req)
  in
  match response with
  | Service.Completed s ->
      let tds =
        match model with
        | `En -> En_program.decode_output ~scale:en_scale s.Service.output
        | `Egj ->
            Egj_program.decode_output ~scale:egj_scale ~frac:egj_frac s.Service.output
      in
      Printf.printf "DStress noised TDS:   $%.2f\n" tds;
      Printf.printf "rounds: %d  AND gates: %d  OTs: %d\n" s.Service.mpc_rounds
        s.Service.mpc_and_gates s.Service.mpc_ots;
      Option.iter (fun path -> write_file path s.Service.trace) trace;
      Option.iter (fun path -> write_file path s.Service.metrics) metrics
  | Service.Rejected msg ->
      Printf.eprintf "dstress: request rejected: %s\n" msg;
      exit rejected_exit
  | Service.Degraded msg ->
      Printf.eprintf "dstress: request degraded: %s\n" msg;
      exit degraded_exit

let request_cmd =
  let doc =
    "Submit one clearing request to a running daemon and print the result. Exit \
     status: 0 completed, 3 degraded, 4 rejected."
  in
  let socket =
    Arg.(
      value & opt string default_socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")
  in
  let timeout =
    Arg.(
      value & opt float 120.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Wait this long for the response.")
  in
  Cmd.v
    (Cmd.info "request" ~doc)
    Term.(
      const request $ socket $ connect $ model_arg $ seed_arg $ core_arg $ periphery_arg
      $ iterations_arg $ k_arg $ slice_width_arg $ ot_arg $ preprocess_arg $ executor_arg
      $ timeout $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* stats command                                                       *)
(* ------------------------------------------------------------------ *)

let stats socket connect timeout json =
  (* A scrape must fail fast when no daemon is listening: 5 attempts of
     jittered-exponential backoff stay under a second, unlike the
     request client's patient retry (which tolerates a daemon that is
     still starting up). *)
  let conn =
    try
      match connect with
      | Some spec ->
          let host, port = parse_host_port spec in
          Transport.connect_tcp ~attempts:5 ~backoff:0.02 ~host ~port ()
      | None -> Transport.connect ~attempts:5 ~backoff:0.02 ~path:socket ()
    with Transport.Error err ->
      Printf.eprintf "dstress: cannot reach daemon: %s\n"
        (Transport.error_message err);
      exit 1
  in
  let st =
    Fun.protect
      ~finally:(fun () -> Transport.close conn)
      (fun () -> Service.fetch_stats ~timeout conn)
  in
  Option.iter
    (fun path -> write_file path (Dstress_obs.Json.to_string (Service.stats_to_json st)))
    json;
  print_string (Service.stats_prometheus st)

let stats_cmd =
  let doc =
    "Scrape a running daemon's live telemetry — uptime, per-worker state, queue \
     depth, request counters and latency quantiles — as Prometheus-style text on \
     stdout. The stats request is answered even while the daemon is draining."
  in
  let socket =
    Arg.(
      value & opt string default_socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon Unix socket.")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")
  in
  let timeout =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Wait this long for the snapshot.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the snapshot as a dstress-stats/1 JSON document to FILE.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(const stats $ socket $ connect $ timeout $ json)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "differentially private computations on distributed graphs" in
  Cmd.group
    (Cmd.info "dstress" ~version:"1.0.0" ~doc)
    [
      stress_cmd;
      project_cmd;
      privacy_cmd;
      baseline_cmd;
      scenarios_cmd;
      transport_cmd;
      serve_cmd;
      request_cmd;
      stats_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
