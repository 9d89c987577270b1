(* The dstress command-line tool: run private stress tests on synthetic
   banking networks, inspect the privacy accounting, and produce
   scalability projections. `dstress --help` lists the commands. *)

open Cmdliner
module Prng = Dstress_util.Prng
module Group = Dstress_crypto.Group
module Graph = Dstress_runtime.Graph
module Engine = Dstress_runtime.Engine
module Service = Dstress_runtime.Service
module Reference = Dstress_risk.Reference
module Banking = Dstress_graphgen.Banking
module Query = Dstress_graphgen.Query
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
           (the ideal OT functionality: same outputs, traffic and counters, no OT \
           work) or crypto (real base OTs + IKNP extension).")

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

module Transport = Dstress_runtime.Transport

let executor_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "executor" ] ~docv:"SPEC"
        ~doc:
          "Execution backend: sequential or parallel[:N] (a pool of N <= 64 domains); \
           sequential when absent. Tick-domain results and exports are \
           identical for every backend.")

let preprocess_arg =
  Arg.(
    value & flag
    & info [ "preprocess" ]
        ~doc:
          "Run the offline phase: set up each block's OT sessions and compute \
           its GMW mask keystream for the whole run before the timed online \
           rounds. Outputs, traffic and tick-domain observability are \
           identical either way; only wall-clock moves offline.")

(* ------------------------------------------------------------------ *)
(* Observability arguments                                              *)
(* ------------------------------------------------------------------ *)

module Obs = Dstress_obs.Obs
module Prof = Dstress_obs.Prof

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the run's span trace as Chrome trace_event JSON (load it in \
           about://tracing or Perfetto). The timeline is simulated — 1 tick per wire \
           byte — so the file is bit-identical across --executor.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry to FILE as JSON.")

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

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let export_obs ~trace ~metrics ~trace_wall ~profile report =
  let obs = report.Engine.obs in
  Option.iter (fun path -> write_file path (Obs.trace_json obs)) trace;
  Option.iter (fun path -> write_file path (Obs.metrics_json obs)) metrics;
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

let stress req grpname epsilon shock reference_only fault_rate fault_crashes max_retries
    backoff trace metrics trace_wall profile =
  (* A bad --executor fails before any output. *)
  Result.iter_error
    (fun m -> invalid_arg ("dstress: --executor " ^ m))
    (Service.request_executor req);
  let grp = Group.by_name grpname in
  (* Only the export flags read the collector: collect exactly when one
     is given. *)
  let obs_level =
    if trace <> None || metrics <> None || trace_wall <> None || profile <> None then Obs.Full
    else Obs.Off
  in
  let iterations = req.Service.iterations in
  (match Query.network ~shock req with
  | Query.En inst ->
      let oracle = Reference.eisenberg_noe ~iterations inst in
      Printf.printf "cleartext oracle TDS: $%.2f (converged at round %d)\n"
        oracle.Reference.en_tds oracle.Reference.en_rounds_to_converge
  | Query.Egj inst ->
      let oracle = Reference.elliott_golub_jackson ~iterations inst in
      Printf.printf "cleartext oracle TDS: $%.2f (%d failed banks, monotone: %b)\n"
        oracle.Reference.egj_tds
        (Array.fold_left (fun a f -> if f then a + 1 else a) 0 oracle.Reference.failed)
        oracle.Reference.monotone);
  if not reference_only then begin
    let b = Query.build ~epsilon ~shock req in
    let fault_plan =
      protocol_plan ~graph:b.Query.graph ~iterations ~seed:req.Service.seed ~fault_rate
        ~fault_crashes
    in
    let report = Query.run ~grp ~obs_level ~fault_plan ~max_retries ~backoff req b in
    Printf.printf "DStress noised TDS:   $%.2f\n"
      (Query.tds req.Service.workload report.Engine.output);
    Format.printf "%a@." Engine.pp_report report;
    export_obs ~trace ~metrics ~trace_wall ~profile report
  end

let model_arg =
  Arg.(
    value
    & opt (enum [ ("en", Service.En); ("egj", Service.Egj) ]) Service.En
    & info [ "model" ] ~docv:"MODEL" ~doc:"Systemic-risk model: en or egj.")

(* The flags that name a clearing query, shared by `stress` and
   `request`, so both describe it the same way. *)
let request_term =
  let make workload seed core periphery iterations k ot_mode preprocess executor =
    {
      Service.workload;
      core;
      periphery;
      iterations;
      k;
      seed;
      (* Reserved: the daemon ignores it. *)
      slice_width = 64;
      ot_mode;
      preprocess;
      executor = Option.value executor ~default:"";
    }
  in
  Term.(
    const make $ model_arg $ seed_arg $ core_arg $ periphery_arg $ iterations_arg $ k_arg
    $ ot_arg $ preprocess_arg $ executor_arg)

let stress_cmd =
  let doc = "Run a private systemic-risk stress test on a synthetic network." in
  Cmd.v
    (Cmd.info "stress" ~doc)
    Term.(
      const stress $ request_term $ group_arg $ epsilon_arg $ shock_arg $ reference_only_arg
      $ fault_rate_arg $ fault_crashes_arg $ max_retries_arg $ backoff_arg $ trace_arg
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
(* serve / request commands (daemon mode)                              *)
(* ------------------------------------------------------------------ *)

module Log = Dstress_obs.Log

(* Degraded and rejected requests are expected, typed outcomes: report
   them and exit distinctly rather than crash with a backtrace. *)
let degraded_exit = 3
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

let serve socket listen workers queue_depth log_level slow_request grpname epsilon shock =
  let listen_addr =
    match listen with
    | Some spec ->
        let host, port = parse_host_port spec in
        Service.Tcp (host, port)
    | None -> Service.Unix_socket socket
  in
  let listener, addr =
    try Service.bind_listener listen_addr
    with Unix.Unix_error (e, _, _) ->
      (* A live daemon's socket, or a file that is not a socket, is never
         taken over. *)
      Printf.eprintf "dstress: cannot listen on %s: %s\n"
        (Option.value listen ~default:socket)
        (Unix.error_message e);
      exit 1
  in
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
    | Some level -> Log.create ~level ~sink:Log.stderr_sink ()
  in
  let handler = Query.handler ~grp:(Group.by_name grpname) ~epsilon ~shock in
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
      $ group_arg $ epsilon_arg $ shock_arg)

let request socket connect req timeout trace metrics =
  let conn =
    match connect with
    | Some spec ->
        let host, port = parse_host_port spec in
        Transport.connect_tcp ~attempts:20 ~backoff:0.02 ~host ~port ()
    | None -> Transport.connect ~attempts:20 ~backoff:0.02 ~path:socket ()
  in
  let response = Fun.protect ~finally:(fun () -> Transport.close conn) (fun () ->
      Service.call ~timeout conn req)
  in
  match response with
  | Service.Completed s ->
      Printf.printf "DStress noised TDS:   $%.2f\n"
        (Query.tds req.Service.workload s.Service.output);
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
      const request $ socket $ connect $ request_term $ timeout $ trace_arg $ metrics_arg)

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
          ~doc:"Also write the snapshot as a dstress-stats/2 JSON document to FILE.")
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
      serve_cmd;
      request_cmd;
      stats_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
