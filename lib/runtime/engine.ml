module Bitvec = Dstress_util.Bitvec
module Prg = Dstress_crypto.Prg
module Group = Dstress_crypto.Group
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Ot_ext = Dstress_crypto.Ot_ext
module Circuit = Dstress_circuit.Circuit
module Traffic = Dstress_mpc.Traffic
module Sharing = Dstress_mpc.Sharing
module Gmw = Dstress_mpc.Gmw
module Plan = Dstress_mpc.Plan
module Setup = Dstress_transfer.Setup
module Protocol = Dstress_transfer.Protocol
module Noise_circuit = Dstress_dp.Noise_circuit
module Fault = Dstress_faults.Fault
module Obs = Dstress_obs.Obs

type aggregation = Single_block | Two_level of int

type config = {
  grp : Group.t;
  k : int;
  degree_bound : int;
  ot_mode : Ot_ext.mode;
  transfer_alpha : float;
  table_radius : int;
  aggregation : aggregation;
  seed : string;
  fault_plan : Fault.plan;
  max_retries : int;
  backoff : float;
  executor : Executor.t;
  obs_level : Obs.level;
  preprocess : bool;
}

(* How much wider the escalation lookup table is than the regular one:
   the last recovery attempt covers [-8r, k+1+8r] instead of [-r, k+1+r],
   which drops the residual miss probability by ~alpha^(7r). *)
let escalation_widening = 8

let default_config ?(seed = "dstress") grp ~k ~degree_bound =
  {
    grp;
    k;
    degree_bound;
    ot_mode = Ot_ext.Simulation;
    transfer_alpha = 0.5;
    table_radius = 120;
    aggregation = Single_block;
    seed;
    fault_plan = Fault.empty;
    max_retries = 2;
    backoff = 0.05;
    executor = Executor.of_env ();
    obs_level = Obs.Off;
    preprocess = false;
  }

let validate_config cfg =
  if cfg.k < 1 then invalid_arg "Engine.run: k must be >= 1 (blocks need k+1 >= 2 members)";
  if cfg.degree_bound < 1 then invalid_arg "Engine.run: degree_bound must be >= 1";
  if not (cfg.transfer_alpha > 0.0 && cfg.transfer_alpha < 1.0) then
    invalid_arg "Engine.run: transfer_alpha must lie in (0, 1)";
  if cfg.table_radius <= 0 then invalid_arg "Engine.run: table_radius must be > 0";
  (match cfg.aggregation with
  | Two_level fanout when fanout < 1 ->
      invalid_arg "Engine.run: Two_level aggregation fan-out must be >= 1"
  | Two_level _ | Single_block -> ());
  if cfg.max_retries < 0 then invalid_arg "Engine.run: max_retries must be >= 0";
  if cfg.backoff < 0.0 then invalid_arg "Engine.run: backoff must be >= 0";
  match cfg.executor with
  | Executor.Parallel { jobs } when jobs < 1 || jobs > Executor.max_jobs ->
      invalid_arg
        (Printf.sprintf "Engine.run: executor jobs must be in [1, %d]" Executor.max_jobs)
  | Executor.Parallel _ | Executor.Sequential -> ()

type phase = Phase.id = Setup | Initialization | Computation | Communication | Aggregation

let phase_name = Phase.name
let all_phases = Phase.all

type report = {
  output : int;
  iterations : int;
  traffic : Traffic.t;
  phase_bytes : (phase * int) list;
  phase_seconds : (phase * float) list;
  transfer_failures : int;
  recovered_failures : int;
  unrecovered_failures : int;
  transfer_retries : int;
  crash_recoveries : int;
  faults_injected : (Fault.kind * int) list;
  retry_epsilon : float;
  recovery_seconds : (phase * float) list;
  mpc_rounds : int;
  mpc_and_gates : int;
  mpc_ots : int;
  update_stats : Circuit.stats;
  obs : Obs.t;
  offline_metrics : Obs.Metrics.t option;
}

(* Total simulated wait for [retries] exponential-backoff retransmissions
   starting at [backoff] seconds: backoff * (2^retries - 1). *)
let backoff_seconds ~backoff ~retries =
  if retries <= 0 then 0.0 else backoff *. ((2.0 ** float_of_int retries) -. 1.0)

(* Fold a block-local GMW traffic matrix (member indices) into a run-wide
   matrix (global node ids) and reset it. *)
let merge_session_traffic traffic session members =
  Traffic.iter_nonzero (Gmw.traffic session) (fun ~src ~dst v ->
      Traffic.add traffic ~src:members.(src) ~dst:members.(dst) v);
  Gmw.reset_traffic session

(* Input shares for the noise section of a noised circuit: every member
   contributes uniform bits; the XOR (the cleartext nobody knows) is
   uniform as long as one member is honest. *)
let noise_input_shares prg ~kp1 p =
  let bits = Noise_circuit.input_bits ~max_magnitude:p.Vertex_program.noise_max_magnitude in
  Array.init kp1 (fun _ -> Prg.bits prg bits)

let run cfg p ~graph ~initial_states =
  validate_config cfg;
  let n = Graph.n graph in
  let kp1 = cfg.k + 1 in
  let d = cfg.degree_bound in
  let sb = p.Vertex_program.state_bits and l = p.Vertex_program.message_bits in
  if Array.length initial_states <> n then
    invalid_arg "Engine.run: one initial state per vertex required";
  Array.iter
    (fun s -> if Bitvec.length s <> sb then invalid_arg "Engine.run: bad state width")
    initial_states;
  if Graph.max_degree graph > d then invalid_arg "Engine.run: vertex degree exceeds bound";
  let exec = cfg.executor and seed = cfg.seed in
  let obs = Obs.create ~level:cfg.obs_level () in
  let acc = Phase.Accounting.create ~obs ~parties:n () in
  let global = Phase.Accounting.traffic acc in
  Obs.enter obs "run";
  let ebytes = Group.element_bytes cfg.grp in
  let injector = Fault.Injector.create cfg.fault_plan in
  (* --- Setup --------------------------------------------------- *)
  let edges = Array.of_list (Graph.edges graph) in
  let setup, edge_keys =
    Phase.run_sequential acc Setup (fun () ->
        let s =
          Setup.run (Prg.of_string ("engine:" ^ seed)) cfg.grp ~n ~k:cfg.k ~degree_bound:d
            ~bits:l
        in
        (* Every node checks the trusted party's signature on the block
           list before it joins its blocks; each certificate's is checked
           where a sender installs it. *)
        if not (Setup.verify_roster s) then
          invalid_arg "Engine.run: the roster's signature does not verify";
        (* The one-time setup download is TP->node traffic: charged on the
           dedicated external row, spread uniformly for per-node reporting. *)
        let per_node = Setup.setup_traffic_bytes s / n in
        for i = 0 to n - 1 do
          Traffic.add_external global ~dst:i per_node
        done;
        (* Each sender installs the certificate its receiver handed it,
           after checking its signature: the comb tables every transfer
           along that edge encrypts through, held for the whole run. *)
        let keys =
          Array.map
            (fun (i, j) ->
              Protocol.keys s ~receiver:j
                ~neighbor_slot:(Graph.neighbor_slot graph ~owner:j ~other:i))
            edges
        in
        (s, keys))
  in
  let table =
    Exp_elgamal.Table.make cfg.grp ~lo:(-cfg.table_radius) ~hi:(kp1 + cfg.table_radius)
  in
  (* The widened escalation table is built at most once, under a mutex
     (parallel communication tasks may race to need it first); every task
     gets its own lazy cell so no Lazy.t is ever forced from two domains. *)
  let escalation = ref None in
  let escalation_mutex = Mutex.create () in
  let escalation_table () =
    Mutex.protect escalation_mutex (fun () ->
        match !escalation with
        | Some t -> t
        | None ->
            let radius = escalation_widening * cfg.table_radius in
            let t = Exp_elgamal.Table.make cfg.grp ~lo:(-radius) ~hi:(kp1 + radius) in
            escalation := Some t;
            t)
  in
  let recovery () =
    { Protocol.max_retries = cfg.max_retries;
      escalation_table = Some (lazy (escalation_table ())) }
  in
  let params = { Protocol.alpha = cfg.transfer_alpha; table } in
  let update_c = Vertex_program.update_circuit p ~degree:d in
  (* Every circuit is compiled once per run; the plan is passed to every
     evaluation and to the offline phase, so no plan outlives the run. *)
  let update_plan = Plan.compile update_c in
  let blocks =
    Array.init n (fun i ->
        Block.create ~ot_mode:cfg.ot_mode ~grp:cfg.grp ~seed ~kp1 ~degree:d ~state_bits:sb
          ~message_bits:l ~vertex:i ~members:(Setup.block_of setup i))
  in
  (* --- Offline preprocessing ------------------------------------ *)
  (* Set up every block session's OT sessions and compute ahead the mask
     keystream of the whole run — iterations + 1 update-plan evaluations
     per block — so the timed online rounds draw their masks without
     hashing. Runs sequentially, before any task batch. Metrics go to a
     separate wall-domain registry (never the tick-domain [obs]): a run
     must export byte-identical traces and metrics with and without
     preprocessing. *)
  let offline_metrics =
    if not cfg.preprocess then None
    else begin
      let m = Obs.Metrics.create () in
      let t0 = Unix.gettimeofday () in
      let evals = p.Vertex_program.iterations + 1 in
      Array.iter (fun b -> Gmw.preprocess b.Block.session update_plan ~evals) blocks;
      Obs.Metrics.incr m ~by:n "preprocess.sessions";
      Obs.Metrics.incr m ~by:(n * evals) "preprocess.evals";
      Obs.Metrics.set m "preprocess.wall_s" (Unix.gettimeofday () -. t0);
      Some m
    end
  in
  (* --- Initialization ------------------------------------------ *)
  Phase.run_tasks exec acc Initialization
    ~task_label:(fun i -> Printf.sprintf "init:%d" i)
    ~count:n
    ~task:(fun _obs i ->
      let traffic = Traffic.create n in
      let b = blocks.(i) in
      let prg = Block.derive_prg ~seed (Printf.sprintf "init:%d" i) in
      b.Block.state <- Sharing.share prg ~parties:kp1 initial_states.(i);
      (* Node i distributes state and D no-op message shares to the other
         members of its block. *)
      let bytes = ((sb + (d * l) + 7) / 8) + ebytes in
      Array.iter
        (fun member -> if member <> i then Traffic.add traffic ~src:i ~dst:member bytes)
        b.Block.members;
      { Phase.traffic; payload = b.Block.state })
    ~merge:(fun i shares -> blocks.(i).Block.state <- shares)
    ();
  let failures = ref 0 and recovered = ref 0 and unrecovered = ref 0 in
  let retries = ref 0 and crash_recoveries = ref 0 and retry_epsilon = ref 0.0 in
  (* --- Computation step ----------------------------------------- *)
  (* Handoff (§3.6): a leaving member hands its slot to a standby. All
     k+1 members, the leaving one included, re-share every value the
     block holds, so the XOR invariant is preserved; k survivors alone
     could not, since the shares are (k+1)-out-of-(k+1). Fault queries hit
     the stateful injector in a sequential prologue (deterministic
     fired-fault book-keeping); the re-sharing runs inside the block's
     task with an event-keyed PRG and is charged as re-sharing traffic
     plus one backoff period. *)
  (* Handoff for vertex [i]: re-share every value block [i] holds, once
     per leaving member. Charges re-sharing traffic to [traffic] and
     returns the number of recovery events. *)
  let recover_crashes ~obs ~round ~traffic i crashed_members =
    let b = blocks.(i) in
    List.iter
      (fun m ->
        let prg = Block.derive_prg ~seed (Printf.sprintf "reshare:%d:%d:%d" round i m) in
        let values = b.Block.state :: Array.to_list b.Block.inbox in
        let src_blocks = List.map (fun _ -> b.Block.members) values in
        match
          Block.reshare ~obs ~prg ~kp1 ~ebytes ~traffic ~src_blocks
            ~dst_members:b.Block.members values
        with
        | st :: msgs ->
            b.Block.state <- st;
            List.iteri (fun s v -> b.Block.inbox.(s) <- v) msgs
        | [] -> assert false)
      crashed_members;
    List.length crashed_members
  in
  let compute ~round () =
    let crashed =
      Array.init n (fun i ->
          Array.to_list blocks.(i).Block.members
          |> List.filter (fun m -> Fault.Injector.handoff_at injector ~round ~node:m))
    in
    (* Tasks update their own (disjoint) blocks in place and return each
       vertex's crash-recovery event count. The merge replays that
       accounting in vertex order on the root collector, so the counters
       and recovery ticks are identical for every executor and vertex
       grouping. *)
    let replay_recoveries e =
      if e > 0 then begin
        crash_recoveries := !crash_recoveries + e;
        Obs.incr obs ~by:e "faults.crash_recoveries";
        Phase.Accounting.add_recovery acc Computation (float_of_int e *. cfg.backoff)
      end
    in
    (* Every vertex runs the same update circuit, so a task takes a
       contiguous group of vertices and evaluates them as one sliced GMW
       batch (Gmw.eval_many): at most one wire word of lanes, shrunk so
       every executor job stays busy. The cap also bounds a traced task's
       per-vertex traffic matrices. The partition is free to vary because
       eval_many is observably identical per instance, and the merge
       replays per-vertex recovery accounting in vertex order, so reports
       are bit-identical for every grouping. *)
    let group_size =
      let jobs = Executor.jobs exec in
      max 1 (min Gmw.lanes ((n + jobs - 1) / jobs))
    in
    let groups = (n + group_size - 1) / group_size in
    Phase.run_tasks exec acc Computation ~count:groups
      ~task:(fun obs gi ->
        let lo = gi * group_size in
        let len = min group_size (n - lo) in
        let traffic = Traffic.create n in
        (* A live collector meters each vertex into its own matrix, so the
           emitted [vertex:<i>] spans (recovery re-sharing + GMW bytes,
           then recovery ticks) are laid out the same for any grouping.
           Off, the vertices share the task's matrix. *)
        let traced = Obs.enabled obs in
        let vtraffic =
          Array.init len (fun _ -> if traced then Traffic.create n else traffic)
        in
        let events =
          Array.init len (fun o ->
              recover_crashes ~obs ~round ~traffic:vtraffic.(o) (lo + o) crashed.(lo + o))
        in
        let sessions = Array.init len (fun o -> blocks.(lo + o).Block.session) in
        let inputs = Array.init len (fun o -> Block.gather_inputs blocks.(lo + o)) in
        let outs = Gmw.eval_many sessions update_plan ~input_shares:inputs in
        Array.iteri
          (fun o out ->
            let b = blocks.(lo + o) in
            Block.scatter_outputs b out;
            merge_session_traffic vtraffic.(o) b.Block.session b.Block.members;
            if traced then begin
              Obs.span obs (Printf.sprintf "vertex:%d" (lo + o)) (fun () ->
                  Obs.advance obs (Traffic.total vtraffic.(o)));
              Obs.advance obs (Fault.delay_ticks (float_of_int events.(o) *. cfg.backoff));
              Traffic.merge_into ~dst:traffic vtraffic.(o)
            end)
          outs;
        { Phase.traffic; payload = events })
      ~merge:(fun _ events -> Array.iter replay_recoveries events) ()
  in
  (* --- Communication step ---------------------------------------- *)
  let communicate ~round () =
    (* Reset all inboxes to no-op shares; real messages overwrite. Edge
       faults are resolved sequentially (the injector is stateful); each
       edge task then runs the §3.5 transfer with its own keyed PRG and
       noise stream and writes the one inbox slot it owns. *)
    Array.iter Block.clear_inbox blocks;
    let faults =
      Array.map (fun (i, j) -> Fault.Injector.edge_faults injector ~round ~src:i ~dst:j) edges
    in
    Phase.run_tasks exec acc Communication ~count:(Array.length edges)
      ~task:(fun obs e ->
        let i, j = edges.(e) in
        let traffic = Traffic.create n in
        let delay =
          List.fold_left
            (fun a -> function Fault.Delay_transfer { seconds; _ } -> a +. seconds | _ -> a)
            0.0 faults.(e)
        in
        let has k = List.exists (fun f -> Fault.kind_of f = k) faults.(e) in
        let inject =
          if has Fault.Drop then Some Protocol.Drop_attempt
          else if has Fault.Corrupt then Some Protocol.Corrupt_attempt
          else if has Fault.Decrypt_miss then
            (* Deterministic position derived from the edge and round,
               so replays force the same miss. *)
            Some
              (Protocol.Force_miss
                 { member = (i + j + round) mod kp1; bit = ((7 * i) + round) mod l })
          else None
        in
        let shares = Array.copy blocks.(i).Block.outbox.(Graph.out_slot graph ~src:i ~dst:j) in
        let prg = Block.derive_prg ~seed (Printf.sprintf "xfer:%d:%d:%d" round i j) in
        let noise = Block.derive_prng ~seed (Printf.sprintf "noise:%d:%d:%d" round i j) in
        if Obs.enabled obs then Obs.enter obs (Printf.sprintf "xfer:%d->%d" i j);
        let outcome =
          Protocol.transfer ~recovery:(recovery ()) ?inject ~obs ~keys:edge_keys.(e) params
            ~prg ~noise ~traffic ~variant:Protocol.Final ~setup ~sender:i ~receiver:j
            ~neighbor_slot:(Graph.neighbor_slot graph ~owner:j ~other:i) ~shares
        in
        if Obs.enabled obs then Obs.leave obs;
        Obs.advance obs
          (Fault.delay_ticks
             (delay +. backoff_seconds ~backoff:cfg.backoff ~retries:outcome.Protocol.retries));
        { Phase.traffic; payload = (outcome, delay) })
      ~merge:(fun e (o, delay) ->
        (* Edge tasks only read blocks; the inbox slot each edge owns is
           written here, in edge order. *)
        let i, j = edges.(e) in
        blocks.(j).Block.inbox.(Graph.in_slot graph ~src:i ~dst:j) <- o.Protocol.shares;
        failures := !failures + o.Protocol.failures;
        recovered := !recovered + o.Protocol.recovered;
        unrecovered := !unrecovered + o.Protocol.unrecovered;
        retries := !retries + o.Protocol.retries;
        retry_epsilon := !retry_epsilon +. o.Protocol.extra_epsilon;
        Phase.Accounting.add_recovery acc Communication
          (delay +. backoff_seconds ~backoff:cfg.backoff ~retries:o.Protocol.retries))
      ()
  in
  for it = 1 to p.Vertex_program.iterations do
    Obs.span obs (Printf.sprintf "round:%d" it) (fun () ->
        compute ~round:it ();
        communicate ~round:it ())
  done;
  (* Final computation step (§3.6): process the last round of messages. *)
  Obs.span obs (Printf.sprintf "round:%d" (p.Vertex_program.iterations + 1)) (fun () ->
      compute ~round:(p.Vertex_program.iterations + 1) ());
  (* --- Aggregation + noising ------------------------------------ *)
  let agg_sessions = ref [] in
  let eval_in_block ~label members circuit input_shares =
    let session =
      Gmw.create_session ~mode:cfg.ot_mode cfg.grp ~parties:kp1
        ~seed:(Printf.sprintf "%s:agg:%s" seed label)
    in
    agg_sessions := session :: !agg_sessions;
    let out = Gmw.eval session (Plan.compile circuit) ~input_shares in
    merge_session_traffic global session members;
    (session, out)
  in
  let concat_inputs per_value_shares extra =
    (* per_value_shares : Bitvec array list (one array of kp1 shares per
       value); build per-member concatenation, appending the per-member
       extra bits. *)
    Array.init kp1 (fun m ->
        Bitvec.concat
          (List.map (fun shares -> (shares : Bitvec.t array).(m)) per_value_shares
          @ [ extra.(m) ]))
  in
  let combine_at_root ~src_blocks ~values ~circuit =
    let dst_members = setup.Setup.agg_block in
    let prg = Block.derive_prg ~seed "agg:reshare:root" in
    let reshared =
      Block.reshare ~obs ~prg ~kp1 ~ebytes ~traffic:global ~src_blocks ~dst_members values
    in
    let noise = noise_input_shares (Block.derive_prg ~seed "agg:noise") ~kp1 p in
    let session, out = eval_in_block ~label:"root" dst_members circuit
        (concat_inputs reshared noise)
    in
    let revealed = Gmw.reveal session out in
    merge_session_traffic global session dst_members;
    revealed
  in
  let output_bits =
    match cfg.aggregation with
    | Single_block ->
        Phase.run_sequential acc Aggregation (fun () ->
            combine_at_root
              ~src_blocks:(List.init n (fun i -> blocks.(i).Block.members))
              ~values:(List.init n (fun i -> blocks.(i).Block.state))
              ~circuit:(Vertex_program.aggregate_circuit p ~count:n))
    | Two_level fanout ->
        let groups =
          let rec chunks start =
            if start >= n then []
            else begin
              let len = min fanout (n - start) in
              List.init len (fun o -> start + o) :: chunks (start + len)
            end
          in
          Array.of_list (chunks 0)
        in
        let empty_extra = Array.init kp1 (fun _ -> Bitvec.create 0 false) in
        let partials = Array.make (Array.length groups) None in
        (* Leaf groups sum their members' states independently; only the
           root combine (which adds the noise and opens the result) is a
           sequential step. *)
        Phase.run_tasks exec acc Aggregation
          ~task_label:(fun gi -> Printf.sprintf "agg:leaf:%d" gi)
          ~count:(Array.length groups)
          ~task:(fun obs gi ->
            let traffic = Traffic.create n in
            let group = groups.(gi) in
            let leaf_members = blocks.(List.hd group).Block.members in
            let prg = Block.derive_prg ~seed (Printf.sprintf "agg:reshare:leaf:%d" gi) in
            let reshared =
              Block.reshare ~obs ~prg ~kp1 ~ebytes ~traffic
                ~src_blocks:(List.map (fun v -> blocks.(v).Block.members) group)
                ~dst_members:leaf_members
                (List.map (fun v -> blocks.(v).Block.state) group)
            in
            let circuit =
              Vertex_program.partial_aggregate_circuit p ~count:(List.length group)
            in
            let session =
              Gmw.create_session ~mode:cfg.ot_mode cfg.grp ~parties:kp1
                ~seed:(Printf.sprintf "%s:agg:leaf:%d" seed gi)
            in
            let out =
              Gmw.eval session (Plan.compile circuit)
                ~input_shares:(concat_inputs reshared empty_extra)
            in
            merge_session_traffic traffic session leaf_members;
            { Phase.traffic; payload = (session, leaf_members, out) })
          ~merge:(fun gi (session, leaf_members, out) ->
            agg_sessions := session :: !agg_sessions;
            partials.(gi) <- Some (leaf_members, out))
          ();
        Phase.run_sequential acc Aggregation (fun () ->
            let parts =
              Array.to_list
                (Array.map (function Some v -> v | None -> assert false) partials)
            in
            combine_at_root ~src_blocks:(List.map fst parts) ~values:(List.map snd parts)
              ~circuit:
                (Vertex_program.combine_circuit p ~count:(List.length parts) ~noised:true))
  in
  let mpc_sessions =
    Array.to_list (Array.map (fun b -> b.Block.session) blocks) @ !agg_sessions
  in
  (* Fold run-level totals into the metrics registry: GMW session counters,
     injected-fault tallies, edge-privacy budget spend and the final
     traffic shape. Order is fixed, so exports are reproducible. *)
  List.iter (fun s -> Gmw.observe s obs) mpc_sessions;
  List.iter
    (fun (k, c) -> if c > 0 then Obs.incr obs ~by:c ("faults.injected." ^ Fault.kind_name k))
    (Fault.Injector.injected injector);
  if !retry_epsilon > 0.0 then Obs.add obs "privacy.retry_epsilon" !retry_epsilon;
  Obs.set obs "privacy.epsilon_query" p.Vertex_program.epsilon;
  Obs.incr obs ~by:p.Vertex_program.iterations "run.iterations";
  Obs.incr obs ~by:n "run.nodes";
  Traffic.observe global obs;
  Obs.leave obs;
  {
    output = Bitvec.to_int_signed output_bits;
    iterations = p.Vertex_program.iterations;
    traffic = global;
    phase_bytes = Phase.Accounting.phase_bytes acc;
    phase_seconds = Phase.Accounting.phase_seconds acc;
    transfer_failures = !failures;
    recovered_failures = !recovered;
    unrecovered_failures = !unrecovered;
    transfer_retries = !retries;
    crash_recoveries = !crash_recoveries;
    faults_injected = Fault.Injector.injected injector;
    retry_epsilon = !retry_epsilon;
    recovery_seconds = Phase.Accounting.recovery_seconds acc;
    mpc_rounds = List.fold_left (fun a s -> a + Gmw.rounds s) 0 mpc_sessions;
    mpc_and_gates = List.fold_left (fun a s -> a + Gmw.and_gates_evaluated s) 0 mpc_sessions;
    mpc_ots = List.fold_left (fun a s -> a + Gmw.ots_performed s) 0 mpc_sessions;
    update_stats = Circuit.stats update_c;
    obs;
    offline_metrics;
  }

(* ------------------------------------------------------------------ *)
(* Plaintext reference executor                                        *)
(* ------------------------------------------------------------------ *)

let run_plaintext p ~degree_bound ~graph ~initial_states =
  let n = Graph.n graph in
  let d = degree_bound in
  let sb = p.Vertex_program.state_bits and l = p.Vertex_program.message_bits in
  if Graph.max_degree graph > d then
    invalid_arg "Engine.run_plaintext: vertex degree exceeds bound";
  let update_c = Vertex_program.update_circuit p ~degree:d in
  let states = Array.map Bitvec.to_bool_array initial_states in
  let msg_in = Array.init n (fun _ -> Array.make_matrix d l false) in
  let out_msgs = Array.init n (fun _ -> Array.make_matrix d l false) in
  let compute () =
    for i = 0 to n - 1 do
      let inputs = Array.concat (states.(i) :: Array.to_list msg_in.(i)) in
      let out = Circuit.eval update_c inputs in
      states.(i) <- Array.sub out 0 sb;
      for s = 0 to d - 1 do
        out_msgs.(i).(s) <- Array.sub out (sb + (s * l)) l
      done
    done
  in
  let communicate () =
    for i = 0 to n - 1 do
      for s = 0 to d - 1 do
        msg_in.(i).(s) <- Array.make l false
      done
    done;
    List.iter
      (fun (i, j) ->
        msg_in.(j).(Graph.in_slot graph ~src:i ~dst:j) <-
          Array.copy out_msgs.(i).(Graph.out_slot graph ~src:i ~dst:j))
      (Graph.edges graph)
  in
  for _it = 1 to p.Vertex_program.iterations do
    compute ();
    communicate ()
  done;
  compute ();
  let agg = Vertex_program.aggregate_circuit p ~count:n in
  let noise_zeros =
    Array.make (Noise_circuit.input_bits ~max_magnitude:p.Vertex_program.noise_max_magnitude)
      false
  in
  let inputs = Array.concat (Array.to_list states @ [ noise_zeros ]) in
  let out = Circuit.eval agg inputs in
  Bitvec.to_int_signed (Bitvec.of_bool_array out)

let pp_report ppf r =
  let mb b = float_of_int b /. 1048576.0 in
  Format.fprintf ppf "@[<v>output: %d@,transfer failures: %d (%d recovered, %d unrecovered, %d retries)@,"
    r.output r.transfer_failures r.recovered_failures r.unrecovered_failures
    r.transfer_retries;
  let injected_total = List.fold_left (fun a (_, c) -> a + c) 0 r.faults_injected in
  if injected_total > 0 || r.crash_recoveries > 0 then begin
    Format.fprintf ppf "faults injected:";
    List.iter
      (fun (k, c) -> if c > 0 then Format.fprintf ppf " %s=%d" (Fault.kind_name k) c)
      r.faults_injected;
    Format.fprintf ppf " (crash recoveries: %d)@," r.crash_recoveries
  end;
  if r.retry_epsilon > 0.0 then
    Format.fprintf ppf "extra edge-privacy eps from retries: %.4g@," r.retry_epsilon;
  Format.fprintf ppf "MPC: %d rounds, %d AND gates, %d OTs@,update circuit: %a@,"
    r.mpc_rounds r.mpc_and_gates r.mpc_ots Circuit.pp_stats r.update_stats;
  List.iter
    (fun (ph, b) ->
      let s = List.assoc ph r.phase_seconds in
      let rs = List.assoc ph r.recovery_seconds in
      if rs > 0.0 then
        Format.fprintf ppf "%-14s %8.3f s %10.3f MB (+%.3f s recovery)@," (phase_name ph) s
          (mb b) rs
      else Format.fprintf ppf "%-14s %8.3f s %10.3f MB@," (phase_name ph) s (mb b))
    r.phase_bytes;
  (match r.offline_metrics with
  | Some m ->
      let c = Obs.Metrics.counter m in
      Format.fprintf ppf "offline: %d session(s) preprocessed, %d eval(s) in %.3f s@,"
        (c "preprocess.sessions") (c "preprocess.evals")
        (Obs.Metrics.sum m "preprocess.wall_s")
  | None -> ());
  Format.fprintf ppf "total traffic: %.3f MB (mean %.3f MB/node)@]"
    (mb (Traffic.total r.traffic))
    (Traffic.mean_per_node r.traffic /. 1048576.0)
