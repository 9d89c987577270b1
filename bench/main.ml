(* DStress benchmark harness: regenerates every table and figure of the
   paper's evaluation section (see DESIGN.md §4 for the experiment index),
   and doubles as the perf telemetry source — every experiment reports
   typed rows through Bench_util, exported as one dstress-bench/1 JSON
   document for bin/bench_diff to gate regressions against.

   Usage:
     dune exec bench/main.exe                   -- run everything
     dune exec bench/main.exe -- --quick        -- smaller parameters
     dune exec bench/main.exe -- fig5 fig6      -- selected experiments
     dune exec bench/main.exe -- --filter 'fig' -- name regex selection
     dune exec bench/main.exe -- --json out.json      -- machine-readable results
     dune exec bench/main.exe -- --baseline DIR -- per-suite BENCH_<name>.json
     dune exec bench/main.exe -- --list         -- list experiment names

   A sub-bench that raises is reported, the remaining suites still run
   (and the JSON still gets written), and the exit code is nonzero. *)

let experiments : (string * string * (quick:bool -> unit -> unit)) list =
  [
    ("micro", "Microbenchmarks of the crypto primitives", Micro.run);
    ("bignum", "2048-bit kernel micro + EN end-to-end on ffdhe2048", Bignum_bench.run);
    ("fig3-left", "Fig 3 (left) + Fig 4: MPC cost vs block size", Fig3.left);
    ("fig3-right", "Fig 3 (right): MPC cost vs D and N", Fig3.right);
    ("transfer-micro", "§5.2: transfer latency vs block size", Transfer_bench.latency);
    ("transfer-traffic", "§5.3: transfer traffic by role", Transfer_bench.traffic_roles);
    ("transfer-ablation", "§3.5: strawman protocol ablation", Transfer_bench.strawman_ablation);
    ("fig5", "Fig 5: end-to-end EN/EGJ runs vs block size", Fig5.run);
    ("fig6", "Fig 6: scalability projection + validation", Fig6.run);
    ("baseline", "§5.5: monolithic-MPC baseline", Baseline_bench.run);
    ("utility", "§4.5: utility analysis", Privacy_bench.utility);
    ("appendix-b", "Appendix B: edge-privacy budget", Privacy_bench.appendix_b);
    ("appendix-c", "Appendix C: contagion scenarios", Privacy_bench.appendix_c);
    ("ablation-aggregation", "§3.6: aggregation tree ablation", Ablation.aggregation);
    ("ablation-buckets", "§3.7: degree bucketing ablation", Ablation.degree_bucketing);
    ("2pc-comparison", "§6: garbled circuits vs GMW", Ablation.twopc);
    ("fault-sweep", "§3.8: recovery cost vs injected fault rate", Fault_bench.run);
    (* transport, service and telemetry fork worker processes and must run
       before any suite that spawns domains (OCaml 5 forbids fork after
       Domain.spawn), so they sit ahead of the executor suite's domain
       pool. *)
    ("transport", "daemon wire layer: frame RTT, connect and backoff", Transport_bench.run);
    ("service", "daemon mode: persistent-pool dispatch, TCP RTT, warm requests", Service_bench.run);
    ("telemetry", "observability: sketch/log cost and the dispatch telemetry tax", Telemetry_bench.run);
    ("executor", "runtime: sequential vs domain-pool executor", Executor_bench.run);
    ("gmw-slice", "bitsliced GMW: one-slot vs 64-wide sliced evaluation", Slice_bench.run);
    ("preprocess", "offline/online split: preprocessed vs inline GMW", Preprocess_bench.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--list] [--json FILE] [--baseline DIR] \
     [--filter REGEX] [NAME...]";
  exit 2

(* Minimal flag parsing: flags with arguments consume the next word,
   anything else is an experiment name. *)
let parse_args args =
  let quick = ref false and listed = ref false in
  let json = ref None and baseline = ref None and filter = ref None in
  let names = ref [] in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--list" :: rest ->
        listed := true;
        go rest
    | "--json" :: file :: rest ->
        json := Some file;
        go rest
    | "--baseline" :: dir :: rest ->
        baseline := Some dir;
        go rest
    | "--filter" :: re :: rest ->
        filter := Some re;
        go rest
    | ("--json" | "--baseline" | "--filter") :: [] -> usage ()
    | a :: _ when String.length a >= 2 && String.sub a 0 2 = "--" ->
        Printf.eprintf "unknown flag %s\n" a;
        usage ()
    | name :: rest ->
        names := name :: !names;
        go rest
  in
  go args;
  (!quick, !listed, !json, !baseline, !filter, List.rev !names)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick, listed, json, baseline, filter, selected = parse_args args in
  if listed then begin
    List.iter (fun (name, descr, _) -> Printf.printf "%-22s %s\n" name descr) experiments;
    exit 0
  end;
  let unknown =
    List.filter (fun s -> not (List.exists (fun (n, _, _) -> n = s) experiments)) selected
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s (try --list)\n" (String.concat ", " unknown);
    exit 1
  end;
  let to_run =
    if selected = [] then experiments
    else List.filter (fun (n, _, _) -> List.mem n selected) experiments
  in
  let to_run =
    match filter with
    | None -> to_run
    | Some pat ->
        let re =
          match Re.Posix.compile_pat pat with
          | re -> re
          | exception Re.Posix.Parse_error | (exception Re.Posix.Not_supported) ->
              Printf.eprintf "bad --filter regex %S\n" pat;
              exit 2
        in
        List.filter (fun (n, _, _) -> Re.execp re n) to_run
  in
  if to_run = [] then begin
    prerr_endline "no experiments selected (try --list)";
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  Printf.printf "DStress benchmark harness (%s mode, %d experiment(s))\n"
    (if quick then "quick" else "full")
    (List.length to_run);
  let failures =
    List.filter_map
      (fun (name, _, f) ->
        Bench_util.begin_suite name;
        let outcome =
          match f ~quick () with
          | () -> None
          | exception e ->
              Printf.eprintf "\n!! %s failed: %s\n%!" name (Printexc.to_string e);
              Some name
        in
        Bench_util.end_suite ();
        outcome)
      to_run
  in
  let mode = if quick then "quick" else "full" in
  let doc = Bench_util.collected_doc ~mode in
  Option.iter
    (fun file ->
      Dstress_obs.Bench_result.write_file file doc;
      Printf.printf "\nresults written to %s\n" file)
    json;
  Option.iter
    (fun dir ->
      (* Create the output dir rather than scattering BENCH_*.json
         wherever the invocation cwd happens to be when it is missing. *)
      let rec ensure d =
        if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
          ensure (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      ensure dir;
      List.iter
        (fun (s : Dstress_obs.Bench_result.suite) ->
          let file = Filename.concat dir ("BENCH_" ^ s.suite ^ ".json") in
          Dstress_obs.Bench_result.write_file file
            { Dstress_obs.Bench_result.mode; suites = [ s ] };
          Printf.printf "baseline written to %s\n" file)
        doc.Dstress_obs.Bench_result.suites)
    baseline;
  Printf.printf "\nAll benchmarks finished in %.1f s.\n" (Unix.gettimeofday () -. t0);
  if failures <> [] then begin
    Printf.eprintf "failed experiment(s): %s\n" (String.concat ", " failures);
    exit 1
  end
