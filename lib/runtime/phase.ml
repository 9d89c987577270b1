module Traffic = Dstress_mpc.Traffic
module Obs = Dstress_obs.Obs

type id = Setup | Initialization | Computation | Communication | Aggregation

let name = function
  | Setup -> "setup"
  | Initialization -> "initialization"
  | Computation -> "computation"
  | Communication -> "communication"
  | Aggregation -> "aggregation"

let all = [ Setup; Initialization; Computation; Communication; Aggregation ]

module Accounting = struct
  type t = {
    global : Traffic.t;
    seconds : (id, float ref) Hashtbl.t;
    bytes : (id, int ref) Hashtbl.t;
    recovery : (id, float ref) Hashtbl.t;
    obs : Obs.t;
  }

  let create ?(obs = Obs.off) ~parties () =
    let seconds = Hashtbl.create 8
    and bytes = Hashtbl.create 8
    and recovery = Hashtbl.create 8 in
    List.iter
      (fun p ->
        Hashtbl.replace seconds p (ref 0.0);
        Hashtbl.replace bytes p (ref 0);
        Hashtbl.replace recovery p (ref 0.0))
      all;
    { global = Traffic.create parties; seconds; bytes; recovery; obs }

  let traffic t = t.global
  let obs t = t.obs

  let add_seconds t phase s =
    let r = Hashtbl.find t.seconds phase in
    r := !r +. s

  let add_bytes t phase b =
    let r = Hashtbl.find t.bytes phase in
    r := !r + b;
    Obs.incr t.obs ~by:b ("phase." ^ name phase ^ ".bytes")

  (* Recovery time is metered here but its simulated ticks are charged by
     the caller (with [Fault.delay_ticks]) at the exact point in the task's
     timeline where the wait happens, so trace placement does not depend
     on merge granularity (per vertex or per vertex group). *)
  let add_recovery t phase s =
    let r = Hashtbl.find t.recovery phase in
    r := !r +. s;
    Obs.add t.obs ("phase." ^ name phase ^ ".recovery_seconds") s

  let phase_seconds t = List.map (fun p -> (p, !(Hashtbl.find t.seconds p))) all
  let phase_bytes t = List.map (fun p -> (p, !(Hashtbl.find t.bytes p))) all
  let recovery_seconds t = List.map (fun p -> (p, !(Hashtbl.find t.recovery p))) all
end

let run_sequential acc phase f =
  let obs = acc.Accounting.obs in
  Obs.enter obs ("phase:" ^ name phase);
  let t0 = Unix.gettimeofday () in
  let b0 = Traffic.total acc.Accounting.global in
  let result = f () in
  Accounting.add_seconds acc phase (Unix.gettimeofday () -. t0);
  let bytes = Traffic.total acc.Accounting.global - b0 in
  Accounting.add_bytes acc phase bytes;
  Obs.advance obs bytes;
  Obs.leave obs;
  result

type 'a task_result = { traffic : Traffic.t; payload : 'a }

let run_tasks exec acc phase ?task_label ~count ~task ~merge () =
  let obs = acc.Accounting.obs in
  Obs.enter obs ("phase:" ^ name phase);
  let t0 = Unix.gettimeofday () in
  (* Per-task child collectors keep span/metric emission race-free under
     a domain pool; the index-ordered merge below rebases them onto the
     parent timeline, so the collected trace is schedule-independent.
     When observability is off, fork returns the collector unchanged and
     the merge below is skipped. *)
  let results =
    Executor.map exec count (fun i ->
        let child = Obs.fork obs in
        let r =
          match task_label with
          | Some label when Obs.enabled child ->
              Obs.enter child (label i);
              let r = task child i in
              Obs.advance child (Traffic.total r.traffic);
              Obs.leave child;
              r
          | Some _ | None -> task child i
        in
        (r, child))
  in
  let bytes = ref 0 in
  Array.iteri
    (fun i (r, child) ->
      bytes := !bytes + Traffic.total r.traffic;
      Traffic.merge_into ~dst:acc.Accounting.global r.traffic;
      if Obs.enabled obs then Obs.merge_into ~dst:obs child;
      merge i r.payload)
    results;
  Accounting.add_seconds acc phase (Unix.gettimeofday () -. t0);
  Accounting.add_bytes acc phase !bytes;
  Obs.leave obs
