module Fault = Dstress_faults.Fault
module Metrics = Dstress_obs.Obs.Metrics
module Log = Dstress_obs.Log

type opts = {
  workers : int;
  heartbeat_interval : float;
  phi : float;
  io_deadline : float;
  poll_interval : float;
  batch_deadline : float;
  max_respawns_per_slot : int;
  max_respawns_total : int;
}

let default_opts =
  {
    workers = 2;
    heartbeat_interval = 0.05;
    phi = 8.0;
    io_deadline = 10.0;
    poll_interval = 0.02;
    batch_deadline = 60.0;
    max_respawns_per_slot = 2;
    max_respawns_total = 8;
  }

type degradation = {
  batch : int;
  reason : string;
  completed : int;
  count : int;
  respawns : int;
  abandoned : int;
}

exception Degraded of degradation
exception Task_failed of { index : int; message : string }

let pp_degradation ppf d =
  Format.fprintf ppf
    "@[<v>distributed batch %d degraded beyond recovery: %s@,\
     %d/%d task(s) completed, %d respawn(s), %d slot(s) abandoned@]"
    d.batch d.reason d.completed d.count d.respawns d.abandoned

let () =
  Printexc.register_printer (function
    | Degraded d -> Some (Format.asprintf "Distributed.Degraded (%a)" pp_degradation d)
    | Task_failed { index; message } ->
        Some (Printf.sprintf "Distributed.Task_failed (task %d: %s)" index message)
    | _ -> None)

type ctx = {
  o : opts;
  log : Log.t;
  mutable m : Metrics.t;
  mutable fault_source : (batch:int -> worker:int -> Fault.fault list) option;
  mutable next_batch : int;
}

let create ?(opts = default_opts) ?(log = Log.nop) () =
  if opts.workers < 1 then invalid_arg "Distributed.create: workers < 1";
  if not (opts.heartbeat_interval > 0.0) then
    invalid_arg "Distributed.create: heartbeat_interval <= 0";
  if not (opts.phi > 1.0) then invalid_arg "Distributed.create: phi <= 1";
  if not (opts.io_deadline > 0.0 && opts.poll_interval > 0.0 && opts.batch_deadline > 0.0)
  then invalid_arg "Distributed.create: non-positive deadline";
  if opts.max_respawns_per_slot < 0 || opts.max_respawns_total < 0 then
    invalid_arg "Distributed.create: negative respawn budget";
  {
    o = opts;
    log;
    m = Metrics.create ();
    fault_source = None;
    next_batch = 0;
  }

let opts c = c.o
let metrics c = c.m

let begin_run c =
  c.m <- Metrics.create ();
  c.next_batch <- 0

let set_fault_source c src = c.fault_source <- Some src
let clear_fault_source c = c.fault_source <- None
let batches_dispatched c = c.next_batch
let now () = Unix.gettimeofday ()

let run_batch ctx ~batch count f =
  let o = ctx.o in
  let m = ctx.m in
  Metrics.incr m "pool.batches";
  let results = Array.make count None in
  let errors = Array.make count None in
  let completed = ref 0 in
  let pending = Queue.create () in
  for i = 0 to count - 1 do
    Queue.add i pending
  done;
  let total_respawns = ref 0 in
  (* Workers inherit [f] copy-on-write; only indices and results cross
     the wire. *)
  let sup =
    Supervisor.create ~workers:(min o.workers count) ~heartbeat_interval:o.heartbeat_interval
      ~phi:o.phi ~io_deadline:o.io_deadline ~max_respawns_per_slot:o.max_respawns_per_slot
      ~log:ctx.log ~metrics:m
      ~serve:(fun payload -> Ok (Marshal.to_bytes (f (Marshal.from_bytes payload 0)) []))
      ()
  in
  let slots = Supervisor.slots sup in
  let degrade reason =
    Log.error ctx.log "distributed batch degraded"
      [
        ("batch", Log.Int batch);
        ("reason", Log.Str reason);
        ("completed", Log.Int !completed);
        ("count", Log.Int count);
        ("respawns", Log.Int !total_respawns);
      ];
    let abandoned =
      Array.fold_left (fun n s -> if s.Supervisor.abandoned then n + 1 else n) 0 slots
    in
    raise
      (Degraded
         { batch; reason; completed = !completed; count; respawns = !total_respawns; abandoned })
  in
  let handle = function
    | Supervisor.Reply (i, outcome) ->
        incr completed;
        (match outcome with
        | Ok payload -> results.(i) <- Some (Marshal.from_bytes payload 0)
        | Error msg -> errors.(i) <- Some msg)
    | Supervisor.Lost (job, _) ->
        Option.iter (fun i -> Queue.add i pending) job;
        incr total_respawns;
        if !total_respawns > o.max_respawns_total then degrade "respawn budget exhausted"
  in
  (* Disconnect and stall attack a slot's first task of the batch only, so
     its replacement is healthy; a partition covers respawns too — that
     is what forces abandonment. *)
  let struck = Array.make (Array.length slots) false in
  let faults_for sid =
    match ctx.fault_source with
    | None -> []
    | Some src ->
        let faults = src ~batch ~worker:sid in
        if struck.(sid) then
          List.filter (function Fault.Partition_worker _ -> true | _ -> false) faults
        else begin
          struck.(sid) <- true;
          faults
        end
  in
  Fun.protect
    ~finally:(fun () -> ignore (Supervisor.shutdown sup))
    (fun () ->
      let batch_deadline_at = now () +. o.batch_deadline in
      while !completed < count do
        if now () > batch_deadline_at then degrade "batch deadline expired";
        if Array.for_all (fun s -> s.Supervisor.abandoned) slots then
          degrade "no live workers remain";
        (* Dynamic dispatch: any idle live slot takes the next index. *)
        Array.iter
          (fun s ->
            if Supervisor.idle s && not (Queue.is_empty pending) then begin
              let i = Queue.pop pending in
              let faults = faults_for s.Supervisor.sid in
              match Supervisor.dispatch sup s ~faults i (Marshal.to_bytes i []) with
              | None -> Metrics.incr m "pool.tasks_dispatched"
              | Some lost -> handle lost
            end)
          slots;
        List.iter handle (Supervisor.step sup ~timeout:o.poll_interval)
      done);
  (match
     Array.to_seq errors
     |> Seq.mapi (fun i e -> (i, e))
     |> Seq.find_map (fun (i, e) -> Option.map (fun msg -> (i, msg)) e)
   with
  | Some (index, message) -> raise (Task_failed { index; message })
  | None -> ());
  Array.map (function Some v -> v | None -> assert false) results

let map ctx count f =
  if count < 0 then invalid_arg "Distributed.map: negative count";
  let batch = ctx.next_batch in
  ctx.next_batch <- batch + 1;
  if count = 0 then [||] else run_batch ctx ~batch count f
