type t = {
  min_interval : float;  (* floor of the estimate: expected_interval / 4 *)
  mutable interval : float;  (* EWMA of observed inter-arrival times *)
  mutable last : float option;  (* last observe arrival *)
  mutable origin : float option;  (* start reference, pre-first-heartbeat *)
}

let phi = 8.0

let create ~expected_interval =
  if not (expected_interval > 0.0) then
    invalid_arg "Failure_detector.create: expected_interval <= 0";
  { min_interval = expected_interval /. 4.0; interval = expected_interval; last = None;
    origin = None }

let start t ~now = t.origin <- Some now

let observe t ~now =
  (match t.last with
  | Some prev ->
      let gap = Float.max 0.0 (now -. prev) in
      (* EWMA, factor 0.8 toward history, floored so heartbeat bursts
         can't hair-trigger the detector. *)
      t.interval <- Float.max t.min_interval ((0.8 *. t.interval) +. (0.2 *. gap))
  | None -> ());
  let clamped = match t.last with Some prev when now < prev -> prev | _ -> now in
  t.last <- Some clamped

let suspicion t ~now =
  let reference =
    match t.last with Some l -> Some l | None -> t.origin
  in
  match reference with
  | None -> 0.0
  | Some r -> Float.max 0.0 (now -. r) /. t.interval

let suspected t ~now = suspicion t ~now >= phi
let last_heard t = t.last
let interval_estimate t = t.interval
