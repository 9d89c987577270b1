type t = Sequential | Parallel of { jobs : int }

(* A pool spawns jobs - 1 domains. OCaml 5.1 allows 128 per process, and
   past that Domain.spawn raises mid-batch; 64 keeps a wide margin. *)
let max_jobs = 64

let sequential = Sequential

let parallel ~jobs = if jobs <= 1 then Sequential else Parallel { jobs = min jobs max_jobs }

let of_string s =
  let s = String.trim (String.lowercase_ascii s) in
  let prefix = "parallel:" in
  let plen = String.length prefix in
  if s = "sequential" || s = "seq" then Ok Sequential
  else if s = "parallel" then Ok (parallel ~jobs:(Domain.recommended_domain_count ()))
  else if String.length s > plen && String.sub s 0 plen = prefix then
    match int_of_string_opt (String.sub s plen (String.length s - plen)) with
    | Some n when n > max_jobs ->
        Error (Printf.sprintf "worker count %d in %S exceeds the bound of %d" n s max_jobs)
    | Some n when n >= 1 -> Ok (parallel ~jobs:n)
    | _ -> Error (Printf.sprintf "invalid worker count in %S" s)
  else Error (Printf.sprintf "unknown executor %S (expected sequential or parallel[:N])" s)

let of_env () =
  match Sys.getenv_opt "DSTRESS_JOBS" with
  | None -> Sequential
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j <= max_jobs -> parallel ~jobs:j
      | Some _ | None -> Sequential)

let jobs = function Sequential -> 1 | Parallel { jobs } -> jobs

let name = function
  | Sequential -> "sequential"
  | Parallel { jobs } -> Printf.sprintf "parallel:%d" jobs

let map_sequential count f =
  let results = Array.make count None in
  for i = 0 to count - 1 do
    results.(i) <- Some (f i)
  done;
  results

(* Work-stealing over an atomic index: each domain repeatedly claims the
   next unclaimed task. Result slots are disjoint per task and the final
   Domain.join provides the happens-before edge that makes every write
   visible to the caller. A raising task poisons only its own slot; the
   pool drains the rest, then the lowest-index exception is re-raised so
   Sequential and Parallel fail with the same error. *)
let map_parallel jobs count f =
  let results = Array.make count None in
  let errors = Array.make count None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < count then begin
        (try results.(i) <- Some (f i)
         with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
        loop ()
      end
    in
    loop ()
  in
  let helpers = Array.init (min jobs count - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join helpers;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors;
  results

let map t count f =
  if count < 0 then invalid_arg "Executor.map: negative count";
  let results =
    match t with
    | Parallel { jobs } when jobs > 1 && count > 1 -> map_parallel jobs count f
    | Sequential | Parallel _ -> map_sequential count f
  in
  Array.map (function Some v -> v | None -> assert false) results
