module Prng = Dstress_util.Prng

type kind = Handoff | Drop | Delay | Corrupt | Decrypt_miss

let kind_name = function
  | Handoff -> "crash"
  | Drop -> "drop"
  | Delay -> "delay"
  | Corrupt -> "corrupt"
  | Decrypt_miss -> "decrypt-miss"

let all_kinds = [ Handoff; Drop; Delay; Corrupt; Decrypt_miss ]

(* The one simulated-time rounding rule: float seconds are charged to the
   tick timeline by truncation toward zero. Every recovery delay the
   engine charges goes through this, so no two call sites can disagree
   about a delay's tick cost. *)
let ticks_per_second = 1_000_000.0

let delay_ticks s = int_of_float (s *. ticks_per_second)

type fault =
  | Handoff_node of { node : int; round : int }
  | Drop_transfer of { src : int; dst : int; round : int }
  | Delay_transfer of { src : int; dst : int; round : int; seconds : float }
  | Corrupt_transfer of { src : int; dst : int; round : int }
  | Miss_decrypt of { src : int; dst : int; round : int }

let kind_of = function
  | Handoff_node _ -> Handoff
  | Drop_transfer _ -> Drop
  | Delay_transfer _ -> Delay
  | Corrupt_transfer _ -> Corrupt
  | Miss_decrypt _ -> Decrypt_miss

type plan = fault list

let empty = []

type rates = { crash : float; drop : float; delay : float; corrupt : float; miss : float }

let no_faults = { crash = 0.0; drop = 0.0; delay = 0.0; corrupt = 0.0; miss = 0.0 }

let check_rate name r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Fault.random_plan: %s rate %g outside [0, 1]" name r)

let random_plan ~seed ~rounds ~nodes ~edges rates =
  if rounds < 1 then invalid_arg "Fault.random_plan: rounds < 1";
  check_rate "crash" rates.crash;
  check_rate "drop" rates.drop;
  check_rate "delay" rates.delay;
  check_rate "corrupt" rates.corrupt;
  check_rate "miss" rates.miss;
  let prng = Prng.create (Int64.of_int (Hashtbl.hash ("fault-plan", seed))) in
  let faults = ref [] in
  let push f = faults := f :: !faults in
  for node = 0 to nodes - 1 do
    if Prng.float prng < rates.crash then begin
      let round = 1 + Prng.int prng rounds in
      (* A handoff takes no time. The draw is kept so that every later
         draw of the plan keeps its place in the stream. *)
      ignore (Prng.int prng 2);
      push (Handoff_node { node; round })
    end
  done;
  for round = 1 to rounds do
    List.iter
      (fun (src, dst) ->
        if Prng.float prng < rates.drop then push (Drop_transfer { src; dst; round });
        if Prng.float prng < rates.delay then begin
          let seconds = 0.01 +. (Prng.float prng *. 0.09) in
          push (Delay_transfer { src; dst; round; seconds })
        end;
        if Prng.float prng < rates.corrupt then push (Corrupt_transfer { src; dst; round });
        if Prng.float prng < rates.miss then push (Miss_decrypt { src; dst; round }))
      edges
  done;
  List.rev !faults

let random_crashes ~seed ~nodes ~rounds ~count =
  if count < 0 then invalid_arg "Fault.random_crashes: count < 0";
  if count > nodes then invalid_arg "Fault.random_crashes: more crashes than nodes";
  if rounds < 1 then invalid_arg "Fault.random_crashes: rounds < 1";
  let prng = Prng.create (Int64.of_int (Hashtbl.hash ("fault-crashes", seed))) in
  let victims = Prng.sample_without_replacement prng count nodes in
  List.map
    (fun node -> Handoff_node { node; round = 1 + Prng.int prng rounds })
    victims

module Injector = struct
  type t = {
    faults : (int * fault) array;  (* stable ids for fired-tracking *)
    by_edge : (int * int * int, (int * fault) list) Hashtbl.t;
    handoffs_by_node : (int, (int * fault) list) Hashtbl.t;
    fired : (int, unit) Hashtbl.t;
  }

  let create plan =
    let faults = Array.of_list (List.mapi (fun id f -> (id, f)) plan) in
    let by_edge = Hashtbl.create 64 in
    let handoffs_by_node = Hashtbl.create 16 in
    let push tbl key v =
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      Hashtbl.replace tbl key (prev @ [ v ])
    in
    Array.iter
      (fun (id, f) ->
        match f with
        | Handoff_node { node; _ } -> push handoffs_by_node node (id, f)
        | Drop_transfer { src; dst; round }
        | Delay_transfer { src; dst; round; _ }
        | Corrupt_transfer { src; dst; round }
        | Miss_decrypt { src; dst; round } -> push by_edge (src, dst, round) (id, f))
      faults;
    { faults; by_edge; handoffs_by_node; fired = Hashtbl.create 16 }

  let fire t id = Hashtbl.replace t.fired id ()

  let at round (_, f) =
    match f with Handoff_node { round = r; _ } -> r = round | _ -> false

  let handoff_at t ~round ~node =
    match Hashtbl.find_opt t.handoffs_by_node node with
    | None -> false
    | Some cs -> (
        match List.find_opt (at round) cs with
        | None -> false
        | Some (id, _) ->
            fire t id;
            true)

  let edge_faults t ~round ~src ~dst =
    match Hashtbl.find_opt t.by_edge (src, dst, round) with
    | None -> []
    | Some fs ->
        List.map
          (fun (id, f) ->
            fire t id;
            f)
          fs

  let injected t =
    let counts = Hashtbl.create 8 in
    List.iter (fun k -> Hashtbl.replace counts k 0) all_kinds;
    Hashtbl.iter
      (fun id () ->
        let _, f = t.faults.(id) in
        let k = kind_of f in
        Hashtbl.replace counts k (Hashtbl.find counts k + 1))
      t.fired;
    List.map (fun k -> (k, Hashtbl.find counts k)) all_kinds
end
