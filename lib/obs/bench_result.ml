type wall = { median_s : float; min_s : float; p10_s : float; p90_s : float }

type result = {
  name : string;
  params : (string * Json.t) list;
  repeats : int;
  warmup : int;
  wall : wall option;
  throughput : (string * float) option;
  counters : (string * int) list;
  floats : (string * float) list;
}

type suite = { suite : string; results : result list }

type doc = { mode : string; suites : suite list }

let schema = "dstress-bench/1"

let by_name (a, _) (b, _) = compare (a : string) b

let make_result ?(params = []) ?(repeats = 1) ?(warmup = 0) ?wall ?throughput
    ?(counters = []) ?(floats = []) name =
  (* Non-finite floats would print as JSON null and fail to parse back;
     they carry no comparable information, so drop them. *)
  let finite = List.filter (fun (_, v) -> Float.is_finite v) in
  {
    name;
    params;
    repeats;
    warmup;
    wall;
    throughput =
      (match throughput with
      | Some (_, v) when not (Float.is_finite v) -> None
      | t -> t);
    counters = List.sort by_name counters;
    floats = List.sort by_name (finite floats);
  }

let wall_of_samples samples =
  if samples = [] then invalid_arg "Bench_result.wall_of_samples: empty";
  let xs = Array.of_list samples in
  {
    median_s = Dstress_util.Stats.median xs;
    min_s = Array.fold_left Float.min xs.(0) xs;
    p10_s = Dstress_util.Stats.percentile xs 10.0;
    p90_s = Dstress_util.Stats.percentile xs 90.0;
  }

let key r =
  if r.params = [] then r.name
  else r.name ^ " " ^ Json.to_string (Json.Obj r.params)

(* ------------------------------------------------------------------ *)
(* Metrics snapshot                                                    *)
(* ------------------------------------------------------------------ *)

let counters_of_metrics m =
  List.filter_map
    (fun name ->
      match Obs.Metrics.find m name with
      | Some (Obs.Metrics.Counter c) -> Some (name, c)
      | Some (Obs.Metrics.Quantiles s) -> Some (name ^ ".count", Sketch.count s)
      | _ -> None)
    (Obs.Metrics.names m)
  |> List.sort by_name

let floats_of_metrics m =
  List.concat_map
    (fun name ->
      match Obs.Metrics.find m name with
      | Some (Obs.Metrics.Sum v) | Some (Obs.Metrics.Gauge v) -> [ (name, v) ]
      | Some (Obs.Metrics.Quantiles s) ->
          let q p = Sketch.quantile_or ~default:0.0 s p in
          [
            (name ^ ".mean", Sketch.mean s);
            (name ^ ".min", Sketch.min_value s);
            (name ^ ".max", Sketch.max_value s);
            (name ^ ".p50", q 0.5);
            (name ^ ".p90", q 0.9);
            (name ^ ".p99", q 0.99);
          ]
      | _ -> [])
    (Obs.Metrics.names m)
  |> List.sort by_name

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let wall_to_json w =
  Json.Obj
    [
      ("median_s", Json.Num w.median_s);
      ("min_s", Json.Num w.min_s);
      ("p10_s", Json.Num w.p10_s);
      ("p90_s", Json.Num w.p90_s);
    ]

let result_to_json r =
  let base =
    [
      ("name", Json.Str r.name);
      ("params", Json.Obj r.params);
      ("repeats", Json.Int r.repeats);
      ("warmup", Json.Int r.warmup);
    ]
  in
  let wall =
    match r.wall with None -> [] | Some w -> [ ("wall", wall_to_json w) ]
  in
  let throughput =
    match r.throughput with
    | None -> []
    | Some (unit_, v) ->
        [
          ( "throughput",
            Json.Obj [ ("unit", Json.Str unit_); ("per_s", Json.Num v) ] );
        ]
  in
  let counters =
    [ ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters)) ]
  in
  let floats =
    [ ("floats", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.floats)) ]
  in
  Json.Obj (base @ wall @ throughput @ counters @ floats)

let suite_to_json s =
  Json.Obj
    [
      ("suite", Json.Str s.suite);
      ("results", Json.List (List.map result_to_json s.results));
    ]

let to_json d =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("mode", Json.Str d.mode);
      ("suites", Json.List (List.map suite_to_json d.suites));
    ]

(* --- parsing ------------------------------------------------------- *)

let ( let* ) = Result.bind

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

let str_field ctx name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> fail "%s: missing string field %S" ctx name

let int_field ctx name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> fail "%s: missing int field %S" ctx name

let num ctx name = function
  | Json.Num f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> fail "%s: field %S is not a number" ctx name

let num_field ctx name j =
  match Json.member name j with
  | Some v -> num ctx name v
  | None -> fail "%s: missing number field %S" ctx name

let obj_field ctx name j =
  match Json.member name j with
  | Some (Json.Obj kvs) -> Ok kvs
  | _ -> fail "%s: missing object field %S" ctx name

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let wall_of_json ctx j =
  let* median_s = num_field ctx "median_s" j in
  let* min_s = num_field ctx "min_s" j in
  let* p10_s = num_field ctx "p10_s" j in
  let* p90_s = num_field ctx "p90_s" j in
  Ok { median_s; min_s; p10_s; p90_s }

let result_of_json j =
  let* name = str_field "result" "name" j in
  let ctx = Printf.sprintf "result %S" name in
  let* params = obj_field ctx "params" j in
  let* repeats = int_field ctx "repeats" j in
  let* warmup = int_field ctx "warmup" j in
  let* wall =
    match Json.member "wall" j with
    | None -> Ok None
    | Some w ->
        let* w = wall_of_json ctx w in
        Ok (Some w)
  in
  let* throughput =
    match Json.member "throughput" j with
    | None -> Ok None
    | Some t ->
        let* unit_ = str_field ctx "unit" t in
        let* v = num_field ctx "per_s" t in
        Ok (Some (unit_, v))
  in
  let* counter_kvs = obj_field ctx "counters" j in
  let* counters =
    map_result
      (function
        | k, Json.Int v -> Ok (k, v)
        | k, _ -> fail "%s: counter %S is not an int" ctx k)
      counter_kvs
  in
  let* float_kvs = obj_field ctx "floats" j in
  let* floats =
    map_result (fun (k, v) -> Result.map (fun f -> (k, f)) (num ctx k v)) float_kvs
  in
  Ok { name; params; repeats; warmup; wall; throughput; counters; floats }

let suite_of_json j =
  let* suite = str_field "suite" "suite" j in
  match Json.member "results" j with
  | Some (Json.List rs) ->
      let* results = map_result result_of_json rs in
      Ok { suite; results }
  | _ -> fail "suite %S: missing list field \"results\"" suite

let of_json j =
  let* tag = str_field "doc" "schema" j in
  if tag <> schema then fail "unsupported schema %S (want %S)" tag schema
  else
    let* mode = str_field "doc" "mode" j in
    match Json.member "suites" j with
    | Some (Json.List ss) ->
        let* suites = map_result suite_of_json ss in
        Ok { mode; suites }
    | _ -> fail "doc: missing list field \"suites\""

let write_file path d =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json d));
      output_char oc '\n')

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
      match Json.parse contents with
      | Error msg -> fail "%s: %s" path msg
      | Ok j -> of_json j)
