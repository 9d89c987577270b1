type level = Off | Full

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  type value =
    | Counter of int
    | Sum of float
    | Gauge of float
    | Quantiles of Sketch.t

  type t = { tbl : (string, value) Hashtbl.t }

  let create () = { tbl = Hashtbl.create 32 }

  let kind_error name =
    invalid_arg (Printf.sprintf "Obs.Metrics: %S already has a different kind" name)

  let incr ?(by = 1) t name =
    match Hashtbl.find_opt t.tbl name with
    | None -> Hashtbl.replace t.tbl name (Counter by)
    | Some (Counter c) -> Hashtbl.replace t.tbl name (Counter (c + by))
    | Some _ -> kind_error name

  let add t name v =
    match Hashtbl.find_opt t.tbl name with
    | None -> Hashtbl.replace t.tbl name (Sum v)
    | Some (Sum s) -> Hashtbl.replace t.tbl name (Sum (s +. v))
    | Some _ -> kind_error name

  let set t name v =
    match Hashtbl.find_opt t.tbl name with
    | None | Some (Gauge _) -> Hashtbl.replace t.tbl name (Gauge v)
    | Some _ -> kind_error name

  let observe_sketch t name v =
    match Hashtbl.find_opt t.tbl name with
    | None ->
        let s = Sketch.create () in
        Sketch.add s v;
        Hashtbl.replace t.tbl name (Quantiles s)
    | Some (Quantiles s) -> Sketch.add s v
    | Some _ -> kind_error name

  let find t name = Hashtbl.find_opt t.tbl name

  let counter t name =
    match Hashtbl.find_opt t.tbl name with
    | None -> 0
    | Some (Counter c) -> c
    | Some _ -> kind_error name

  let sum t name =
    match Hashtbl.find_opt t.tbl name with
    | None -> 0.0
    | Some (Sum s) | Some (Gauge s) -> s
    | Some _ -> kind_error name

  let names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [] |> List.sort compare

  let merge_into ~dst src =
    List.iter
      (fun name ->
        match Hashtbl.find_opt src.tbl name with
        | None -> ()
        | Some (Counter c) -> incr ~by:c dst name
        | Some (Sum s) -> add dst name s
        | Some (Gauge g) -> set dst name g
        | Some (Quantiles s) -> (
            match Hashtbl.find_opt dst.tbl name with
            | None -> Hashtbl.replace dst.tbl name (Quantiles (Sketch.copy s))
            | Some (Quantiles d) -> Sketch.merge_into ~dst:d s
            | Some _ -> kind_error name))
      (names src)

  let value_to_json = function
    | Counter c -> Json.Int c
    | Sum s -> Json.Num s
    | Gauge g -> Json.Num g
    | Quantiles s -> Sketch.to_json s

  let to_json t =
    Json.Obj
      (List.map (fun name -> (name, value_to_json (Hashtbl.find t.tbl name))) (names t))
end

(* ------------------------------------------------------------------ *)
(* Span collector                                                      *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  start : int;
  dur : int;
  depth : int;
  wall : float;
  wall_start : float;
}

type open_span = { oname : string; ostart : int; odepth : int; owall : float }

type t = {
  lvl : level;
  m : Metrics.t;
  mutable closed : span list; (* reverse close order *)
  mutable stack : open_span list;
  mutable cursor : int;
}

let make lvl = { lvl; m = Metrics.create (); closed = []; stack = []; cursor = 0 }

(* The shared Off collector: every operation guards on the level, so its
   mutable fields are never written and it is safe to share across
   domains. *)
let off = make Off

let create ~level () = match level with Off -> off | l -> make l

let level t = t.lvl
let enabled t = t.lvl <> Off
let metrics t = t.m

let incr ?by t name = if enabled t then Metrics.incr ?by t.m name
let add t name v = if enabled t then Metrics.add t.m name v
let set t name v = if enabled t then Metrics.set t.m name v

let advance t n = if enabled t && n > 0 then t.cursor <- t.cursor + n

let enter t name =
  if enabled t then
    t.stack <-
      {
        oname = name;
        ostart = t.cursor;
        odepth = List.length t.stack;
        owall = Unix.gettimeofday ();
      }
      :: t.stack

let leave t =
  if enabled t then
    match t.stack with
    | [] -> invalid_arg "Obs.leave: no open span"
    | o :: rest ->
        t.stack <- rest;
        t.closed <-
          {
            name = o.oname;
            start = o.ostart;
            dur = t.cursor - o.ostart;
            depth = o.odepth;
            wall = Unix.gettimeofday () -. o.owall;
            wall_start = o.owall;
          }
          :: t.closed

let span t name f =
  enter t name;
  match f () with
  | v ->
      leave t;
      v
  | exception e ->
      leave t;
      raise e

let fork t = if enabled t then make t.lvl else t

let merge_into ~dst child =
  if dst != child && enabled child then begin
    if child.stack <> [] then invalid_arg "Obs.merge_into: child has open spans";
    Metrics.merge_into ~dst:dst.m child.m;
    let toff = dst.cursor and doff = List.length dst.stack in
    dst.closed <-
      List.map
        (fun s -> { s with start = s.start + toff; depth = s.depth + doff })
        child.closed
      @ dst.closed;
    dst.cursor <- dst.cursor + child.cursor
  end

let spans t = List.rev t.closed

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let trace_json t =
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "dstress");
        ("ph", Json.Str "X");
        ("ts", Json.Int s.start);
        ("dur", Json.Int s.dur);
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("depth", Json.Int s.depth) ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("displayTimeUnit", Json.Str "ms");
         ("traceEvents", Json.List (List.map event (spans t)));
       ])

let metrics_json t = Json.to_string (Metrics.to_json t.m)
