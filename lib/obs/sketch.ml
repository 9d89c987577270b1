(* Mergeable log-bucketed quantile sketch (DDSketch-style).

   Values are mapped to geometrically-spaced buckets: value [v] lands in
   bucket [ceil (log_gamma v)] where [gamma = (1 + alpha) / (1 - alpha)]
   and [alpha = relative_error].
   The midpoint estimate [2 * gamma^i / (gamma + 1)] of any bucket is
   within relative error [alpha] of every value in that bucket, so any
   quantile estimate is within [alpha] relative error of the exact order
   statistic.  Buckets are sparse (a small hashtable), values at or below
   [zero_cutoff] (and negatives) collapse into a dedicated zero bucket,
   and sketches merge by bucket-wise addition — merging is associative
   and commutative on bucket contents. *)

type t = {
  buckets : (int, int) Hashtbl.t;
  mutable zero : int;
  mutable count : int;
  mutable total : float;
  mutable min_v : float;
  mutable max_v : float;
}

let relative_error = 0.01
let gamma = (1.0 +. relative_error) /. (1.0 -. relative_error)
let log_gamma = log gamma
let zero_cutoff = 1e-12

let create () =
  {
    buckets = Hashtbl.create 64;
    zero = 0;
    count = 0;
    total = 0.0;
    min_v = infinity;
    max_v = neg_infinity;
  }

let count t = t.count
let total t = t.total
let min_value t = if t.count = 0 then 0.0 else t.min_v
let max_value t = if t.count = 0 then 0.0 else t.max_v
let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count

let bucket_index v = int_of_float (Float.ceil (log v /. log_gamma))

(* Midpoint of bucket [i]'s value range (gamma^(i-1), gamma^i]: the
   estimate is 2 * gamma^i / (gamma + 1), within alpha of all of it. *)
let bucket_estimate i = 2.0 *. (gamma ** float_of_int i) /. (gamma +. 1.0)

let add t v =
  if Float.is_finite v then begin
    if v <= zero_cutoff then t.zero <- t.zero + 1
    else begin
      let i = bucket_index v in
      let n = try Hashtbl.find t.buckets i with Not_found -> 0 in
      Hashtbl.replace t.buckets i (n + 1)
    end;
    t.count <- t.count + 1;
    t.total <- t.total +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let buckets t =
  Hashtbl.fold (fun i n acc -> (i, n) :: acc) t.buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let quantile t q =
  if t.count = 0 then None
  else if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Sketch.quantile: q must be in [0, 1]"
  else begin
    (* Zero-based target rank of the exact order statistic. *)
    let target = int_of_float (q *. float_of_int (t.count - 1)) in
    if target < t.zero then Some 0.0
    else begin
      let est = ref t.max_v and cum = ref t.zero and found = ref false in
      List.iter
        (fun (i, n) ->
          if not !found then begin
            cum := !cum + n;
            if !cum > target then begin
              est := bucket_estimate i;
              found := true
            end
          end)
        (buckets t);
      (* Clamping into the observed range only ever shrinks the error. *)
      Some (Float.max t.min_v (Float.min t.max_v !est))
    end
  end

let quantile_or ~default t q = match quantile t q with Some v -> v | None -> default

let copy t =
  {
    buckets = Hashtbl.copy t.buckets;
    zero = t.zero;
    count = t.count;
    total = t.total;
    min_v = t.min_v;
    max_v = t.max_v;
  }

let merge_into ~dst src =
  Hashtbl.iter
    (fun i n ->
      let m = try Hashtbl.find dst.buckets i with Not_found -> 0 in
      Hashtbl.replace dst.buckets i (m + n))
    src.buckets;
  dst.zero <- dst.zero + src.zero;
  dst.count <- dst.count + src.count;
  dst.total <- dst.total +. src.total;
  if src.count > 0 then begin
    if src.min_v < dst.min_v then dst.min_v <- src.min_v;
    if src.max_v > dst.max_v then dst.max_v <- src.max_v
  end

let merge a b =
  let t = copy a in
  merge_into ~dst:t b;
  t

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("total", Json.Num t.total);
      ("mean", Json.Num (mean t));
      ("min", Json.Num (min_value t));
      ("max", Json.Num (max_value t));
      ("p50", Json.Num (quantile_or ~default:0.0 t 0.5));
      ("p90", Json.Num (quantile_or ~default:0.0 t 0.9));
      ("p99", Json.Num (quantile_or ~default:0.0 t 0.99));
    ]
