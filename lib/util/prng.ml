type t = {
  mutable state : int64;
  (* Buffer so single-bit draws consume one mix per 64 bits, not per bit. *)
  mutable bitbuf : int64;
  mutable bitcnt : int;
}

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed; bitbuf = 0L; bitcnt = 0 }

let of_int seed = create (Int64.of_int seed)

let copy t = { state = t.state; bitbuf = t.bitbuf; bitcnt = t.bitcnt }

(* SplitMix64 finalizer: two xor-shift-multiply rounds. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = next_int64 t in
  (* A distinct finalization constant decorrelates the child stream. *)
  create (mix (Int64.logxor seed 0xA0761D6478BD642FL))

let bits t n =
  if n < 0 || n > 62 then invalid_arg "Prng.bits: n must be in [0, 62]";
  if n = 0 then 0
  else
    let raw = Int64.shift_right_logical (next_int64 t) (64 - n) in
    Int64.to_int raw

let int64_range t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Prng.int64_range: bound <= 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec loop () =
    let raw = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem raw bound in
    if Int64.(compare (sub raw v) (sub (sub max_int bound) 1L)) > 0 then loop ()
    else v
  in
  loop ()

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  Int64.to_int (int64_range t (Int64.of_int bound))

let bool t =
  if t.bitcnt = 0 then begin
    t.bitbuf <- next_int64 t;
    t.bitcnt <- 64
  end;
  let b = Int64.logand t.bitbuf 1L <> 0L in
  t.bitbuf <- Int64.shift_right_logical t.bitbuf 1;
  t.bitcnt <- t.bitcnt - 1;
  b

let float t =
  let raw = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float raw *. (1.0 /. 9007199254740992.0)

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (bits t 8))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  let a = Array.init n (fun i -> i) in
  (* Partial Fisher-Yates: only the first k positions need shuffling. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list (Array.sub a 0 k)
