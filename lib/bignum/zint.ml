(* Sign-and-magnitude over Nat. Invariant: the magnitude of a negative
   value is never zero (so zero has a unique representation). *)

type t = { neg : bool; mag : Nat.t }

let make neg mag = { neg = (neg && not (Nat.is_zero mag)); mag }

let zero = make false Nat.zero
let one = make false Nat.one
let minus_one = make true Nat.one

let of_int v =
  if v >= 0 then make false (Nat.of_int v) else make true (Nat.of_int (-v))

let to_int t =
  let m = Nat.to_int t.mag in
  if t.neg then -m else m

let neg t = make (not t.neg) t.mag
let abs t = make false t.mag
let sign t = if Nat.is_zero t.mag then 0 else if t.neg then -1 else 1

let add a b =
  if a.neg = b.neg then make a.neg (Nat.add a.mag b.mag)
  else if Nat.compare a.mag b.mag >= 0 then make a.neg (Nat.sub a.mag b.mag)
  else make b.neg (Nat.sub b.mag a.mag)

let sub a b = add a (neg b)

let mul a b = make (a.neg <> b.neg) (Nat.mul a.mag b.mag)

let compare a b =
  match (sign a, sign b) with
  | sa, sb when sa <> sb -> Stdlib.compare sa sb
  | -1, _ -> Nat.compare b.mag a.mag
  | _, _ -> Nat.compare a.mag b.mag

let equal a b = compare a b = 0

(* Euclidean division: remainder in [0, |b|). *)
let divmod a b =
  if Nat.is_zero b.mag then raise Division_by_zero;
  let q0, r0 = Nat.divmod a.mag b.mag in
  if not a.neg then (make b.neg q0, make false r0)
  else if Nat.is_zero r0 then (make (not b.neg) q0, zero)
  else
    (* a < 0 with a nonzero natural remainder: round the quotient away so
       the remainder becomes |b| - r0 >= 0. *)
    (make (not b.neg) (Nat.add q0 Nat.one), make false (Nat.sub b.mag r0))

let to_string t = (if t.neg then "-" else "") ^ Nat.to_decimal t.mag

let pp ppf t = Format.pp_print_string ppf (to_string t)
