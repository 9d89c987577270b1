module Nat = Dstress_bignum.Nat

(* SHA-256 in counter mode: block_i = H(key || i64). A buffer holds the
   unconsumed tail of the last block computed (and any blocks computed
   ahead of it by [prefetch]), so bit/byte requests of any size are
   served without waste. The buffer always ends at a block boundary, and
   [counter] numbers the block that follows it. *)
type t = {
  key : bytes;
  mutable counter : int64;
  mutable buffer : bytes;
  mutable pos : int;
}

let create seed = { key = Bytes.copy seed; counter = 0L; buffer = Bytes.create 0; pos = 0 }

let of_string s = create (Bytes.of_string s)

let next_block t =
  let ctr = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set ctr i
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical t.counter (8 * i)) 0xffL)))
  done;
  t.counter <- Int64.add t.counter 1L;
  Sha256.digest (Bytes.cat t.key ctr)

let refill t =
  t.buffer <- next_block t;
  t.pos <- 0

let next_byte t =
  if t.pos >= Bytes.length t.buffer then refill t;
  let b = Bytes.get t.buffer t.pos in
  t.pos <- t.pos + 1;
  Char.code b

(* Advance past [n] bytes without drawing them. Whole blocks in between
   are never hashed; only a final partial block is computed, to buffer
   its unread tail. *)
let skip t n =
  if n < 0 then invalid_arg "Prg.skip: negative length";
  let buffered = Bytes.length t.buffer - t.pos in
  if n <= buffered then t.pos <- t.pos + n
  else begin
    (* Each block is one 32-byte SHA-256 digest. *)
    let rest = n - buffered in
    t.counter <- Int64.add t.counter (Int64.of_int (rest / 32));
    if rest mod 32 = 0 then t.pos <- Bytes.length t.buffer
    else begin
      refill t;
      t.pos <- rest mod 32
    end
  end

(* Compute the stream's next [n] bytes now: the unread tail and enough
   whole blocks after it go into one buffer, which later draws read as
   they would the blocks computed on demand. *)
let prefetch t n =
  if n < 0 then invalid_arg "Prg.prefetch: negative length";
  let buffered = Bytes.length t.buffer - t.pos in
  if n > buffered then begin
    let blocks = (n - buffered + 31) / 32 in
    let buffer = Bytes.create (buffered + (32 * blocks)) in
    Bytes.blit t.buffer t.pos buffer 0 buffered;
    for i = 0 to blocks - 1 do
      Bytes.blit (next_block t) 0 buffer (buffered + (32 * i)) 32
    done;
    t.buffer <- buffer;
    t.pos <- 0
  end

(* Bulk draw: blit whole buffered blocks instead of going byte by byte.
   The output stream is identical to repeated [next_byte]. *)
let bytes t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if t.pos >= Bytes.length t.buffer then refill t;
    let take = min (n - !filled) (Bytes.length t.buffer - t.pos) in
    Bytes.blit t.buffer t.pos out !filled take;
    t.pos <- t.pos + take;
    filled := !filled + take
  done;
  out

let bits t n =
  let nbytes = (n + 7) / 8 in
  let raw = bytes t nbytes in
  Dstress_util.Bitvec.init n (fun i ->
      (Char.code (Bytes.get raw (i / 8)) lsr (i mod 8)) land 1 = 1)

let bool t = next_byte t land 1 = 1

let seed64 s =
  let d = Sha256.digest (Bytes.of_string s) in
  let acc = ref 0L in
  for i = 0 to 7 do
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int (Char.code (Bytes.get d i))) (8 * i))
  done;
  !acc

let nat_below t bound =
  if Nat.is_zero bound then invalid_arg "Prg.nat_below: zero bound";
  let nbits = Nat.num_bits bound in
  let nbytes = (nbits + 7) / 8 in
  let excess = (8 * nbytes) - nbits in
  let rec loop () =
    let raw = bytes t nbytes in
    (* Mask the high byte down to the bound's bit-width before the
       rejection test, so acceptance probability is >= 1/2. *)
    if excess > 0 then begin
      let hi = Char.code (Bytes.get raw 0) in
      Bytes.set raw 0 (Char.chr (hi land (0xff lsr excess)))
    end;
    let v = Nat.of_bytes_be raw in
    if Nat.compare v bound < 0 then v else loop ()
  in
  loop ()
