(* FIPS 180-4 SHA-256 on native ints: every 32-bit word lives in the low
   bits of an OCaml int and is masked back to 32 bits after each addition,
   so the compression loop allocates nothing. Hashing is on the GMW hot
   path: every mask byte comes from the SHA-CTR {!Prg}, and Crypto-mode
   OT extension hashes every row. Whole message blocks are compressed in
   place; only the padded tail is copied. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask32 = 0xffffffff

(* [x] must already fit in 32 bits. *)
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* Fold the 64-byte block of [data] at [off] into the state [h], using [w]
   as the message-schedule scratch. *)
let compress h w data off =
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be data (off + (4 * t))) land mask32
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ev = !e and av = !a in
    let s1 = rotr ev 6 lxor rotr ev 11 lxor rotr ev 25 in
    let ch = ev land !f lxor (lnot ev land !g) in
    let t1 = !hh + s1 + ch + k.(t) + w.(t) in
    let s0 = rotr av 2 lxor rotr av 13 lxor rotr av 22 in
    let maj = av land !b lxor (av land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + s0 + maj) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let digest msg =
  let len = Bytes.length msg in
  let h =
    [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
       0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]
  in
  let w = Array.make 64 0 in
  let full = len / 64 in
  for blk = 0 to full - 1 do
    compress h w msg (64 * blk)
  done;
  (* The tail: the last [len mod 64] bytes, the 0x80 terminator, zeros,
     and the 64-bit big-endian bit length — one block, or two when fewer
     than 9 bytes are left after the message. *)
  let rest = len - (64 * full) in
  let tail = Bytes.make (if rest < 56 then 64 else 128) '\x00' in
  Bytes.blit msg (64 * full) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (Bytes.length tail - 8) (Int64.of_int (len * 8));
  compress h w tail 0;
  if Bytes.length tail = 128 then compress h w tail 64;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
  out
