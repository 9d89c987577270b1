(* Little-endian arrays of 30-bit limbs, normalized: no trailing zero limb,
   and zero is the empty array. 30 bits is the widest limb for which the
   fused Montgomery step below stays exact in OCaml's 63-bit native int:
   its accumulator t + a_i*b_j + mu*m_j + carry is bounded by
   (2^30-1) + 2*(2^30-1)^2 + (2^31+2) < 2^61 < max_int. (At 31 bits the
   two limb products alone exceed 2^63.) Schoolbook multiplication and
   Knuth division have strictly smaller intermediates, so everything here
   is exact without Int64 boxing. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero t = Array.length t = 0
let is_one t = Array.length t = 1 && t.(0) = 1
let is_even t = Array.length t = 0 || t.(0) land 1 = 0

let of_int v =
  if v < 0 then invalid_arg "Nat.of_int: negative";
  if v = 0 then zero
  else begin
    let rec count n acc = if n = 0 then acc else count (n lsr limb_bits) (acc + 1) in
    let len = count v 0 in
    Array.init len (fun i -> (v lsr (i * limb_bits)) land mask)
  end

let to_int_opt t =
  (* max_int has 62 bits = 2 limbs + 2 bits of a third. *)
  let n = Array.length t in
  if n > 3 then None
  else begin
    let rec build i acc =
      if i < 0 then Some acc
      else if acc > (max_int - t.(i)) lsr limb_bits then None
      else build (i - 1) ((acc lsl limb_bits) lor t.(i))
    in
    build (n - 1) 0
  end

let to_int t =
  match to_int_opt t with
  | Some v -> v
  | None -> failwith "Nat.to_int: value exceeds max_int"

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0

(* FNV-style limb fold. Normalization makes the representation canonical,
   so [equal a b] implies [hash a = hash b]; masking keeps it positive. *)
let hash (t : t) =
  Array.fold_left (fun acc limb -> ((acc * 16777619) lxor limb) land max_int)
    (Array.length t + 2166136261) t

let num_bits t =
  let n = Array.length t in
  if n = 0 then 0
  else begin
    let top = t.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let bit t i =
  let limb = i / limb_bits in
  limb < Array.length t && (t.(limb) lsr (i mod limb_bits)) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let x =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- x land mask;
    carry := x lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let x = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    r.(i) <- x land mask;
    borrow := if x < 0 then 1 else 0
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let x = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- x land mask;
          carry := x lsr limb_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    normalize r
  end

let sqr a = mul a a

let shift_left t k =
  if k < 0 then invalid_arg "Nat.shift_left";
  if is_zero t || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t in
    let r = Array.make (n + limbs + 1) 0 in
    for i = 0 to n - 1 do
      let v = t.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right t k =
  if k < 0 then invalid_arg "Nat.shift_right";
  if is_zero t || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let n = Array.length t in
    if limbs >= n then zero
    else begin
      let r = Array.make (n - limbs) 0 in
      for i = 0 to n - limbs - 1 do
        let lo = t.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= n then 0
          else (t.(i + limbs + 1) lsl (limb_bits - bits)) land mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Short division by a single limb. *)
let divmod_limb a d =
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Knuth algorithm D. Preconditions: [b] has >= 2 limbs and [a >= b]. *)
let divmod_long a b =
  let nb = Array.length b in
  (* Normalize so the top limb of the divisor has its high bit set; this
     guarantees the quotient-digit estimate is off by at most 2. *)
  let rec top_width v acc = if v = 0 then acc else top_width (v lsr 1) (acc + 1) in
  let shift = limb_bits - top_width b.(nb - 1) 0 in
  let u0 = shift_left a shift and v = shift_left b shift in
  let n = Array.length v in
  let mu = Array.length u0 in
  let m = mu - n in
  (* Working copy of the dividend with one extra high limb. *)
  let u = Array.make (mu + 1) 0 in
  Array.blit u0 0 u 0 mu;
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  for j = m downto 0 do
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    if !qhat >= base then begin
      qhat := base - 1;
      rhat := num - ((base - 1) * vtop)
    end;
    let continue = ref true in
    while !continue && !rhat < base do
      if !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vtop
      end
      else continue := false
    done;
    (* Multiply-and-subtract qhat * v from u[j .. j+n]. *)
    let carry = ref 0 and borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = u.(j + i) - (p land mask) - !borrow in
      u.(j + i) <- d land mask;
      borrow := if d < 0 then 1 else 0
    done;
    let d = u.(j + n) - !carry - !borrow in
    u.(j + n) <- d land mask;
    if d < 0 then begin
      (* Estimate was one too high: add the divisor back. *)
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(j + i) + v.(i) + !c in
        u.(j + i) <- s land mask;
        c := s lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land mask
    end;
    q.(j) <- !qhat
  done;
  let r = normalize (Array.sub u 0 n) in
  (normalize q, shift_right r shift)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_limb a b.(0) in
    (q, of_int r)
  end
  else divmod_long a b

let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (sqr b) (e lsr 1)
    end
  in
  go one b e


let mod_sub a b ~m = if compare a b >= 0 then sub a b else sub (add a m) b

let mod_mul a b ~m = rem (mul a b) m

(* ------------------------------------------------------------------ *)
(* Montgomery arithmetic (odd moduli).                                 *)
(* ------------------------------------------------------------------ *)

module Mont = struct
  (* Mutable word-array kernel. Internally a value is a little-endian
     [int array] of exactly [k] limbs (zero-padded), always < m and in
     Montgomery form (x*R mod m, R = base^k). The exported entry points
     keep the immutable normalized [t] representation at the boundary;
     the buffers below are per-context scratch, so the inner
     multiplication loops never allocate. *)

  type scratch = {
    s_tmp : int array; (* k + 1: fused-CIOS accumulator *)
    s_wa : int array; (* k: operand staging *)
    s_wb : int array; (* k *)
    s_acc : int array; (* k: exponentiation accumulator *)
  }

  type ctx = {
    m : t; (* odd modulus, normalized *)
    mk : int array; (* the modulus as exactly k limbs *)
    k : int;
    m0' : int; (* -m[0]^{-1} mod base *)
    r2w : int array; (* R^2 mod m: converts into Montgomery form *)
    onew : int array; (* R mod m, i.e. 1 in Montgomery form *)
    pool : scratch Atomic.t;
        (* One-slot lock-free scratch pool: sequential callers reuse the
           same buffers allocation-free; a domain that finds the slot empty
           ([no_scratch]) allocates a fresh scratch, and at most one copy
           is retained. *)
  }

  let modulus ctx = ctx.m

  let alloc_scratch k =
    {
      s_tmp = Array.make (k + 1) 0;
      s_wa = Array.make k 0;
      s_wb = Array.make k 0;
      s_acc = Array.make k 0;
    }

  let no_scratch = alloc_scratch 0

  let take ctx =
    let s = Atomic.exchange ctx.pool no_scratch in
    if s == no_scratch then alloc_scratch ctx.k else s

  let release ctx s = Atomic.set ctx.pool s

  (* Per-domain count of CIOS multiplications, squarings included. Each
     entry point adds its own total once, after its loops, so counting
     costs one domain-local read per call and no synchronization. *)
  let count_key = Domain.DLS.new_key (fun () -> ref 0)

  let add_muls n =
    let c = Domain.DLS.get count_key in
    c := !c + n

  let muls () = !(Domain.DLS.get count_key)

  (* Inverse of an odd limb modulo 2^30 by Newton–Hensel lifting: the seed
     x = m0 is correct to 3 low bits (odd^2 = 1 mod 8) and each step doubles
     the count, so five steps reach 48 >= 30 correct bits. *)
  let inv_limb m0 =
    let x = ref m0 in
    for _ = 1 to 5 do
      x := !x * (2 - (m0 * !x)) land mask
    done;
    !x land mask

  let create m =
    if is_even m || compare m (of_int 3) < 0 then
      invalid_arg "Nat.Mont.create: modulus must be odd and >= 3";
    let k = Array.length m in
    let pad x =
      let w = Array.make k 0 in
      Array.blit x 0 w 0 (Array.length x);
      w
    in
    let m0' = (base - inv_limb m.(0)) land mask in
    let r2 = rem (shift_left one (2 * k * limb_bits)) m in
    let one_r = rem (shift_left one (k * limb_bits)) m in
    {
      m;
      mk = Array.copy m;
      k;
      m0';
      r2w = pad r2;
      onew = pad one_r;
      pool = Atomic.make (alloc_scratch k);
    }

  (* --- word-level kernel ------------------------------------------- *)

  (* [dst] <- [x] as exactly k limbs; [x] must have <= k limbs. *)
  let word_blit ctx x dst =
    let n = Array.length x in
    for i = 0 to ctx.k - 1 do
      Array.unsafe_set dst i (if i < n then Array.unsafe_get x i else 0)
    done

  (* Freeze a k-limb word into a normalized [t]: one allocation, exactly
     the result's limbs. *)
  let word_to_t w =
    let n = ref (Array.length w) in
    while !n > 0 && Array.unsafe_get w (!n - 1) = 0 do
      decr n
    done;
    if !n = 0 then zero else Array.sub w 0 !n

  (* Does the low-k-limb window of [w] exceed or equal the modulus? A loop
     rather than a local recursive function, which would allocate a
     closure on every multiplication. *)
  let word_ge_m ctx w =
    let m = ctx.mk in
    let i = ref (ctx.k - 1) in
    while !i >= 0 && Array.unsafe_get w !i = Array.unsafe_get m !i do
      decr i
    done;
    !i < 0 || Array.unsafe_get w !i > Array.unsafe_get m !i

  (* Move a (k+1)-limb value < 2m (top limb [top] in {0,1}) into [dst] as a
     canonical k-limb word, subtracting m once if needed. The final borrow
     of the subtraction cancels against [top]. *)
  let word_reduce_into ctx src ~top dst =
    let k = ctx.k and m = ctx.mk in
    if top <> 0 || word_ge_m ctx src then begin
      let borrow = ref 0 in
      for i = 0 to k - 1 do
        let x = Array.unsafe_get src i - Array.unsafe_get m i - !borrow in
        Array.unsafe_set dst i (x land mask);
        borrow := if x < 0 then 1 else 0
      done
    end
    else
      for i = 0 to k - 1 do
        Array.unsafe_set dst i (Array.unsafe_get src i)
      done

  (* dst <- a*b*R^-1 mod m. Fused CIOS: each pass over a limb of [a] does
     the multiply step and the Montgomery reduction step in one inner loop
     (one load/store sweep of the accumulator instead of two). [tmp] is the
     (k+1)-limb accumulator; [dst] may alias [a] or [b]. *)
  let cios ctx ~tmp a b dst =
    let k = ctx.k and m = ctx.mk and m0' = ctx.m0' in
    for j = 0 to k do
      Array.unsafe_set tmp j 0
    done;
    for i = 0 to k - 1 do
      let ai = Array.unsafe_get a i in
      let t0 = Array.unsafe_get tmp 0 + (ai * Array.unsafe_get b 0) in
      let mu = t0 * m0' land mask in
      let c = ref ((t0 + (mu * Array.unsafe_get m 0)) lsr limb_bits) in
      for j = 1 to k - 1 do
        let x =
          Array.unsafe_get tmp j + (ai * Array.unsafe_get b j)
          + (mu * Array.unsafe_get m j)
          + !c
        in
        Array.unsafe_set tmp (j - 1) (x land mask);
        c := x lsr limb_bits
      done;
      let x = Array.unsafe_get tmp k + !c in
      Array.unsafe_set tmp (k - 1) (x land mask);
      Array.unsafe_set tmp k (x lsr limb_bits)
    done;
    word_reduce_into ctx tmp ~top:tmp.(k) dst

  (* dst <- a^2*R^-1 mod m. Routed through the fused multiply: a separate
     SOS squaring (schoolbook-with-doubling then a reduction sweep) was
     measured ~30% slower here despite ~25% fewer limb products — the two
     extra memory sweeps over the double-width buffer cost more than the
     products saved. [dst] may alias [a]. *)
  let sqr ctx ~tmp a dst = cios ctx ~tmp a a dst

  let digit_of exp ~w i =
    let d = ref 0 in
    for b = w - 1 downto 0 do
      d := (!d lsl 1) lor (if bit exp ((i * w) + b) then 1 else 0)
    done;
    !d

  (* acc <- base_w ^ exp, 4-bit fixed window over k-limb words; returns
     the number of multiplications. [acc] must not alias [base_w]. *)
  let pow_words ctx ~s base_w exp acc =
    let bits = num_bits exp in
    if bits = 0 then begin
      Array.blit ctx.onew 0 acc 0 ctx.k;
      0
    end
    else begin
      let table = Array.init 16 (fun _ -> Array.make ctx.k 0) in
      Array.blit ctx.onew 0 table.(0) 0 ctx.k;
      for i = 1 to 15 do
        cios ctx ~tmp:s.s_tmp table.(i - 1) base_w table.(i)
      done;
      let nwin = (bits + 3) / 4 in
      let muls = ref (15 + (4 * (nwin - 1))) in
      Array.blit ctx.onew 0 acc 0 ctx.k;
      for w = nwin - 1 downto 0 do
        if w < nwin - 1 then
          for _ = 1 to 4 do
            sqr ctx ~tmp:s.s_tmp acc acc
          done;
        let d = digit_of exp ~w:4 w in
        if d <> 0 then begin
          cios ctx ~tmp:s.s_tmp acc table.(d) acc;
          incr muls
        end
      done;
      !muls
    end

  let mul ctx a b =
    let s = take ctx in
    word_blit ctx a s.s_wa;
    word_blit ctx b s.s_wb;
    cios ctx ~tmp:s.s_tmp s.s_wa s.s_wb s.s_wa;
    let r = word_to_t s.s_wa in
    release ctx s;
    add_muls 1;
    r

  let to_mont ctx x =
    let x = if Array.length x > ctx.k || compare x ctx.m >= 0 then rem x ctx.m else x in
    mul ctx x ctx.r2w

  let from_mont ctx x = mul ctx x one

  let pow ctx base_mont exp =
    let s = take ctx in
    word_blit ctx base_mont s.s_wb;
    let n = pow_words ctx ~s s.s_wb exp s.s_acc in
    let r = word_to_t s.s_acc in
    release ctx s;
    add_muls n;
    r

  (* --- Lim–Lee fixed-base comb --------------------------------------- *)

  (* An exponent e of at most h*d bits is read as h "teeth" of d bits:
     tooth i holds bits [i*d, (i+1)*d). Column j gathers bit j of every
     tooth into an h-bit index, so
       base^e = prod_j (table[column j])^(2^j),
     where table[s] = prod over the set bits i of s of base^(2^(i*d)).
     Horner over the columns, high to low, costs one squaring and at most
     one table multiplication per column. *)
  type comb = {
    c_ctx : ctx;
    c_teeth : int;
    c_d : int; (* columns: ceil(ebits / teeth) *)
    c_ebits : int; (* widest exponent the table serves *)
    c_table : Bytes.t;
        (* 2^teeth entries of k limbs, 4 native-endian bytes per 30-bit
           limb, entry s at byte s*k*4, in Montgomery form. Unboxed, so
           the GC never scans it. *)
  }

  external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
  external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

  let entry_load c s dst =
    let k = c.c_ctx.k in
    let off = s * k * 4 in
    for j = 0 to k - 1 do
      Array.unsafe_set dst j (Int32.to_int (get32 c.c_table (off + (4 * j))))
    done

  let entry_store table ~k s src =
    let off = s * k * 4 in
    for j = 0 to k - 1 do
      set32 table (off + (4 * j)) (Int32.of_int (Array.unsafe_get src j))
    done

  let comb ctx base_mont ~teeth ~ebits =
    if teeth < 1 || teeth > 16 then
      invalid_arg "Nat.Mont.comb: teeth must lie in [1, 16]";
    if ebits < 1 then invalid_arg "Nat.Mont.comb: ebits must be positive";
    let k = ctx.k in
    let d = (ebits + teeth - 1) / teeth in
    let c =
      { c_ctx = ctx; c_teeth = teeth; c_d = d; c_ebits = ebits;
        c_table = Bytes.create ((1 lsl teeth) * k * 4) }
    in
    let s = take ctx in
    entry_store c.c_table ~k 0 ctx.onew;
    (* Single-tooth entries: base^(2^(i*d)), d squarings apart. *)
    word_blit ctx base_mont s.s_acc;
    entry_store c.c_table ~k 1 s.s_acc;
    for i = 1 to teeth - 1 do
      for _ = 1 to d do
        sqr ctx ~tmp:s.s_tmp s.s_acc s.s_acc
      done;
      entry_store c.c_table ~k (1 lsl i) s.s_acc
    done;
    (* Every other entry: its top tooth times the entry below it. *)
    for i = 1 to teeth - 1 do
      let top = 1 lsl i in
      entry_load c top s.s_wb;
      for low = 1 to top - 1 do
        entry_load c low s.s_wa;
        cios ctx ~tmp:s.s_tmp s.s_wa s.s_wb s.s_wa;
        entry_store c.c_table ~k (top + low) s.s_wa
      done
    done;
    release ctx s;
    add_muls (((teeth - 1) * d) + (1 lsl teeth) - teeth - 1);
    c

  let column e ~teeth ~d j =
    let col = ref 0 in
    for i = teeth - 1 downto 0 do
      col := (!col lsl 1) lor (if bit e ((i * d) + j) then 1 else 0)
    done;
    !col

  let pow_comb ctx c e =
    if c.c_ctx != ctx then invalid_arg "Nat.Mont.pow_comb: comb of another context";
    let nb = num_bits e in
    if nb > c.c_ebits then invalid_arg "Nat.Mont.pow_comb: exponent wider than the comb";
    let teeth = c.c_teeth and d = c.c_d in
    let s = take ctx in
    let acc = s.s_acc in
    (* Until the first nonzero column the accumulator is 1: load that
       column's entry instead of squaring and multiplying into 1. Columns
       at or above [nb] are zero when only the first tooth is populated. *)
    let started = ref false and muls = ref 0 in
    for j = min d nb - 1 downto 0 do
      if !started then begin
        sqr ctx ~tmp:s.s_tmp acc acc;
        incr muls
      end;
      let col = column e ~teeth ~d j in
      if col <> 0 then
        if !started then begin
          entry_load c col s.s_wb;
          cios ctx ~tmp:s.s_tmp acc s.s_wb acc;
          incr muls
        end
        else begin
          entry_load c col acc;
          started := true
        end
    done;
    if not !started then Array.blit ctx.onew 0 acc 0 ctx.k;
    let r = word_to_t acc in
    release ctx s;
    add_muls !muls;
    r
end

let mod_pow ~base:b ~exp ~m =
  if is_zero m then raise Division_by_zero;
  if is_one m then zero
  else if is_even m then begin
    (* Rare in this code base (our moduli are odd primes); plain
       square-and-multiply keeps the even case correct. *)
    let rec go acc b i =
      if i >= num_bits exp then acc
      else begin
        let acc = if bit exp i then mod_mul acc b ~m else acc in
        go acc (mod_mul b b ~m) (i + 1)
      end
    in
    go one (rem b m) 0
  end
  else begin
    let ctx = Mont.create m in
    Mont.from_mont ctx (Mont.pow ctx (Mont.to_mont ctx (rem b m)) exp)
  end

(* Extended Euclid with signed cofactors, tracked as (negative?, magnitude). *)
let mod_inv a ~m =
  if is_zero m then raise Division_by_zero;
  let signed_sub (sa, va) (sb, vb) =
    (* (sa,va) - (sb,vb) *)
    if sa = sb then
      if compare va vb >= 0 then (sa, sub va vb) else (not sa, sub vb va)
    else (sa, add va vb)
  in
  let rec go (r0, s0) (r1, s1) =
    if is_zero r1 then (r0, s0)
    else begin
      let q, r2 = divmod r0 r1 in
      let qs1 = (fst s1, mul q (snd s1)) in
      go (r1, s1) (r2, signed_sub s0 qs1)
    end
  in
  let g, (neg, v) = go (rem a m, (false, one)) (m, (false, zero)) in
  if not (is_one g) then raise Not_found;
  let v = rem v m in
  if neg && not (is_zero v) then sub m v else v

(* ------------------------------------------------------------------ *)
(* Conversions                                                         *)
(* ------------------------------------------------------------------ *)

let of_bytes_be b =
  let n = Bytes.length b in
  let acc = ref zero in
  for i = 0 to n - 1 do
    acc := add (shift_left !acc 8) (of_int (Char.code (Bytes.get b i)))
  done;
  !acc

let to_bytes_be t =
  let nbytes = (num_bits t + 7) / 8 in
  let out = Bytes.create nbytes in
  for i = 0 to nbytes - 1 do
    let byte = ref 0 in
    for j = 0 to 7 do
      if bit t ((8 * (nbytes - 1 - i)) + j) then byte := !byte lor (1 lsl j)
    done;
    Bytes.set out i (Char.chr !byte)
  done;
  out

let to_bytes_be_padded t ~len =
  let b = to_bytes_be t in
  let nb = Bytes.length b in
  if nb > len then invalid_arg "Nat.to_bytes_be_padded: value too wide";
  let out = Bytes.make len '\000' in
  Bytes.blit b 0 out (len - nb) nb;
  out

let of_hex s =
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  of_bytes_be (Dstress_util.Hex.decode s)


let chunk_pow = 1_000_000_000 (* 10^9 < 2^30: fits a single limb *)
let chunk_digits = 9

let of_decimal s =
  if s = "" then invalid_arg "Nat.of_decimal: empty";
  String.iter
    (fun c -> if c < '0' || c > '9' then invalid_arg "Nat.of_decimal: bad digit")
    s;
  let acc = ref zero in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    let take = min chunk_digits (n - !i) in
    let chunk = int_of_string (String.sub s !i take) in
    acc := add (mul !acc (of_int (int_of_float (10.0 ** float_of_int take)))) (of_int chunk);
    i := !i + take
  done;
  !acc

let to_decimal t =
  if is_zero t then "0"
  else begin
    let rec go t acc =
      if is_zero t then acc
      else begin
        let q, r = divmod_limb t chunk_pow in
        if is_zero q then string_of_int r :: acc
        else go q (Printf.sprintf "%09d" r :: acc)
      end
    in
    String.concat "" (go t [])
  end

(* ------------------------------------------------------------------ *)
(* Randomness and primality                                            *)
(* ------------------------------------------------------------------ *)

let random_bits prng n =
  if n < 0 then invalid_arg "Nat.random_bits";
  let limbs = (n + limb_bits - 1) / limb_bits in
  let r = Array.init limbs (fun _ -> Dstress_util.Prng.bits prng limb_bits) in
  let extra = (limbs * limb_bits) - n in
  if limbs > 0 && extra > 0 then r.(limbs - 1) <- r.(limbs - 1) lsr extra;
  normalize r

let random_below prng bound =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let nb = num_bits bound in
  let rec loop () =
    let candidate = random_bits prng nb in
    if compare candidate bound < 0 then candidate else loop ()
  in
  loop ()

let is_probable_prime ?(rounds = 32) prng n =
  if compare n two < 0 then false
  else if compare n (of_int 4) < 0 then true (* 2 and 3 *)
  else if is_even n then false
  else begin
    let n1 = sub n one in
    (* n - 1 = d * 2^s with d odd *)
    let rec split d s = if is_even d then split (shift_right d 1) (s + 1) else (d, s) in
    let d, s = split n1 0 in
    let try_base a =
      let x = ref (mod_pow ~base:a ~exp:d ~m:n) in
      if is_one !x || equal !x n1 then true
      else begin
        let rec squares i =
          if i >= s - 1 then false
          else begin
            x := mod_mul !x !x ~m:n;
            if equal !x n1 then true else squares (i + 1)
          end
        in
        squares 0
      end
    in
    let rec rounds_loop i =
      if i = rounds then true
      else begin
        let a = add two (random_below prng (sub n (of_int 3))) in
        if try_base a then rounds_loop (i + 1) else false
      end
    in
    rounds_loop 0
  end

let generate_prime prng ~bits =
  if bits < 2 then invalid_arg "Nat.generate_prime: bits < 2";
  let rec loop () =
    let c = random_bits prng (bits - 1) in
    (* Force the top bit (exact width) and the low bit (oddness). *)
    let c = add (shift_left one (bits - 1)) c in
    let c = if is_even c then add c one else c in
    if is_probable_prime prng c then c else loop ()
  in
  loop ()
