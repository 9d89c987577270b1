(* Reflected CRC-32, polynomial 0xEDB88320, init/final XOR 0xFFFFFFFF —
   the zlib convention. The table is built once at module init. *)

let table =
  let t = Array.make 256 0l in
  for n = 0 to 255 do
    let c = ref (Int32.of_int n) in
    for _ = 0 to 7 do
      c :=
        if Int32.logand !c 1l <> 0l then
          Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
        else Int32.shift_right_logical !c 1
    done;
    t.(n) <- !c
  done;
  t

let digest b =
  let c = ref 0xFFFFFFFFl in
  for i = 0 to Bytes.length b - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl) in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
