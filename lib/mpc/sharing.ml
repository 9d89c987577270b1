module Bitvec = Dstress_util.Bitvec
module Prg = Dstress_crypto.Prg

let share prg ~parties v =
  if parties < 1 then invalid_arg "Sharing.share: parties < 1";
  let n = Bitvec.length v in
  let shares = Array.init (parties - 1) (fun _ -> Prg.bits prg n) in
  let last = Array.fold_left Bitvec.xor v shares in
  Array.append shares [| last |]

let reconstruct shares =
  if Array.length shares = 0 then invalid_arg "Sharing.reconstruct: empty";
  Bitvec.xor_all (Array.to_list shares)

let subshare = share
