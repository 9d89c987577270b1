module Prg = Dstress_crypto.Prg
module Ot_ext = Dstress_crypto.Ot_ext

type eval = {
  masks : bytes array array; (* .(level).(sender * parties + receiver), one byte per gate *)
  post_prgs : Prg.t array; (* per-party PRG snapshots after this evaluation *)
}

type material = {
  plan : Plan.t;
  parties : int;
  ot_mode : Ot_ext.mode;
  evals : eval array;
  ot : Ot_ext.session option array array;
  setup_traffic : Traffic.t;
}

let evals_available m = Array.length m.evals

module Cache = struct
  type t = unit

  let shared = ()
  let clear () = ()
end
