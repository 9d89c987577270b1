module Prg = Dstress_crypto.Prg
module Ot_ext = Dstress_crypto.Ot_ext

type eval = {
  masks : bytes array array; (* .(level).(sender * parties + receiver), one byte per gate *)
  post_prgs : Prg.t array; (* per-party PRG snapshots after this evaluation *)
}

type material = {
  digest : string;
  parties : int;
  seed : string;
  ot_mode : Ot_ext.mode;
  evals : eval array;
  ot : Ot_ext.session option array array;
  setup_traffic : Traffic.t;
}

let evals_available m = Array.length m.evals

let mode_tag = function Ot_ext.Crypto -> "crypto" | Ot_ext.Simulation -> "sim"

let key ~digest ~parties ~seed ~mode =
  Printf.sprintf "%s:%d:%s:%s" digest parties seed (mode_tag mode)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  (* Materials kept in memory; every key holds its run's seed, so an
     unbounded table would grow with every distinct run a process serves. *)
  let capacity = 64

  type t = {
    mutex : Mutex.t;
    table : (string, material) Hashtbl.t;
    order : string Queue.t; (* keys of [table], oldest first *)
    mutable generations : int;
    mutable hits : int;
  }

  let create () =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 16;
      order = Queue.create ();
      generations = 0;
      hits = 0;
    }

  let shared = create ()

  let generations t = Mutex.protect t.mutex (fun () -> t.generations)
  let hits t = Mutex.protect t.mutex (fun () -> t.hits)

  let clear t =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.reset t.table;
        Queue.clear t.order;
        t.generations <- 0;
        t.hits <- 0)

  (* Caller holds the mutex. A new key evicts the oldest once the table
     is full; a regenerated key keeps its place. *)
  let remember t k mat =
    if not (Hashtbl.mem t.table k) then begin
      Queue.push k t.order;
      if Queue.length t.order > capacity then Hashtbl.remove t.table (Queue.pop t.order)
    end;
    Hashtbl.replace t.table k mat

  (* The mutex is held across generation on purpose: when a domain pool
     hammers one key, exactly one generation runs and everyone else
     blocks on it and then hits — generating the same material twice
     would be wasted work, not a correctness bug (it is deterministic
     in the key). *)
  let find_or_generate t ~digest ~parties ~seed ~mode ~evals ~generate =
    let k = key ~digest ~parties ~seed ~mode in
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some mat when Array.length mat.evals >= evals ->
            t.hits <- t.hits + 1;
            mat
        | _ ->
            let mat = generate ~evals in
            t.generations <- t.generations + 1;
            remember t k mat;
            mat)
end
