module Prg = Dstress_crypto.Prg
module Ot_ext = Dstress_crypto.Ot_ext
module Sha256 = Dstress_crypto.Sha256
module Crc32 = Dstress_util.Crc32
module Hex = Dstress_util.Hex

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
(* Disk persistence                                                    *)
(* ------------------------------------------------------------------ *)

(* File layout: magic line, 4-byte big-endian payload length, Marshal
   payload, 4-byte big-endian CRC-32 of the payload. Anything that fails
   to parse or verify is treated as a miss and regenerated — a corrupt or
   stale file can cost time, never correctness. *)

let magic = "DSTRESS-TRIPLE/3\n"

let file_of_key dir k =
  Filename.concat dir (Hex.encode (Sha256.digest (Bytes.of_string k)) ^ ".triple")

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let output_be32 oc v =
  for i = 3 downto 0 do
    output_char oc (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let input_be32 ic =
  let v = ref 0 in
  for _ = 0 to 3 do
    v := (!v lsl 8) lor Char.code (input_char ic)
  done;
  !v

let save dir k mat =
  try
    ensure_dir dir;
    let payload = Marshal.to_bytes mat [] in
    let path = file_of_key dir k in
    (* Write-then-rename so readers never observe a half-written file;
       concurrent writers of the same key race harmlessly (same content,
       and a torn temp file fails the CRC on load). *)
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    output_string oc magic;
    output_be32 oc (Bytes.length payload);
    output_bytes oc payload;
    output_be32 oc (Int32.to_int (Crc32.digest payload) land 0xffffffff);
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ -> ()

let load dir k ~digest ~parties ~seed ~mode ~evals =
  let path = file_of_key dir k in
  if not (Sys.file_exists path) then None
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let mg = really_input_string ic (String.length magic) in
          if mg <> magic then None
          else begin
            let len = input_be32 ic in
            if len < 0 || len > in_channel_length ic then None
            else begin
              let payload = Bytes.create len in
              really_input ic payload 0 len;
              let crc = input_be32 ic in
              if crc <> Int32.to_int (Crc32.digest payload) land 0xffffffff then None
              else
                let mat : material = Marshal.from_bytes payload 0 in
                if
                  String.equal mat.digest digest
                  && mat.parties = parties
                  && String.equal mat.seed seed
                  && mat.ot_mode = mode
                  && Array.length mat.evals >= evals
                then Some mat
                else None
            end
          end)
    with Sys_error _ | End_of_file | Failure _ -> None

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
    mutable disk_loads : int;
    mutable hits : int;
  }

  let create () =
    {
      mutex = Mutex.create ();
      table = Hashtbl.create 16;
      order = Queue.create ();
      generations = 0;
      disk_loads = 0;
      hits = 0;
    }

  let shared = create ()

  let generations t = Mutex.protect t.mutex (fun () -> t.generations)
  let disk_loads t = Mutex.protect t.mutex (fun () -> t.disk_loads)
  let hits t = Mutex.protect t.mutex (fun () -> t.hits)

  let clear t =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.reset t.table;
        Queue.clear t.order;
        t.generations <- 0;
        t.disk_loads <- 0;
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
  let find_or_generate ?dir t ~digest ~parties ~seed ~mode ~evals ~generate =
    let k = key ~digest ~parties ~seed ~mode in
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some mat when Array.length mat.evals >= evals ->
            t.hits <- t.hits + 1;
            mat
        | _ -> (
            let from_disk =
              match dir with
              | None -> None
              | Some d -> load d k ~digest ~parties ~seed ~mode ~evals
            in
            match from_disk with
            | Some mat ->
                t.disk_loads <- t.disk_loads + 1;
                remember t k mat;
                mat
            | None ->
                let mat = generate ~evals in
                t.generations <- t.generations + 1;
                remember t k mat;
                (match dir with None -> () | Some d -> save d k mat);
                mat))
end
