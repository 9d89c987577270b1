module Bitvec = Dstress_util.Bitvec
module Prng = Dstress_util.Prng
module Prg = Dstress_crypto.Prg
module Traffic = Dstress_mpc.Traffic
module Sharing = Dstress_mpc.Sharing
module Gmw = Dstress_mpc.Gmw

type t = {
  vertex : int;
  members : int array;
  session : Gmw.session;
  state_bits : int;
  message_bits : int;
  degree : int;
  mutable state : Bitvec.t array;
  inbox : Bitvec.t array array;
  outbox : Bitvec.t array array;
}

let zero_shares kp1 bits = Array.init kp1 (fun _ -> Bitvec.create bits false)

let create ~ot_mode ~grp ~seed ~kp1 ~degree ~state_bits ~message_bits ~vertex ~members =
  {
    vertex;
    members;
    session =
      Gmw.create_session ~mode:ot_mode grp ~parties:kp1
        ~seed:(Printf.sprintf "%s:block:%d" seed vertex);
    state_bits;
    message_bits;
    degree;
    state = zero_shares kp1 state_bits;
    inbox = Array.init degree (fun _ -> zero_shares kp1 message_bits);
    outbox = Array.init degree (fun _ -> zero_shares kp1 message_bits);
  }

let clear_inbox b =
  let kp1 = Array.length b.members in
  for s = 0 to b.degree - 1 do
    b.inbox.(s) <- zero_shares kp1 b.message_bits
  done

let gather_inputs b =
  Array.init (Array.length b.members) (fun m ->
      Bitvec.concat (b.state.(m) :: List.init b.degree (fun s -> b.inbox.(s).(m))))

let scatter_outputs b out =
  Array.iteri
    (fun m vec ->
      b.state.(m) <- Bitvec.sub vec ~pos:0 ~len:b.state_bits;
      for s = 0 to b.degree - 1 do
        b.outbox.(s).(m) <-
          Bitvec.sub vec ~pos:(b.state_bits + (s * b.message_bits)) ~len:b.message_bits
      done)
    out

let derive_prg ~seed purpose = Prg.of_string (seed ^ ":" ^ purpose)

let derive_prng ~seed purpose = Prng.create (Prg.seed64 (seed ^ ":" ^ purpose))

let reshare ?(obs = Dstress_obs.Obs.off) ~prg ~kp1 ~ebytes ~traffic ~src_blocks
    ~dst_members values =
  let payload_bytes bits = ((bits + 7) / 8) + ebytes in
  (* Traffic.total is O(parties^2); skip the delta when nothing collects. *)
  let live = Dstress_obs.Obs.enabled obs in
  let before = if live then Traffic.total traffic else 0 in
  let result =
    List.map2
      (fun src_block (shares : Bitvec.t array) ->
        let bits = Bitvec.length shares.(0) in
        let pieces = Array.map (fun s -> Sharing.subshare prg ~parties:kp1 s) shares in
        Array.iteri
          (fun x _ ->
            Array.iter
              (fun y_node ->
                Traffic.add traffic ~src:src_block.(x) ~dst:y_node (payload_bytes bits))
              dst_members)
          pieces;
        Array.init kp1 (fun y ->
            Bitvec.xor_all (Array.to_list (Array.map (fun p -> p.(y)) pieces))))
      src_blocks values
  in
  if live then begin
    Dstress_obs.Obs.incr obs ~by:(List.length values) "reshare.values";
    Dstress_obs.Obs.incr obs ~by:(Traffic.total traffic - before) "reshare.bytes"
  end;
  result
