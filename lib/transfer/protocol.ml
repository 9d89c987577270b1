module Group = Dstress_crypto.Group
module Prg = Dstress_crypto.Prg
module Exp_elgamal = Dstress_crypto.Exp_elgamal
module Elgamal = Dstress_crypto.Elgamal
module Bitvec = Dstress_util.Bitvec
module Traffic = Dstress_mpc.Traffic
module Sharing = Dstress_mpc.Sharing
module Mechanism = Dstress_dp.Mechanism
module Obs = Dstress_obs.Obs

type variant = Strawman1 | Strawman2 | Strawman3 | Final

type params = { alpha : float; table : Exp_elgamal.Table.t }

type recovery = {
  max_retries : int;
  escalation_table : Exp_elgamal.Table.t Lazy.t option;
}

let no_recovery = { max_retries = 0; escalation_table = None }

type inject = Drop_attempt | Corrupt_attempt | Force_miss of { member : int; bit : int }

type miss = { member : int; bit : int }

type outcome = {
  shares : Bitvec.t array;
  failures : int;
  misses : miss list;
  retries : int;
  recovered : int;
  unrecovered : int;
  extra_epsilon : float;
  sums : int array array option;
}

let parity v = ((v mod 2) + 2) mod 2 = 1

let expected_bytes variant ~k ~bits ~element_bytes =
  let kp1 = k + 1 in
  let multi l = (l + 1) * element_bytes in
  match variant with
  | Strawman1 ->
      (* Each member sends one L-bit bundle for one recipient; i forwards
         them unchanged; each recipient gets one bundle. *)
      let per_sender = multi bits in
      let i_to_j = kp1 * multi bits in
      let per_receiver = multi bits in
      (per_sender, i_to_j, per_receiver, (kp1 * per_sender) + i_to_j + (kp1 * per_receiver))
  | Strawman2 ->
      (* Each member sends subshare bundles for all k+1 recipients; i
         forwards all of them; each recipient gets k+1 bundles. *)
      let per_sender = multi (kp1 * bits) in
      let i_to_j = kp1 * per_sender in
      let per_receiver = kp1 * multi bits in
      (per_sender, i_to_j, per_receiver, (kp1 * per_sender) + i_to_j + (kp1 * per_receiver))
  | Strawman3 | Final ->
      (* i combines: one shared ephemeral plus (k+1)*L summed ciphertext
         bodies; each recipient gets its L bodies plus the ephemeral. *)
      let per_sender = multi (kp1 * bits) in
      let i_to_j = multi (kp1 * bits) in
      let per_receiver = multi bits in
      (per_sender, i_to_j, per_receiver, (kp1 * per_sender) + i_to_j + (kp1 * per_receiver))

type keys = { receiver : int; neighbor_slot : int; combs : Group.comb array array }

(* Teeth of an attempt's adjusted-ephemeral table, which serves the
   (k+1)*L decryptions of the attempt: 8 teeth (256 entries, ~9 KB at 256
   bits) cost ~470 multiplications to build and at most 62 per 255-bit
   exponent. *)
let ephemeral_teeth = 8

exception Bad_certificate of { receiver : int; neighbor_slot : int }

let keys setup ~receiver ~neighbor_slot =
  if neighbor_slot < 0 || neighbor_slot >= setup.Setup.degree_bound then
    invalid_arg "Protocol.keys: bad neighbor slot";
  let grp = setup.Setup.grp in
  let cert = setup.Setup.nodes.(receiver).Setup.certificates.(neighbor_slot) in
  if not (Setup.verify_certificate setup cert) then
    raise (Bad_certificate { receiver; neighbor_slot });
  {
    receiver;
    neighbor_slot;
    combs =
      Array.map (Array.map (Group.comb grp ~teeth:Setup.key_teeth)) cert.Setup.member_keys;
  }

(* One attempt of the transfer either delivers decrypted values (with the
   positions that missed the lookup table) or is killed in flight by an
   injected drop/corruption, which the receiver detects (timeout or failed
   integrity check) without learning anything. *)
type 'a attempt_status = Killed | Decrypted of 'a

let transfer ?(recovery = no_recovery) ?inject ?(obs = Obs.off) ?keys:installed params ~prg
    ~noise ~traffic ~variant ~setup ~sender ~receiver ~neighbor_slot ~shares =
  let grp = setup.Setup.grp in
  let l = setup.Setup.bits in
  let kp1 = setup.Setup.k + 1 in
  let bi = Setup.block_of setup sender and bj = Setup.block_of setup receiver in
  if Array.length shares <> kp1 then invalid_arg "Protocol.transfer: wrong share count";
  Array.iter
    (fun s -> if Bitvec.length s <> l then invalid_arg "Protocol.transfer: share width")
    shares;
  if neighbor_slot < 0 || neighbor_slot >= setup.Setup.degree_bound then
    invalid_arg "Protocol.transfer: bad neighbor slot";
  if recovery.max_retries < 0 then invalid_arg "Protocol.transfer: max_retries < 0";
  let member_keys =
    match installed with
    | None -> (keys setup ~receiver ~neighbor_slot).combs
    | Some k ->
        if k.receiver <> receiver || k.neighbor_slot <> neighbor_slot then
          invalid_arg "Protocol.transfer: keys of another certificate";
        k.combs
  in
  let r = setup.Setup.nodes.(receiver).neighbor_keys.(neighbor_slot) in
  (* j adjusts an ephemeral to its neighbor key; the comb table of the
     result serves every decryption under it. *)
  let adjust c1 = Group.comb grp ~teeth:ephemeral_teeth (Group.pow grp c1 r) in
  let ebytes = Group.element_bytes grp in
  let multi_bytes l = (l + 1) * ebytes in
  let secret_of y t = setup.Setup.nodes.(bj.(y)).keys.Keys.secrets.(t) in
  let zero_shares () = Array.init kp1 (fun _ -> Bitvec.create l false) in
  let killed = function Some Drop_attempt | Some Corrupt_attempt -> true | _ -> false in
  let forced inj ~member ~bit =
    match inj with Some (Force_miss m) -> m.member = member && m.bit = bit | _ -> false
  in
  (* Run the whole protocol once with fresh randomness: new subshares, new
     ephemerals, and (for Final) newly drawn geometric noise. *)
  let attempt ~table ~inject =
    let missed = ref [] in
    (* Batched decryption of one member's L-bit bundle (all ciphertexts
       share an already-adjusted ephemeral part, given as its comb table):
       the blindings [c1^x_t] come from the table and the unblinding
       inverses from one batch inversion. Injected misses overwrite the
       decrypted value, so the missed-position order (bit ascending)
       matches the scalar loop. *)
    let dec_bundle ~member ~c1 c2s =
      let pairs = Array.mapi (fun bit c2 -> (secret_of member bit, c2)) c2s in
      let results = Exp_elgamal.decrypt_shared grp table ~c1 pairs in
      Array.mapi
        (fun bit r ->
          let r = if forced inject ~member ~bit then None else r in
          match r with
          | Some v -> v
          | None ->
              missed := { member; bit } :: !missed;
              0)
        results
    in
    match variant with
    | Strawman1 ->
        (* Member x of B_i encrypts its own share, bit by bit, to the x-th
           member of B_j. One batched call for the whole block (ephemerals
           drawn in member order, as a scalar loop would). *)
        let bundles =
          Exp_elgamal.encrypt_multi_batch prg grp
            (Array.mapi
               (fun x share ->
                 List.init l (fun t ->
                     (member_keys.(x).(t), if Bitvec.get share t then 1 else 0)))
               shares)
        in
        Array.iteri
          (fun x _ -> Traffic.add traffic ~src:bi.(x) ~dst:sender (multi_bytes l))
          bundles;
        Traffic.add traffic ~src:sender ~dst:receiver (kp1 * multi_bytes l);
        if killed inject then (zero_shares (), Killed, None)
        else begin
          (* j adjusts every ephemeral and forwards each bundle to its
             member. *)
          let new_shares =
            Array.mapi
              (fun y (c1, c2s) ->
                Traffic.add traffic ~src:receiver ~dst:bj.(y) (multi_bytes l);
                let vals = dec_bundle ~member:y ~c1:(adjust c1) (Array.of_list c2s) in
                Bitvec.init l (fun t -> vals.(t) = 1))
              bundles
          in
          (new_shares, Decrypted (List.rev !missed), None)
        end
    | Strawman2 | Strawman3 | Final ->
        (* Every member x splits its share into k+1 subshares (one per
           recipient) and encrypts all (k+1)*L bits under one ephemeral.
           All bundles of an attempt address the same (k+1)*L member keys,
           so the whole attempt is one batched encryption call that groups
           the h^y work per key across bundles. The subshares and then the
           ephemerals are drawn in member order, exactly as the scalar
           loop drew them. *)
        let subshares = Array.map (fun s -> Sharing.subshare prg ~parties:kp1 s) shares in
        let recipient_lists =
          Array.mapi
            (fun x _ ->
              List.concat
                (List.init kp1 (fun y ->
                     List.init l (fun t ->
                         ( member_keys.(y).(t),
                           if Bitvec.get subshares.(x).(y) t then 1 else 0 )))))
            shares
        in
        let charge_senders () =
          Array.iteri
            (fun x _ -> Traffic.add traffic ~src:bi.(x) ~dst:sender (multi_bytes (kp1 * l)))
            shares
        in
        let c2_of (_, c2s) y t = List.nth c2s ((y * l) + t) in
        let finish_shared_sums c1_combined c2_combined =
          (* j adjusts the single combined ephemeral and hands each member
             its L summed ciphertexts; one comb table of the adjusted
             ephemeral serves every member's shared-c1 batch. *)
          Traffic.add traffic ~src:sender ~dst:receiver (multi_bytes (kp1 * l));
          if killed inject then (zero_shares (), Killed, None)
          else begin
            let c1_adjusted = adjust c1_combined in
            let sums =
              Array.init kp1 (fun y ->
                  Traffic.add traffic ~src:receiver ~dst:bj.(y) (multi_bytes l);
                  dec_bundle ~member:y ~c1:c1_adjusted c2_combined.(y))
            in
            let new_shares =
              Array.map (fun row -> Bitvec.init l (fun t -> parity row.(t))) sums
            in
            (new_shares, Decrypted (List.rev !missed), Some sums)
          end
        in
        let strawman2 bundles =
          (* i forwards every bundle unchanged; j adjusts every ephemeral
             (one comb table each, shared by the k+1 recipients); each
             recipient decrypts k+1 subshare bundles and XORs them. *)
          Traffic.add traffic ~src:sender ~dst:receiver (kp1 * multi_bytes (kp1 * l));
          if killed inject then (zero_shares (), Killed, None)
          else begin
            let c1s = Array.map (fun (c1, _) -> adjust c1) bundles in
            let new_shares =
              Array.init kp1 (fun y ->
                  Traffic.add traffic ~src:receiver ~dst:bj.(y) (kp1 * multi_bytes l);
                  let received =
                    Array.mapi
                      (fun x bundle ->
                        let vals =
                          dec_bundle ~member:y ~c1:c1s.(x)
                            (Array.init l (fun t -> c2_of bundle y t))
                        in
                        Bitvec.init l (fun t -> vals.(t) = 1))
                      bundles
                  in
                  Bitvec.xor_all (Array.to_list received))
            in
            (new_shares, Decrypted (List.rev !missed), None)
          end
        in
        let combined bundles =
          (* i homomorphically sums the per-bit ciphertexts across the k+1
             senders; the shared ephemerals multiply into a single one. *)
          let c1_senders =
            Array.fold_left (fun acc (c1, _) -> Group.mul grp acc c1) Dstress_bignum.Nat.one
              bundles
          in
          let combined_c2 =
            Array.init kp1 (fun y ->
                Array.init l (fun t ->
                    Array.fold_left
                      (fun acc bundle -> Group.mul grp acc (c2_of bundle y t))
                      Dstress_bignum.Nat.one bundles))
          in
          (c1_senders, combined_c2)
        in
        (match variant with
        | Strawman2 ->
            let bundles = Exp_elgamal.encrypt_multi_batch prg grp recipient_lists in
            charge_senders ();
            strawman2 bundles
        | Strawman3 ->
            let bundles = Exp_elgamal.encrypt_multi_batch prg grp recipient_lists in
            charge_senders ();
            let c1, c2 = combined bundles in
            finish_shared_sums c1 c2
        | Final ->
            (* i additionally encrypts an even geometric noise term for
               every (recipient, bit) under one more shared ephemeral and
               multiplies it in. The noise bundle rides in the same batched
               encryption as the share bundles (it addresses the same
               keys); its values come from the independent [noise] stream,
               drawn in the same (member, bit) order as before, and the
               ephemerals still leave [prg] in bundle order — so both
               streams yield the values the unbatched code drew. *)
            let noise_values =
              Array.init kp1 (fun _ ->
                  Array.init l (fun _ ->
                      Mechanism.transfer_noise noise ~alpha:params.alpha ~delta:kp1))
            in
            let noise_recipients =
              List.concat
                (List.init kp1 (fun y ->
                     List.init l (fun t ->
                         (member_keys.(y).(t), noise_values.(y).(t)))))
            in
            let all =
              Exp_elgamal.encrypt_multi_batch prg grp
                (Array.append recipient_lists [| noise_recipients |])
            in
            let bundles = Array.sub all 0 kp1 in
            let noise_c1, noise_c2s = all.(kp1) in
            charge_senders ();
            let c1_senders, combined_c2 = combined bundles in
            let c1_combined = Group.mul grp c1_senders noise_c1 in
            let noised_c2 =
              Array.mapi
                (fun y row ->
                  Array.mapi
                    (fun t c2 -> Group.mul grp c2 (List.nth noise_c2s ((y * l) + t)))
                    row)
                combined_c2
            in
            finish_shared_sums c1_combined noised_c2
        | Strawman1 -> assert false)
  in
  (* Recovery driver: retry with fresh randomness while decryptions miss
     the table (or the attempt was lost in flight); the last attempt may
     escalate to a widened lookup table. Every retry that re-releases
     decrypted sums is charged to the edge-privacy budget. *)
  let has_escalation = recovery.escalation_table <> None in
  let max_attempts = 1 + recovery.max_retries + if has_escalation then 1 else 0 in
  let all_missing =
    List.concat (List.init kp1 (fun member -> List.init l (fun bit -> { member; bit })))
  in
  (* Observability wrapper around one attempt: a span whose simulated
     duration is exactly the bytes the attempt put on the wire. [obs] is
     this edge task's private collector, so emission here is
     deterministic under any executor. *)
  let metered_attempt ~table ~inject idx =
    (* Traffic.total is O(parties^2): only pay for the before/after delta
       when the collector is live. *)
    if not (Obs.enabled obs) then attempt ~table ~inject
    else begin
      let before = Traffic.total traffic in
      Obs.enter obs (Printf.sprintf "attempt:%d" idx);
      Obs.incr obs "transfer.attempts";
      let result = attempt ~table ~inject in
      Obs.advance obs (Traffic.total traffic - before);
      Obs.leave obs;
      result
    end
  in
  let finalize ~retries ~revealed ~failures result =
    let extra_epsilon =
      match variant with
      | Final ->
          Edge_privacy.retry_epsilon ~alpha:params.alpha ~k:setup.Setup.k ~bits:l
            ~retries:(max 0 (revealed - 1))
      | Strawman1 | Strawman2 | Strawman3 -> 0.0
    in
    let outcome =
      match result with
      | Killed ->
          (* The message never arrived: the receiver's block keeps no-op
             (all-zero) shares and every position is flagged unrecovered. *)
          {
            shares = zero_shares ();
            failures;
            misses = all_missing;
            retries;
            recovered = failures;
            unrecovered = kp1 * l;
            extra_epsilon;
            sums = None;
          }
      | Decrypted (new_shares, misses, sums) ->
          let unrecovered = List.length misses in
          {
            shares = new_shares;
            failures;
            misses;
            retries;
            recovered = failures - unrecovered;
            unrecovered;
            extra_epsilon;
            sums;
          }
    in
    Obs.incr obs ~by:outcome.failures "transfer.failures";
    Obs.incr obs ~by:outcome.recovered "transfer.recovered";
    Obs.incr obs ~by:outcome.unrecovered "transfer.unrecovered";
    Obs.incr obs ~by:outcome.retries "transfer.retries";
    outcome
  in
  let rec go attempt_idx ~failures ~revealed =
    let inject = if attempt_idx = 0 then inject else None in
    let table =
      if attempt_idx > recovery.max_retries then
        match recovery.escalation_table with
        | Some t -> Lazy.force t
        | None -> params.table
      else params.table
    in
    let new_shares, status, sums = metered_attempt ~table ~inject attempt_idx in
    match status with
    | Killed ->
        if attempt_idx + 1 < max_attempts then go (attempt_idx + 1) ~failures ~revealed
        else finalize ~retries:attempt_idx ~revealed ~failures Killed
    | Decrypted misses ->
        let failures = failures + List.length misses in
        let revealed = revealed + 1 in
        if misses = [] || attempt_idx + 1 >= max_attempts then
          finalize ~retries:attempt_idx ~revealed ~failures
            (Decrypted (new_shares, misses, sums))
        else go (attempt_idx + 1) ~failures ~revealed
  in
  go 0 ~failures:0 ~revealed:0
