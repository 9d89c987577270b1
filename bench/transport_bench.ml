(* Wire-layer cost of the daemon's transport: frame round-trip latency
   (in-process loopback and against a real forked echo process), the
   connect/accept path, and bounded-backoff cost against a dead socket.
   What a whole pool dispatch costs is the service suite's
   persistent-dispatch row.

   The cost model (lib/costmodel) projects end-to-end runs assuming the
   network adds no latency beyond the bytes themselves; the RTT rows
   here are the measured correction term for that assumption on a local
   Unix socket (see EXPERIMENTS.md, "Transport"). Counters emitted by
   every row (frames, attempts, sleeps, zero integrity failures) are
   deterministic and gated by bench_diff --counters-only; the latencies
   are machine-dependent telemetry. *)

open Bench_util
module Transport = Dstress_runtime.Transport
module Metrics = Dstress_obs.Obs.Metrics

let payload_bytes = 64

(* One in-process round trip: coordinator frame out, echo frame back.
   No scheduler handoff — this isolates framing + CRC + syscall cost. *)
let bench_loopback ~pings =
  let m = Metrics.create () in
  let a, b = Transport.pair ~metrics:m () in
  let payload = Bytes.make payload_bytes 'x' in
  let roundtrips () =
    let f0 = Metrics.counter m "transport.frames_sent" in
    for _ = 1 to pings do
      ignore (Transport.send a ~kind:Transport.Kind.ping ~epoch:0 payload);
      (match Transport.recv b ~timeout:5.0 with
      | Some fr -> ignore (Transport.send b ~kind:Transport.Kind.echo ~epoch:0 fr.Transport.payload)
      | None -> failwith "transport_bench: loopback ping lost");
      match Transport.recv a ~timeout:5.0 with
      | Some _ -> ()
      | None -> failwith "transport_bench: loopback echo lost"
    done;
    Metrics.counter m "transport.frames_sent" - f0
  in
  let frames =
    measure ~repeats:3 ~warmup:1 ~name:"rtt-loopback"
      ~params:[ ("payload_bytes", Dstress_obs.Json.Int payload_bytes) ]
      ~items:("rtt", float_of_int pings)
      ~telemetry:(fun frames ->
        ( [
            ("frames_per_run", frames);
            ("crc_failures", Metrics.counter m "transport.crc_failures");
            ("framing_errors", Metrics.counter m "transport.framing_errors");
          ],
          [] ))
      roundtrips
  in
  Transport.close a;
  Transport.close b;
  Printf.printf "loopback: %d round trips per run, %d frames, clean wire\n%!" pings frames

(* The same ping/echo against a forked worker: a real process boundary
   and scheduler handoff per direction — the floor under every pool
   dispatch. *)
let bench_process_echo ~pings =
  let m = Metrics.create () in
  let a, b = Transport.pair ~metrics:m () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try Unix.close (Transport.fd a) with Unix.Unix_error _ -> ());
      let rec loop () =
        match Transport.recv b ~timeout:30.0 with
        | None -> Unix._exit 1
        | Some fr when fr.Transport.kind = Transport.Kind.shutdown -> Unix._exit 0
        | Some fr ->
            ignore (Transport.send b ~kind:Transport.Kind.echo ~epoch:0 fr.Transport.payload);
            loop ()
      in
      (try loop () with _ -> Unix._exit 1)
  | pid ->
      (try Unix.close (Transport.fd b) with Unix.Unix_error _ -> ());
      let payload = Bytes.make payload_bytes 'x' in
      let roundtrips () =
        for _ = 1 to pings do
          ignore (Transport.send a ~kind:Transport.Kind.ping ~epoch:0 payload);
          match Transport.recv a ~timeout:10.0 with
          | Some _ -> ()
          | None -> failwith "transport_bench: process echo lost"
        done;
        pings
      in
      let _ =
        measure ~repeats:3 ~warmup:1 ~name:"rtt-process"
          ~params:[ ("payload_bytes", Dstress_obs.Json.Int payload_bytes) ]
          ~items:("rtt", float_of_int pings)
          ~telemetry:(fun n ->
            ( [
                ("roundtrips_per_run", n);
                ("crc_failures", Metrics.counter m "transport.crc_failures");
                ("dup_dropped", Metrics.counter m "transport.dup_dropped");
              ],
              [] ))
          roundtrips
      in
      ignore (Transport.send a ~kind:Transport.Kind.shutdown ~epoch:0 Bytes.empty);
      ignore (Unix.waitpid [] pid);
      Transport.close a;
      Printf.printf "process echo: %d round trips per run across a fork boundary\n%!" pings

(* Named-socket connect/accept, as a daemon client pays it, and the
   bounded-backoff path against a socket that does not exist — what a
   client spends giving up on a daemon that is not there. *)
let bench_connect ~conns =
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "dstress-bench-%d.sock" (Unix.getpid ())) in
  let lfd = Transport.listen ~path in
  let m = Metrics.create () in
  let connect_cycle () =
    for _ = 1 to conns do
      let c = Transport.connect ~metrics:m ~attempts:1 ~path () in
      let s = Transport.accept ~deadline:5.0 lfd in
      Transport.close c;
      Transport.close s
    done;
    conns
  in
  let _ =
    measure ~repeats:3 ~warmup:1 ~name:"connect-accept"
      ~items:("conn", float_of_int conns)
      ~telemetry:(fun n -> ([ ("conns_per_run", n) ], []))
      connect_cycle
  in
  Unix.close lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* Dead peer: every attempt fails, every retry sleeps. The counters pin
     the retry policy (attempts, sleeps); the wall row prices it. *)
  let dead = Filename.concat dir (Printf.sprintf "dstress-bench-dead-%d.sock" (Unix.getpid ())) in
  (try Unix.unlink dead with Unix.Unix_error _ -> ());
  let md = Metrics.create () in
  let attempts = 3 in
  let failed_connect () =
    let a0 = Metrics.counter md "transport.connect_attempts" in
    (match Transport.connect ~metrics:md ~attempts ~backoff:0.002 ~path:dead () with
    | _ -> failwith "transport_bench: connect to a dead socket succeeded"
    | exception Transport.Error (Transport.Timeout _) -> ());
    Metrics.counter md "transport.connect_attempts" - a0
  in
  let per_give_up =
    measure ~repeats:3 ~name:"connect-backoff-dead"
      ~telemetry:(fun a ->
        ( [ ("attempts_per_give_up", a); ("sleeps_per_give_up", a - 1) ],
          [ ("backoff_sleep_s_total", Metrics.sum md "transport.backoff_sleep_s") ] ))
      failed_connect
  in
  Printf.printf
    "connect: %d accept cycles per run; giving up on a dead peer costs %d attempts\n%!"
    conns per_give_up

let run ~quick () =
  header "Transport: RTT and connect/backoff cost";
  let pings = if quick then 300 else 3000 in
  let conns = if quick then 20 else 100 in
  bench_loopback ~pings;
  bench_process_echo ~pings;
  bench_connect ~conns;
  Printf.printf
    "\nnote: lib/costmodel projections assume a zero-latency wire; the rtt rows\n\
     above are the measured per-frame correction on a local Unix socket.\n"
