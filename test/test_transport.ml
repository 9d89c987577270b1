(* The daemon's wire layer and its failure detector.

   Layers under test:

   - Transport: the v3 frame layout and round-trips (magic/version/CRC)
     over socketpairs, named sockets and TCP, per-operation deadlines,
     and bounded jittered-backoff connect;
   - Failure_detector: suspicion timeline under an injected clock —
     fully deterministic, no sleeps.

   The worker pool built on both (Supervisor: fork, heartbeats,
   fail-stop loss, respawn, wire faults) is tested through the daemon's
   persistent pool in test_service.ml. *)

module Hex = Dstress_util.Hex
module Metrics = Dstress_obs.Obs.Metrics
open Dstress_runtime

(* ------------------------------------------------------------------ *)
(* Transport framing                                                   *)
(* ------------------------------------------------------------------ *)

(* Read exactly [len] bytes off a non-blocking socket, bypassing the
   transport's framing. *)
let read_raw fd len =
  let buf = Bytes.create len in
  let got = ref 0 in
  while !got < len do
    (match Unix.select [ fd ] [] [] 2.0 with
    | [], _, _ -> Alcotest.fail "no bytes to capture"
    | _ -> ());
    match Unix.read fd buf !got (len - !got) with
    | 0 -> Alcotest.fail "EOF while capturing a frame"
    | n -> got := !got + n
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  done;
  buf

let test_frame_roundtrip () =
  let m = Metrics.create () in
  let a, b = Transport.pair ~metrics:m () in
  let payload = Bytes.of_string "forty-two" in
  Transport.send a ~kind:Transport.Kind.task ~trace:0x0102030405060708L payload;
  (* The v3 layout, pinned off the wire: a 24-byte little-endian header,
     then the payload. *)
  let frame = read_raw (Transport.fd b) (24 + Bytes.length payload) in
  Alcotest.(check bytes)
    "v3 header"
    (Hex.decode
       ("44535452" (* magic "DSTR" *) ^ "03" (* version *) ^ "03" (* kind: task *)
       ^ "0000" (* pad *) ^ "0807060504030201" (* trace *) ^ "09000000" (* length *)
       ^ "6b76ee63" (* CRC-32 of the payload *)))
    (Bytes.sub frame 0 24);
  Alcotest.(check int) "bytes counted" (Bytes.length frame)
    (Metrics.counter m "transport.bytes_sent");
  (* The captured bytes decode back to the frame that was sent. *)
  ignore (Unix.write (Transport.fd a) frame 0 (Bytes.length frame));
  (match Transport.recv b ~timeout:1.0 with
  | Some fr ->
      Alcotest.(check int) "kind" Transport.Kind.task fr.Transport.kind;
      Alcotest.(check int64) "trace" 0x0102030405060708L fr.Transport.trace;
      Alcotest.(check string) "payload" "forty-two" (Bytes.to_string fr.Transport.payload)
  | None -> Alcotest.fail "frame did not arrive");
  Transport.send a ~kind:Transport.Kind.ping Bytes.empty;
  (match Transport.recv b ~timeout:1.0 with
  | Some fr ->
      Alcotest.(check int64) "no trace" 0L fr.Transport.trace;
      Alcotest.(check int) "empty payload" 0 (Bytes.length fr.Transport.payload)
  | None -> Alcotest.fail "second frame did not arrive");
  Alcotest.(check int) "frames counted" 2 (Metrics.counter m "transport.frames_sent");
  Transport.close a;
  Transport.close b

let test_recv_timeout_and_eof () =
  let a, b = Transport.pair () in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "empty recv times out to None" true
    (Transport.recv b ~timeout:0.05 = None);
  Alcotest.(check bool) "timeout respected" true (Unix.gettimeofday () -. t0 < 1.0);
  Transport.close a;
  (match Transport.recv b ~timeout:0.5 with
  | exception Transport.Error (Transport.Closed _) -> ()
  | _ -> Alcotest.fail "EOF must raise Closed");
  Transport.close b

let test_recv_zero_timeout_reads_ready_frame () =
  (* Every post-select drain polls with [~timeout:0.0]: once select has
     proved the socket readable, that poll must return the frame. *)
  let a, b = Transport.pair () in
  let misses = ref 0 in
  for _ = 1 to 5000 do
    Transport.send a ~kind:Transport.Kind.task Bytes.empty;
    ignore (Unix.select [ Transport.fd b ] [] [] 1.0);
    if Transport.recv b ~timeout:0.0 = None then begin
      incr misses;
      ignore (Transport.recv b ~timeout:1.0)
    end
  done;
  Alcotest.(check int) "no readable frame skipped" 0 !misses;
  Transport.close a;
  Transport.close b

let test_integrity_rejected () =
  let a, b = Transport.pair () in
  (* Write garbage straight onto the socket: the header check must refuse
     it rather than interpret it. *)
  let junk = Bytes.of_string "XXXXGARBAGEGARBAGEGARBAGEGARBAGEGARBAGE" in
  ignore (Unix.write (Transport.fd a) junk 0 (Bytes.length junk));
  (match Transport.recv b ~timeout:1.0 with
  | exception Transport.Error (Transport.Integrity msg) ->
      Alcotest.(check string) "bad magic detected" "bad magic" msg
  | _ -> Alcotest.fail "garbage must raise Integrity");
  Alcotest.(check int) "framing error counted" 1
    (Metrics.counter (Transport.metrics b) "transport.framing_errors");
  Transport.close a;
  Transport.close b

let test_connect_backoff_bounded () =
  let m = Metrics.create () in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "dstress-no-such.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let t0 = Unix.gettimeofday () in
  (match Transport.connect ~metrics:m ~attempts:3 ~backoff:0.005 ~path () with
  | exception Transport.Error (Transport.Timeout _) -> ()
  | _ -> Alcotest.fail "connect to nothing must raise Timeout");
  Alcotest.(check bool) "bounded retry returns promptly" true
    (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check int) "three attempts" 3 (Metrics.counter m "transport.connect_attempts");
  Alcotest.(check int) "two backoff sleeps" 2 (Metrics.counter m "transport.backoff_sleeps");
  Alcotest.(check bool) "sleep time recorded" true
    (Metrics.sum m "transport.backoff_sleep_s" > 0.0)

let test_named_socket_roundtrip () =
  let m = Metrics.create () in
  let dir = Filename.get_temp_dir_name () in
  let path = Filename.concat dir (Printf.sprintf "dstress-test-%d.sock" (Unix.getpid ())) in
  let lfd = Transport.listen ~path in
  let expect what conn ~kind payload =
    match Transport.recv conn ~timeout:1.0 with
    | Some fr ->
        Alcotest.(check int) (what ^ " kind") kind fr.Transport.kind;
        Alcotest.(check string) (what ^ " payload") payload
          (Bytes.to_string fr.Transport.payload)
    | None -> Alcotest.fail (what ^ ": no frame")
  in
  (* Two connections in turn on one listener, each carrying frames both
     ways, in order. *)
  for _ = 1 to 2 do
    let client = Transport.connect ~metrics:m ~path () in
    let server = Transport.accept ~deadline:2.0 lfd in
    Transport.send client ~kind:Transport.Kind.task (Bytes.of_string "a");
    Transport.send client ~kind:Transport.Kind.task (Bytes.of_string "b");
    expect "client a" server ~kind:Transport.Kind.task "a";
    expect "client b" server ~kind:Transport.Kind.task "b";
    Transport.send server ~kind:Transport.Kind.result (Bytes.of_string "ok");
    expect "server reply" client ~kind:Transport.Kind.result "ok";
    Transport.close server;
    (match Transport.recv client ~timeout:1.0 with
    | exception Transport.Error (Transport.Closed _) -> ()
    | _ -> Alcotest.fail "server close must reach the client as Closed");
    Transport.close client
  done;
  Alcotest.(check int) "one attempt per connection" 2
    (Metrics.counter m "transport.connect_attempts");
  Alcotest.(check int) "no retries" 0 (Metrics.counter m "transport.reconnects");
  Unix.close lfd;
  (try Unix.unlink path with Unix.Unix_error _ -> ())

(* Listen never takes a path over: a live listener's socket and a file
   that is not a socket both stay, and only the socket file of a
   listener that died is replaced. *)
let test_listen_takes_only_stale_sockets () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dstress-listen-%d.sock" (Unix.getpid ()))
  in
  let refused what =
    match Transport.listen ~path with
    | fdesc ->
        Unix.close fdesc;
        Alcotest.failf "listen over %s must fail" what
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ()
  in
  let round_trip lfd payload =
    let client = Transport.connect ~attempts:1 ~path () in
    let server = Transport.accept ~deadline:2.0 lfd in
    Transport.send client ~kind:Transport.Kind.ping (Bytes.of_string payload);
    (match Transport.recv server ~timeout:1.0 with
    | Some fr -> Alcotest.(check string) payload payload (Bytes.to_string fr.Transport.payload)
    | None -> Alcotest.fail (payload ^ ": no frame"));
    Transport.close client;
    Transport.close server
  in
  Fun.protect
    ~finally:(fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let first = Transport.listen ~path in
      refused "a live socket";
      (* The refused listen probed the path: the live listener sees one
         connection that hangs up at once. *)
      let probe = Transport.accept ~deadline:2.0 first in
      (match Transport.recv probe ~timeout:1.0 with
      | exception Transport.Error (Transport.Closed _) -> ()
      | _ -> Alcotest.fail "the probe must hang up");
      Transport.close probe;
      round_trip first "first listener still accepts";
      (* The listener dies without unlinking: its file is stale. *)
      Unix.close first;
      let second = Transport.listen ~path in
      round_trip second "stale socket replaced";
      Unix.close second;
      Unix.unlink path;
      Out_channel.with_open_bin path (fun oc -> output_string oc "not a socket");
      refused "a regular file";
      Alcotest.(check string) "regular file untouched" "not a socket"
        (In_channel.with_open_bin path In_channel.input_all))

let contains_substring ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* TCP listener/connector: same frames, same deadline semantics        *)
(* ------------------------------------------------------------------ *)

let test_tcp_roundtrip () =
  let m = Metrics.create () in
  let lfd, port = Transport.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let client = Transport.connect_tcp ~metrics:m ~host:"127.0.0.1" ~port () in
  let server = Transport.accept ~deadline:2.0 lfd in
  Transport.send client ~kind:Transport.Kind.request (Bytes.of_string "over tcp");
  (match Transport.recv server ~timeout:2.0 with
  | Some fr ->
      Alcotest.(check int) "kind" Transport.Kind.request fr.Transport.kind;
      Alcotest.(check string) "payload survives CRC" "over tcp"
        (Bytes.to_string fr.Transport.payload)
  | None -> Alcotest.fail "frame did not arrive over TCP");
  Transport.send server ~kind:Transport.Kind.response (Bytes.of_string "back");
  (match Transport.recv client ~timeout:2.0 with
  | Some fr -> Alcotest.(check string) "reply" "back" (Bytes.to_string fr.Transport.payload)
  | None -> Alcotest.fail "reply did not arrive over TCP");
  (* Both ends of the loopback connection got TCP_NODELAY. *)
  Alcotest.(check bool) "client nodelay" true
    (Unix.getsockopt (Transport.fd client) Unix.TCP_NODELAY);
  Alcotest.(check bool) "server nodelay" true
    (Unix.getsockopt (Transport.fd server) Unix.TCP_NODELAY);
  Alcotest.(check int) "one connect attempt" 1 (Metrics.counter m "transport.connect_attempts");
  Transport.close client;
  Transport.close server;
  Unix.close lfd

let test_tcp_accept_deadline () =
  (* A listener nobody connects to: accept must expire at its deadline —
     the exact behavior the daemon's select loop leans on — not hang. *)
  let lfd, _port = Transport.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  let t0 = Unix.gettimeofday () in
  (match Transport.accept ~deadline:0.1 lfd with
  | exception Transport.Error (Transport.Timeout what) ->
      Alcotest.(check string) "typed accept timeout" "accept" what
  | _ -> Alcotest.fail "accept with no client must raise Timeout");
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "deadline respected" true (elapsed >= 0.09 && elapsed < 1.0);
  Unix.close lfd

let test_tcp_connect_backoff_bounded () =
  (* Bind then close to get a port that actively refuses connections;
     the retry loop must pay the same bounded, counted backoff as the
     Unix-socket connector. *)
  let lfd, port = Transport.listen_tcp ~host:"127.0.0.1" ~port:0 () in
  Unix.close lfd;
  let m = Metrics.create () in
  let t0 = Unix.gettimeofday () in
  (match Transport.connect_tcp ~metrics:m ~attempts:3 ~backoff:0.005 ~host:"127.0.0.1" ~port () with
  | exception Transport.Error (Transport.Timeout _) -> ()
  | _ -> Alcotest.fail "connect to a closed port must raise Timeout");
  Alcotest.(check bool) "bounded retry returns promptly" true
    (Unix.gettimeofday () -. t0 < 2.0);
  Alcotest.(check int) "three attempts" 3 (Metrics.counter m "transport.connect_attempts");
  Alcotest.(check int) "two backoff sleeps" 2 (Metrics.counter m "transport.backoff_sleeps");
  Alcotest.(check bool) "sleep time recorded" true
    (Metrics.sum m "transport.backoff_sleep_s" > 0.0);
  (* Unknown host is not transient: typed Closed, no retry burn. *)
  match Transport.connect_tcp ~host:"no-such-host-dstress.invalid" ~port:1 () with
  | exception Transport.Error (Transport.Closed msg) ->
      Alcotest.(check bool) "names the host" true
        (contains_substring ~sub:"no-such-host-dstress.invalid" msg)
  | _ -> Alcotest.fail "unresolvable host must raise Closed"

(* ------------------------------------------------------------------ *)
(* Failure detector (injected clock — no sleeps)                       *)
(* ------------------------------------------------------------------ *)

let test_detector_suspicion_timeline () =
  let det = Failure_detector.create ~expected_interval:0.1 in
  Alcotest.(check (float 0.0)) "silent before start" 0.0
    (Failure_detector.suspicion det ~now:100.0);
  Failure_detector.start det ~now:0.0;
  Alcotest.(check bool) "grace period" false (Failure_detector.suspected det ~now:0.5);
  Alcotest.(check bool) "no hello ever -> suspected" true
    (Failure_detector.suspected det ~now:1.0);
  let det = Failure_detector.create ~expected_interval:0.1 in
  Failure_detector.start det ~now:0.0;
  (* Regular heartbeats keep suspicion near 1. *)
  for i = 1 to 20 do
    Failure_detector.observe det ~now:(0.1 *. float_of_int i)
  done;
  Alcotest.(check bool) "healthy peer low" true
    (Failure_detector.suspicion det ~now:2.1 < 2.0);
  (* Suspicion is the silence since the last arrival over the estimate. *)
  Alcotest.(check (float 0.0)) "last heard at 2.0" 0.0
    (Failure_detector.suspicion det ~now:2.0);
  Alcotest.(check bool) "estimate near interval" true
    (abs_float ((1.0 /. Failure_detector.suspicion det ~now:3.0) -. 0.1) < 0.02);
  (* Then silence: suspicion crosses phi after ~phi * interval. *)
  Alcotest.(check bool) "not yet" false (Failure_detector.suspected det ~now:2.5);
  Alcotest.(check bool) "suspected after silence" true
    (Failure_detector.suspected det ~now:3.0)

let test_detector_burst_floor_and_clamp () =
  let det = Failure_detector.create ~expected_interval:0.1 in
  Failure_detector.start det ~now:0.0;
  (* A burst of instant heartbeats must not collapse the estimate below
     the floor (expected/4) and hair-trigger the detector... *)
  for _ = 1 to 50 do
    Failure_detector.observe det ~now:1.0
  done;
  Alcotest.(check bool) "estimate floored" true
    (Failure_detector.suspicion det ~now:2.0 <= (1.0 /. 0.025) +. 1e-6);
  Alcotest.(check bool) "no hair trigger" false (Failure_detector.suspected det ~now:1.1);
  (* ...and a non-monotone arrival is clamped, never a negative gap. *)
  Failure_detector.observe det ~now:0.5;
  Alcotest.(check bool) "clock step clamped" true
    (Failure_detector.suspicion det ~now:1.0 >= 0.0)

let () =
  Alcotest.run "transport"
    [
      ( "framing",
        [
          Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "recv timeout and EOF" `Quick test_recv_timeout_and_eof;
          Alcotest.test_case "poll returns a ready frame" `Quick
            test_recv_zero_timeout_reads_ready_frame;
          Alcotest.test_case "integrity rejected" `Quick test_integrity_rejected;
          Alcotest.test_case "connect backoff bounded" `Quick test_connect_backoff_bounded;
          Alcotest.test_case "named socket round-trip" `Quick test_named_socket_roundtrip;
          Alcotest.test_case "listen takes only stale sockets" `Quick
            test_listen_takes_only_stale_sockets;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "loopback round-trip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "accept deadline expiry" `Quick test_tcp_accept_deadline;
          Alcotest.test_case "connect backoff bounded" `Quick test_tcp_connect_backoff_bounded;
        ] );
      ( "failure detector",
        [
          Alcotest.test_case "suspicion timeline" `Quick test_detector_suspicion_timeline;
          Alcotest.test_case "burst floor and clamp" `Quick test_detector_burst_floor_and_clamp;
        ] );
    ]
