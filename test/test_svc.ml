(* The service layer: framing, protocol codecs, the bounded queue, and
   in-process end-to-end runs of the job server — backpressure, deadlines,
   graceful drain, events and metrics. *)

module J = Obs.Json
module P = Svc.Protocol

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/wfa-test-%d-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

(* ------------------------------------------------------------- framing *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ ""; "x"; String.make 100_000 'y'; "{\"v\":1}" ] in
  let writer = Thread.create (fun () -> List.iter (Svc.Frame.write a) payloads) () in
  List.iter
    (fun expect ->
      match Svc.Frame.read b with
      | Ok got -> check_string "payload" expect got
      | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e))
    payloads;
  Thread.join writer;
  Unix.close a;
  (match Svc.Frame.read b with
  | Error Svc.Frame.Eof -> ()
  | _ -> Alcotest.fail "expected Eof at clean boundary");
  Unix.close b

let test_frame_oversized_keeps_sync () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = String.make 100_000 'z' in
  let writer =
    Thread.create
      (fun () ->
        Svc.Frame.write a big;
        Svc.Frame.write a "next";
        Unix.close a)
      ()
  in
  (match Svc.Frame.read ~max_len:1024 b with
  | Error (Svc.Frame.Oversized n) -> check_int "announced length" 100_000 n
  | _ -> Alcotest.fail "expected Oversized");
  (* the oversized payload was discarded: the stream is still framed *)
  (match Svc.Frame.read ~max_len:1024 b with
  | Ok got -> check_string "next frame" "next" got
  | Error e -> Alcotest.failf "read after oversized: %s" (Svc.Frame.error_string e));
  Thread.join writer;
  Unix.close b

let test_frame_desynced () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* top bit set: announces a length no writer can produce, nothing to skip *)
  let hdr = Bytes.of_string "\x80\x00\x00\x01garbage" in
  ignore (Unix.write a hdr 0 (Bytes.length hdr));
  (match Svc.Frame.read b with
  | Error (Svc.Frame.Desynced n) ->
    check_bool "beyond wire limit" true (n > Svc.Frame.max_wire_len)
  | _ -> Alcotest.fail "expected Desynced");
  Unix.close a;
  Unix.close b

let test_frame_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a header promising 100 bytes, then only 3, then EOF *)
  let hdr = Bytes.of_string "\x00\x00\x00\x64abc" in
  ignore (Unix.write a hdr 0 (Bytes.length hdr));
  Unix.close a;
  (match Svc.Frame.read b with
  | Error Svc.Frame.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  Unix.close b

(* ---------------------------------------------------- incremental decode *)

let pump_all d on_frame on_error =
  let rec go () =
    match Svc.Frame.next d with
    | Ok `Await -> ()
    | Ok (`Frame p) ->
      on_frame p;
      go ()
    | Error e ->
      on_error e;
      go ()
  in
  go ()

let test_decoder_incremental () =
  (* one byte at a time across three frame boundaries, including an empty
     payload: every frame must come out exactly once, in order *)
  let d = Svc.Frame.decoder () in
  let wire =
    Svc.Frame.encode "hello" ^ Svc.Frame.encode "" ^ Svc.Frame.encode "worlds"
  in
  let b = Bytes.of_string wire in
  let got = ref [] in
  for i = 0 to Bytes.length b - 1 do
    Svc.Frame.feed d b i 1;
    pump_all d
      (fun p -> got := p :: !got)
      (fun e -> Alcotest.failf "decode: %s" (Svc.Frame.error_string e))
  done;
  check_bool "byte-by-byte frames" true
    (List.rev !got = [ "hello"; ""; "worlds" ]);
  (* and the same frames in a single feed *)
  let d = Svc.Frame.decoder () in
  Svc.Frame.feed d b 0 (Bytes.length b);
  let got = ref [] in
  pump_all d
    (fun p -> got := p :: !got)
    (fun e -> Alcotest.failf "decode: %s" (Svc.Frame.error_string e));
  check_bool "single-feed frames" true
    (List.rev !got = [ "hello"; ""; "worlds" ])

let test_decoder_oversized_skip () =
  (* an oversized frame fed in small chunks is discarded without buffering,
     reported exactly once, and the stream stays framed for what follows *)
  let d = Svc.Frame.decoder ~max_len:8 () in
  let wire =
    Svc.Frame.encode (String.make 100_000 'z') ^ Svc.Frame.encode "next"
  in
  let b = Bytes.of_string wire in
  let oversized = ref 0 in
  let frames = ref [] in
  let i = ref 0 in
  while !i < Bytes.length b do
    let len = min 7 (Bytes.length b - !i) in
    Svc.Frame.feed d b !i len;
    i := !i + len;
    pump_all d
      (fun p -> frames := p :: !frames)
      (function
        | Svc.Frame.Oversized n ->
          check_int "announced length" 100_000 n;
          incr oversized
        | e -> Alcotest.failf "decode: %s" (Svc.Frame.error_string e))
  done;
  check_int "oversized reported once" 1 !oversized;
  check_bool "stream stays framed after skip" true (!frames = [ "next" ])

let test_decoder_desynced_sticky () =
  let d = Svc.Frame.decoder () in
  let b = Bytes.of_string "\xff\xff\xff\xffjunk" in
  Svc.Frame.feed d b 0 (Bytes.length b);
  (match Svc.Frame.next d with
  | Error (Svc.Frame.Desynced n) ->
    check_bool "beyond wire limit" true (n > Svc.Frame.max_wire_len)
  | _ -> Alcotest.fail "expected Desynced");
  (* unrecoverable: feeding well-formed frames cannot resynchronize *)
  let g = Bytes.of_string (Svc.Frame.encode "x") in
  Svc.Frame.feed d g 0 (Bytes.length g);
  match Svc.Frame.next d with
  | Error (Svc.Frame.Desynced _) -> ()
  | _ -> Alcotest.fail "Desynced must be sticky"

(* ------------------------------------------------------------ protocol *)

let test_protocol_roundtrip () =
  let rq =
    P.request ~deadline_ms:250
      ~params:(J.Obj [ ("depth", J.Int 8) ])
      ~id:7 P.Modelcheck
  in
  (match P.request_of_json (P.request_json rq) with
  | Ok rq' ->
    check_int "id" 7 rq'.P.rq_id;
    check_bool "verb" true (rq'.P.rq_verb = P.Modelcheck);
    check_bool "deadline" true (rq'.P.rq_deadline_ms = Some 250);
    check_bool "params" true (J.equal rq'.P.rq_params rq.P.rq_params)
  | Error e -> Alcotest.failf "request round-trip: %s" e);
  List.iter
    (fun rs ->
      match P.response_of_json (P.response_json rs) with
      | Ok rs' ->
        check_int "id" rs.P.rs_id rs'.P.rs_id;
        check_bool "result" true (rs'.P.rs_result = rs.P.rs_result)
      | Error e -> Alcotest.failf "response round-trip: %s" e)
    [ P.ok ~id:3 (J.Str "pong"); P.error ~id:(-1) P.Overloaded "queue full" ]

let test_protocol_rejects () =
  let bad s =
    match P.parse s with
    | Error _ -> true
    | Ok j -> Result.is_error (P.request_of_json j)
  in
  List.iter
    (fun (label, s) -> check_bool label true (bad s))
    [
      ("not json", "]");
      ("not an object", "[1,2]");
      ("missing version", "{\"id\":1,\"verb\":\"ping\"}");
      ("wrong version", "{\"v\":2,\"id\":1,\"verb\":\"ping\"}");
      ("missing id", "{\"v\":1,\"verb\":\"ping\"}");
      ("unknown verb", "{\"v\":1,\"id\":1,\"verb\":\"dance\"}");
      ("params not object", "{\"v\":1,\"id\":1,\"verb\":\"ping\",\"params\":3}");
      ( "non-positive deadline",
        "{\"v\":1,\"id\":1,\"verb\":\"ping\",\"deadline_ms\":0}" );
    ]

(* --------------------------------------------------------------- jobq *)

let test_jobq_bound_and_order () =
  let q = Svc.Jobq.create ~bound:2 () in
  check_bool "push 1" true (Svc.Jobq.try_push q 1 = `Ok);
  check_bool "push 2" true (Svc.Jobq.try_push q 2 = `Ok);
  check_bool "push 3 is Full" true (Svc.Jobq.try_push q 3 = `Full);
  check_int "length" 2 (Svc.Jobq.length q);
  check_bool "pop 1" true (Svc.Jobq.pop q = Some 1);
  check_bool "push 4 after pop" true (Svc.Jobq.try_push q 4 = `Ok);
  Svc.Jobq.close q;
  check_bool "push after close" true (Svc.Jobq.try_push q 5 = `Closed);
  (* close drains: already-accepted items still come out, then None *)
  check_bool "drain 2" true (Svc.Jobq.pop q = Some 2);
  check_bool "drain 4" true (Svc.Jobq.pop q = Some 4);
  check_bool "empty after drain" true (Svc.Jobq.pop q = None)

(* Fair dequeue: a greedy client (conn 0) and a polite one (conn 1) share
   a keyed queue of bound 2. The bound stays global — greed is rejected at
   admission — and pops alternate between the classes, so the polite
   client's request waits behind at most one greedy job per round. *)
let test_jobq_fair_dequeue () =
  let q = Svc.Jobq.create ~key:fst ~bound:2 () in
  check_bool "greedy 1" true (Svc.Jobq.try_push q (0, 1) = `Ok);
  check_bool "greedy 2" true (Svc.Jobq.try_push q (0, 2) = `Ok);
  check_bool "greedy over bound" true (Svc.Jobq.try_push q (0, 3) = `Full);
  check_bool "first pop is greedy" true (Svc.Jobq.pop q = Some (0, 1));
  check_bool "polite wins freed slot" true (Svc.Jobq.try_push q (1, 1) = `Ok);
  check_bool "greedy still rejected" true (Svc.Jobq.try_push q (0, 3) = `Full);
  (* rotation: conn 0's turn, then conn 1's — even though (0,3) below is
     pushed before conn 1 is served again *)
  check_bool "round-robin serves 0" true (Svc.Jobq.pop q = Some (0, 2));
  check_bool "greedy refills" true (Svc.Jobq.try_push q (0, 3) = `Ok);
  check_bool "round-robin serves 1" true (Svc.Jobq.pop q = Some (1, 1));
  check_bool "then 0 again" true (Svc.Jobq.pop q = Some (0, 3));
  (* interleaving with a backlog: 3 greedy jobs queued ahead of 1 polite
     one; FIFO would serve the polite job last, round-robin serves it
     second *)
  let q = Svc.Jobq.create ~key:fst ~bound:4 () in
  List.iter
    (fun x -> check_bool "push" true (Svc.Jobq.try_push q x = `Ok))
    [ (0, 1); (0, 2); (0, 3); (1, 9) ];
  let order = List.init 4 (fun _ -> Option.get (Svc.Jobq.pop q)) in
  check_bool "polite served second" true
    (order = [ (0, 1); (1, 9); (0, 2); (0, 3) ])

let test_jobq_blocking_pop () =
  let q = Svc.Jobq.create ~bound:4 () in
  let got = Atomic.make (-1) in
  let consumer =
    Thread.create
      (fun () ->
        match Svc.Jobq.pop q with
        | Some v -> Atomic.set got v
        | None -> Atomic.set got (-2))
      ()
  in
  Thread.delay 0.02;
  check_bool "push wakes" true (Svc.Jobq.try_push q 42 = `Ok);
  Thread.join consumer;
  check_int "popped" 42 (Atomic.get got)

(* connect against nothing (ENOENT, retryable): a 400 ms backoff doubling
   over 10 retries would sleep for many seconds, but the 200 ms deadline
   budget clamps the first sleep and forbids the second attempt *)
let test_connect_deadline_clamp () =
  let path = socket_path () in
  let t0 = Obs.Clock.now_ns () in
  (try
     let c =
       Svc.Client.connect ~retries:10 ~backoff_ms:400 ~deadline_ms:200 path
     in
     Svc.Client.close c;
     Alcotest.fail "connected with no server listening"
   with Unix.Unix_error _ -> ());
  let elapsed = Obs.Clock.elapsed_s ~since:t0 in
  check_bool
    (Printf.sprintf "gave up inside the budget (%.3fs)" elapsed)
    true
    (elapsed < 1.5)

(* ----------------------------------------------------------- end-to-end *)

let with_server ?sink ?registry cfg f =
  let t = Svc.Server.start ?sink ?registry cfg in
  Fun.protect
    ~finally:(fun () ->
      Svc.Server.shutdown t;
      Svc.Server.wait t)
    (fun () -> f t)

let default_cfg path =
  {
    (Svc.Server.default_config ~listen:(Svc.Addr.Unix_path path)) with
    workers = 1;
  }

let test_server_ping_solve_stats () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | r ->
        Alcotest.failf "ping: %s"
          (match r with
          | Ok j -> J.to_string j
          | Error e -> Svc.Client.error_string e));
      (match
         Svc.Client.call
           ~params:(J.Obj [ ("task", J.Str "consensus"); ("n", J.Int 3) ])
           c P.Solve
       with
      | Ok j ->
        check_bool "solve ok" true (J.member "ok" j = Some (J.Bool true))
      | Error e -> Alcotest.failf "solve: %s" (Svc.Client.error_string e));
      (match Svc.Client.call c P.Stats with
      | Ok j -> (
        match J.member "accepted" j with
        | Some (J.Int n) -> check_bool "accepted >= 1" true (n >= 1)
        | _ -> Alcotest.fail "stats: no accepted field")
      | Error e -> Alcotest.failf "stats: %s" (Svc.Client.error_string e));
      (* malformed params are a clean bad_request, not a dead worker *)
      (match
         Svc.Client.call ~params:(J.Obj [ ("task", J.Str "nope" ) ]) c P.Solve
       with
      | Error (Svc.Client.Server (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "expected bad_request");
      (* and the worker still serves afterwards *)
      (match Svc.Client.call ~params:(J.Obj [ ("depth", J.Int 6) ]) c P.Modelcheck with
      | Ok j ->
        check_bool "modelcheck ok" true
          (J.member "verdict" j = Some (J.Str "ok"))
      | Error e -> Alcotest.failf "modelcheck: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

(* Raw pipelined connection: write several requests without waiting, then
   collect every response, keyed by id. *)
let raw_calls path requests =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  List.iter
    (fun rq -> Svc.Frame.write fd (J.to_string (P.request_json rq)))
    requests;
  let replies = Hashtbl.create 8 in
  let rec collect n =
    if n > 0 then
      match Svc.Frame.read ~max_len:(64 * 1024 * 1024) fd with
      | Ok payload ->
        (match P.parse payload with
        | Ok j -> (
          match P.response_of_json j with
          | Ok rs ->
            Hashtbl.replace replies rs.P.rs_id rs.P.rs_result;
            collect (n - 1)
          | Error e -> Alcotest.failf "bad response: %s" e)
        | Error e -> Alcotest.failf "bad response JSON: %s" e)
      | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
  in
  collect (List.length requests);
  Unix.close fd;
  replies

let slow_modelcheck ?deadline_ms ~id () =
  P.request ?deadline_ms ~params:(J.Obj [ ("depth", J.Int 14) ]) ~id P.Modelcheck

let test_server_backpressure () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with queue_bound = 1 } in
  with_server cfg (fun _ ->
      (* one worker, bound 1: the first slow job occupies the worker, the
         second fills the queue, the rest must be rejected as overloaded *)
      let replies =
        raw_calls path (List.init 5 (fun i -> slow_modelcheck ~id:i ()))
      in
      let ok, overloaded =
        Hashtbl.fold
          (fun _ r (ok, ov) ->
            match r with
            | Ok _ -> (ok + 1, ov)
            | Error (P.Overloaded, _) -> (ok, ov + 1)
            | Error (c, m) ->
              Alcotest.failf "unexpected error %s: %s" (P.err_code_string c) m)
          replies (0, 0)
      in
      check_int "every request answered" 5 (ok + overloaded);
      check_bool "some rejected with overloaded" true (overloaded >= 1);
      check_bool "some served" true (ok >= 1))

let test_server_deadline () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      (* depth 14 runs for tens of milliseconds; a 5 ms deadline trips
         either while queued or mid-execution — both are deadline_exceeded,
         and the cancelled engine reports no verdict *)
      (match
         Svc.Client.call ~deadline_ms:5
           ~params:(J.Obj [ ("depth", J.Int 14) ])
           c P.Modelcheck
       with
      | Error (Svc.Client.Server (P.Deadline_exceeded, _)) -> ()
      | Ok _ -> Alcotest.fail "deadline did not trip"
      | Error e -> Alcotest.failf "deadline: %s" (Svc.Client.error_string e));
      (* the worker survives a timed-out job *)
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "ping after timeout");
      Svc.Client.close c)

let test_server_client_eof_with_inflight_job () =
  let path = socket_path () in
  let t = Svc.Server.start (default_cfg path) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Svc.Frame.write fd (J.to_string (P.request_json (slow_modelcheck ~id:1 ())));
  (* hang up before the reply: the job must still run to completion and
     write into a descriptor the refcount kept open (never one the kernel
     reused), and the server must stay serviceable *)
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_served () =
    match J.member "served" (Svc.Server.stats_json t) with
    | Some (J.Int n) when n >= 1 -> ()
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "job was not served after client EOF";
      Thread.delay 0.005;
      wait_served ()
  in
  wait_served ();
  let c = Svc.Client.connect path in
  (match Svc.Client.call c P.Ping with
  | Ok (J.Str "pong") -> ()
  | _ -> Alcotest.fail "ping after orphaned job");
  Svc.Client.close c;
  Svc.Server.shutdown t;
  Svc.Server.wait t

let test_server_drain_loses_nothing () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with queue_bound = 8 } in
  let t = Svc.Server.start cfg in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let jobs = 4 in
  List.iter
    (fun rq -> Svc.Frame.write fd (J.to_string (P.request_json rq)))
    (List.init jobs (fun i ->
         P.request ~params:(J.Obj [ ("depth", J.Int 10) ]) ~id:i P.Modelcheck));
  (* wait until all four are accepted (connection handshake and dispatch
     are asynchronous), then shut down with them queued/in-flight: every
     accepted job must still be answered *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_accepted () =
    match J.member "accepted" (Svc.Server.stats_json t) with
    | Some (J.Int n) when n >= jobs -> ()
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "jobs were not accepted in time";
      Thread.delay 0.005;
      wait_accepted ()
  in
  wait_accepted ();
  Svc.Server.shutdown t;
  let answered = ref 0 in
  (try
     for _ = 1 to jobs do
       match Svc.Frame.read ~max_len:(64 * 1024 * 1024) fd with
       | Ok payload ->
         (match Result.bind (P.parse payload) P.response_of_json with
         | Ok { P.rs_result = Ok _; _ } -> incr answered
         | Ok { P.rs_result = Error (c, m); _ } ->
           Alcotest.failf "drained job failed %s: %s" (P.err_code_string c) m
         | Error e -> Alcotest.failf "bad response: %s" e)
       | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
     done
   with e ->
     Unix.close fd;
     raise e);
  Unix.close fd;
  Svc.Server.wait t;
  check_int "zero accepted jobs lost" jobs !answered

let test_server_oversized_and_events () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with max_frame = 256 } in
  let sink, events = Obs.Sink.buffer () in
  let registry = Obs.Metrics.registry () in
  with_server ~sink ~registry cfg (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Svc.Frame.write fd (String.make 1000 ' ');
      (match Result.bind (P.parse (Result.get_ok (Svc.Frame.read fd)))
               P.response_of_json with
      | Ok { P.rs_id = -1; rs_result = Error (P.Oversized, _) } -> ()
      | _ -> Alcotest.fail "expected oversized reply with id -1");
      (* the connection survives; a well-formed request still works *)
      Svc.Frame.write fd (J.to_string (P.request_json (P.request ~id:9 P.Ping)));
      (match Result.bind (P.parse (Result.get_ok (Svc.Frame.read fd)))
               P.response_of_json with
      | Ok { P.rs_id = 9; rs_result = Ok (J.Str "pong") } -> ()
      | _ -> Alcotest.fail "expected pong after oversized");
      Unix.close fd;
      Thread.delay 0.05);
  let names = List.map (fun e -> e.Obs.Event.name) (events ()) in
  let has n = List.mem n names in
  check_bool "svc.start" true (has Obs.Event.Name.svc_start);
  check_bool "svc.conn.open" true (has Obs.Event.Name.svc_conn_open);
  check_bool "svc.reject" true (has Obs.Event.Name.svc_reject);
  check_bool "svc.drain" true (has Obs.Event.Name.svc_drain);
  check_bool "svc.stop" true (has Obs.Event.Name.svc_stop);
  (* the reject landed in the labeled counter too *)
  let rejected = ref 0 in
  Obs.Metrics.iter_counters registry (fun name labels v ->
      if name = "svc.requests.rejected" && labels = [ ("code", "oversized") ]
      then rejected := v);
  check_int "rejected{code=oversized}" 1 !rejected

let test_server_desynced_frame_closes_conn () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* an unframeable header: the stream can never resynchronize, so the
         server must answer once and hang up rather than misparse payload
         bytes as frames *)
      ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4);
      (match
         Result.bind
           (P.parse (Result.get_ok (Svc.Frame.read fd)))
           P.response_of_json
       with
      | Ok { P.rs_id = -1; rs_result = Error (P.Oversized, _) } -> ()
      | _ -> Alcotest.fail "expected oversized reply with id -1");
      (match Svc.Frame.read fd with
      | Error Svc.Frame.Eof -> ()
      | _ -> Alcotest.fail "expected the server to close the connection");
      Unix.close fd)

let test_server_shutdown_verb_refuses_new () =
  let path = socket_path () in
  let t = Svc.Server.start (default_cfg path) in
  let c = Svc.Client.connect path in
  (match Svc.Client.call c P.Shutdown with
  | Ok (J.Str "draining") -> ()
  | _ -> Alcotest.fail "shutdown reply");
  (* a queued verb on the draining server is refused, not queued *)
  (match Svc.Client.call ~params:(J.Obj [ ("depth", J.Int 6) ]) c P.Modelcheck with
  | Error (Svc.Client.Server (P.Shutting_down, _)) -> ()
  | Error (Svc.Client.Transport _) -> ()  (* conn already torn down: also fine *)
  | Error (Svc.Client.Server (c, m)) ->
    Alcotest.failf "unexpected error %s: %s" (P.err_code_string c) m
  | Ok _ -> Alcotest.fail "request accepted after shutdown");
  Svc.Client.close c;
  Svc.Server.wait t

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_server_deadline_bomb () =
  (* parse-level boundary: the largest legal deadline is accepted, one
     past it is not *)
  let rq_json ms =
    J.Obj
      [
        ("v", J.Int 1);
        ("id", J.Int 1);
        ("verb", J.Str "ping");
        ("deadline_ms", J.Int ms);
      ]
  in
  check_bool "max_deadline_ms accepted" true
    (Result.is_ok (P.request_of_json (rq_json P.max_deadline_ms)));
  check_bool "max_deadline_ms + 1 rejected" true
    (Result.is_error (P.request_of_json (rq_json (P.max_deadline_ms + 1))));
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* ~295 years in ms: times 10^6 this overflows int64 nanoseconds,
         which used to wrap the absolute deadline negative and kill the
         job with deadline_exceeded on arrival; it must be a parse-time
         bad_request instead *)
      Svc.Frame.write fd
        "{\"v\":1,\"id\":7,\"verb\":\"modelcheck\",\"deadline_ms\":9300000000000}";
      (match
         Result.bind
           (P.parse (Result.get_ok (Svc.Frame.read fd)))
           P.response_of_json
       with
      | Ok { P.rs_id = -1; rs_result = Error (P.Bad_request, msg) } ->
        check_bool "error names deadline_ms" true (contains msg "deadline_ms")
      | _ -> Alcotest.fail "expected bad_request for the deadline bomb");
      Unix.close fd;
      (* the boundary value means "far future", never an instant timeout *)
      let c = Svc.Client.connect path in
      (match
         Svc.Client.call ~deadline_ms:P.max_deadline_ms
           ~params:(J.Obj [ ("depth", J.Int 6) ])
           c P.Modelcheck
       with
      | Ok j ->
        check_bool "verdict ok" true (J.member "verdict" j = Some (J.Str "ok"))
      | Error e ->
        Alcotest.failf "max deadline: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

(* A depth whose schedule count exceeds max_int (3 pids, depth 41) used to
   run and report a wrapped count; the engine now refuses it up front and
   the job layer turns that into a bad_request, as it does for subtrees. *)
let test_jobs_modelcheck_overflow_bad_request () =
  let params =
    J.Obj
      [ ("scenario", J.Str "safe-agreement"); ("n_s", J.Int 1);
        ("depth", J.Int 41) ]
  in
  match Svc.Jobs.run P.Modelcheck params with
  | Error (P.Bad_request, msg) ->
    check_bool "names the overflow" true
      (Option.is_some (String.index_opt msg '^'))
  | Error (_, msg) -> Alcotest.failf "expected bad_request, got error %s" msg
  | Ok j -> Alcotest.failf "expected bad_request, got %s" (J.to_string j)

let test_deadline_cancel_first_poll () =
  (* the cancel hook must consult the clock on its FIRST call: a deadline
     already expired at dispatch used to survive 255 polls of the throttle
     window before anyone looked at the clock *)
  let now = Obs.Clock.now_ns () in
  let expired = Svc.Pool.deadline_cancel (Int64.sub now 1L) in
  check_bool "expired deadline trips on the first poll" true (expired ());
  check_bool "and stays tripped" true (expired ());
  let far = Svc.Pool.deadline_cancel (Int64.add now 60_000_000_000L) in
  check_bool "a far-future deadline does not trip" false (far ())

let test_server_pipelining_out_of_order () =
  let path = socket_path () in
  (* one worker: the slow job sent FIRST must be answered LAST, overtaken
     by the pings the shard answers inline while the job runs *)
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let pings = 8 in
      List.iter
        (fun rq -> Svc.Frame.write fd (J.to_string (P.request_json rq)))
        (slow_modelcheck ~id:0 ()
        :: List.init pings (fun i -> P.request ~id:(i + 1) P.Ping));
      let order = ref [] in
      for _ = 0 to pings do
        match Svc.Frame.read ~max_len:(64 * 1024 * 1024) fd with
        | Ok payload -> (
          match Result.bind (P.parse payload) P.response_of_json with
          | Ok rs ->
            (match rs.P.rs_result with
            | Ok _ -> ()
            | Error (c, m) ->
              Alcotest.failf "id %d failed %s: %s" rs.P.rs_id
                (P.err_code_string c) m);
            order := rs.P.rs_id :: !order
          | Error e -> Alcotest.failf "bad response: %s" e)
        | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
      done;
      let order = List.rev !order in
      check_int "every request answered" (pings + 1) (List.length order);
      check_int "slow job answered last, out of send order" 0
        (List.nth order pings);
      (* ping responses from one connection keep their relative order *)
      List.iteri
        (fun i id -> if i < pings then check_int "ping order" (i + 1) id)
        order;
      Unix.close fd)

let test_server_reply_cap () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with max_reply = 256 } in
  with_server cfg (fun _ ->
      let c = Svc.Client.connect path in
      (* a solve report is far larger than 256 bytes: it must degrade to a
         bounded oversized error carrying the request's id — pre-fix the
         unframeable reply escaped as an exception and killed the
         connection's thread mid-write *)
      (match
         Svc.Client.call
           ~params:(J.Obj [ ("task", J.Str "consensus"); ("n", J.Int 3) ])
           c P.Solve
       with
      | Error (Svc.Client.Server (P.Oversized, msg)) ->
        check_bool "error names the reply limit" true
          (contains msg "reply limit")
      | Ok j ->
        Alcotest.failf "reply of %d bytes was not capped"
          (String.length (J.to_string j))
      | Error e -> Alcotest.failf "solve: %s" (Svc.Client.error_string e));
      (* the connection survives, and small replies still fit *)
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "ping after capped reply");
      Svc.Client.close c)

let test_server_run_twice_restores_signals () =
  let hits = Atomic.make 0 in
  let mine = Sys.Signal_handle (fun _ -> Atomic.incr hits) in
  let prev = Sys.signal Sys.sigterm mine in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigterm prev)
    (fun () ->
      let serve_and_stop () =
        let path = socket_path () in
        let th = Thread.create (fun () -> Svc.Server.run (default_cfg path)) () in
        let deadline = Unix.gettimeofday () +. 10. in
        let rec connect () =
          match Svc.Client.connect path with
          | c -> c
          | exception Unix.Unix_error _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "server did not come up";
            Thread.delay 0.01;
            connect ()
        in
        let c = connect () in
        (match Svc.Client.call c P.Shutdown with
        | Ok (J.Str "draining") -> ()
        | _ -> Alcotest.fail "shutdown reply");
        Svc.Client.close c;
        Thread.join th
      in
      let expect_hits label n =
        let deadline = Unix.gettimeofday () +. 5. in
        while Atomic.get hits < n && Unix.gettimeofday () < deadline do
          Thread.delay 0.005
        done;
        check_int label n (Atomic.get hits)
      in
      (* run installs its own SIGTERM/SIGINT handlers; when it returns it
         must put OURS back — pre-fix the stale handler kept pointing a
         later SIGTERM at the dead server's shutdown *)
      serve_and_stop ();
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      expect_hits "handler restored after first run" 1;
      (* and a second server in the same process starts, serves, stops *)
      serve_and_stop ();
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      expect_hits "handler restored after second run" 2)

(* ------------------------------------------------- addresses and TCP *)

let test_addr_parse () =
  let ok s expect =
    match Svc.Addr.of_string s with
    | Ok a -> check_string s expect (Svc.Addr.to_string a)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:127.0.0.1:4000" "tcp:127.0.0.1:4000";
  ok "tcp::0" "tcp::0";
  ok "tcp:host.example:65535" "tcp:host.example:65535";
  List.iter
    (fun s ->
      match Svc.Addr.of_string s with
      | Ok a -> Alcotest.failf "%s parsed as %s" s (Svc.Addr.to_string a)
      | Error _ -> ())
    [ ""; "unix:"; "tcp:127.0.0.1"; "tcp:h:66000"; "tcp:h:-1"; "tcp:h:x" ];
  (* round-trip through to_string *)
  (match Svc.Addr.of_string "tcp::9" with
  | Ok a -> check_bool "reparse" true (Svc.Addr.of_string (Svc.Addr.to_string a) = Ok a)
  | Error e -> Alcotest.fail e)

(* the same end-to-end server, over a kernel-chosen TCP port: ping, a job
   verb, and listen_addr reporting the real port back *)
let test_server_tcp () =
  let cfg =
    {
      (Svc.Server.default_config
         ~listen:(Svc.Addr.Tcp ("127.0.0.1", 0)))
      with
      workers = 1;
    }
  in
  with_server cfg (fun t ->
      let addr = Svc.Server.listen_addr t in
      (match addr with
      | Svc.Addr.Tcp ("127.0.0.1", p) ->
        check_bool "kernel picked a real port" true (p > 0)
      | a -> Alcotest.failf "bound %s" (Svc.Addr.to_string a));
      let c = Svc.Client.connect (Svc.Addr.to_string addr) in
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "ping over tcp");
      (match
         Svc.Client.call ~params:(J.Obj [ ("depth", J.Int 5) ]) c P.Modelcheck
       with
      | Ok j ->
        check_bool "modelcheck over tcp" true
          (J.member "verdict" j = Some (J.Str "ok"))
      | Error e -> Alcotest.failf "modelcheck: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

let test_server_metrics_verb () =
  let path = socket_path () in
  let registry = Obs.Metrics.registry () in
  with_server ~registry (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      (* inline verbs don't touch the registry; run one pool job so the
         accepted/latency metrics exist before the snapshot *)
      (match
         Svc.Client.call ~params:(J.Obj [ ("depth", J.Int 4) ]) c P.Modelcheck
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "modelcheck: %s" (Svc.Client.error_string e));
      (match Svc.Client.call c P.Metrics with
      | Ok j -> (
        match J.member "metrics" j with
        | Some (J.List ms) ->
          (* the server's own counters live in the registry the snapshot
             reads — at least the accepted-requests counter must show *)
          check_bool "some metrics" true (ms <> [])
        | _ -> Alcotest.fail "metrics: no metrics list")
      | Error e -> Alcotest.failf "metrics: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

(* hello negotiation end-to-end: an offered binary codec comes back acked
   and the whole verb surface works over it; the default connection stays
   JSON on the same server *)
let test_codec_negotiation () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect ~codec:P.Codec.Binary path in
      check_bool "binary negotiated" true
        (Svc.Client.codec c = P.Codec.Binary);
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "binary ping");
      (match
         Svc.Client.call
           ~params:(J.Obj [ ("task", J.Str "consensus"); ("n", J.Int 3) ])
           c P.Solve
       with
      | Ok j ->
        check_bool "solve over binary" true
          (J.member "ok" j = Some (J.Bool true))
      | Error e -> Alcotest.failf "solve: %s" (Svc.Client.error_string e));
      (* errors travel binary too *)
      (match
         Svc.Client.call ~params:(J.Obj [ ("task", J.Str "nope") ]) c P.Solve
       with
      | Error (Svc.Client.Server (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "expected bad_request over binary");
      Svc.Client.close c;
      let c = Svc.Client.connect path in
      check_bool "json is the default" true
        (Svc.Client.codec c = P.Codec.Json);
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "json ping");
      Svc.Client.close c)

(* frames self-describe their codec, so one connection can mix them freely;
   each reply echoes its request's codec, and the fast-path binary pong is
   byte-identical to the generic encoder's output *)
let test_codec_mixed_frames () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let send codec rq = Svc.Frame.write fd (P.Codec.encode_request codec rq) in
      (* a fast-path binary ping, a generic binary ping (the deadline flag
         disqualifies the fast path), and a JSON ping, pipelined *)
      send P.Codec.Binary (P.request ~id:5 P.Ping);
      send P.Codec.Binary (P.request ~deadline_ms:60_000 ~id:6 P.Ping);
      send P.Codec.Json (P.request ~id:7 P.Ping);
      let replies = Hashtbl.create 4 in
      for _ = 1 to 3 do
        match Svc.Frame.read fd with
        | Ok payload -> (
          match P.Codec.decode_response payload with
          | Ok rs -> Hashtbl.replace replies rs.P.rs_id (payload, rs.P.rs_result)
          | Error e -> Alcotest.failf "decode: %s" e)
        | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
      done;
      Unix.close fd;
      let reply id =
        match Hashtbl.find_opt replies id with
        | Some r -> r
        | None -> Alcotest.failf "no reply for id %d" id
      in
      List.iter
        (fun (id, codec) ->
          let payload, result = reply id in
          (match result with
          | Ok (J.Str "pong") -> ()
          | _ -> Alcotest.failf "id %d: expected pong" id);
          check_bool "reply codec echoes request codec" true
            (P.Codec.detect payload = codec))
        [ (5, P.Codec.Binary); (6, P.Codec.Binary); (7, P.Codec.Json) ];
      (* the in-place fast path and the generic encoder must be
         indistinguishable on the wire *)
      let fast, _ = reply 5 in
      check_bool "fast-path pong equals generic encoding" true
        (fast = P.Codec.encode_response P.Codec.Binary (P.ok ~id:5 (J.Str "pong"))))

let test_client_connect_retry () =
  let path = socket_path () in
  (* nothing listening, no retries: immediate refusal *)
  (match Svc.Client.connect path with
  | exception Unix.Unix_error _ -> ()
  | c ->
    Svc.Client.close c;
    Alcotest.fail "connected to nothing");
  (* bad address text is Invalid_argument, not a retry loop *)
  (match Svc.Client.connect "tcp:1.2.3.4" with
  | exception Invalid_argument _ -> ()
  | c ->
    Svc.Client.close c;
    Alcotest.fail "bad address accepted");
  (* server comes up late; a patient connect lands *)
  let t = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        t := Some (Svc.Server.start (default_cfg path)))
      ()
  in
  let c = Svc.Client.connect ~retries:20 ~backoff_ms:20 path in
  (match Svc.Client.call c P.Ping with
  | Ok (J.Str "pong") -> ()
  | _ -> Alcotest.fail "ping after retry");
  Svc.Client.close c;
  Thread.join starter;
  match !t with
  | Some srv ->
    Svc.Server.shutdown srv;
    Svc.Server.wait srv
  | None -> Alcotest.fail "server never started"

(* ------------------------------------------------- scenario / campaign *)

(* An invalid caller-supplied scenario is a structured bad_request naming
   the failing JSON path — and the connection survives to serve the next
   (valid) scenario on the same socket. *)
let test_server_scenario_validation () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      let bad =
        J.Obj
          [
            ("v", J.Int 1); ("name", J.Str "bad");
            ("verb", J.Str "modelcheck");
            ("params", J.Obj [ ("scenario", J.Str "typo") ]);
            ("expect", J.Obj [ ("outcome", J.Str "safe") ]);
          ]
      in
      (match Svc.Client.call ~params:bad c P.Scenario with
      | Error (Svc.Client.Server (P.Bad_request, msg)) ->
        check_bool "names the path" true
          (String.length msg > 0
          && Option.is_some
               (String.index_opt msg '$')
          && Option.is_some (String.index_opt msg '|'))
      | r ->
        Alcotest.failf "expected bad_request, got %s"
          (match r with
          | Ok j -> J.to_string j
          | Error e -> Svc.Client.error_string e));
      let good =
        J.Obj
          [
            ("v", J.Int 1); ("name", J.Str "good");
            ("verb", J.Str "modelcheck");
            ( "params",
              J.Obj [ ("scenario", J.Str "safe-agreement"); ("depth", J.Int 6) ]
            );
            ("expect", J.Obj [ ("outcome", J.Str "safe") ]);
          ]
      in
      (match Svc.Client.call ~params:good c P.Scenario with
      | Ok j -> (
        check_bool "scenario echoed" true
          (J.member "scenario" j = Some (J.Str "good"));
        match Option.bind (J.member "result" j) (J.member "verdict") with
        | Some (J.Str "ok") -> ()
        | _ -> Alcotest.fail "no ok verdict in result")
      | Error e ->
        Alcotest.failf "good scenario: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

(* A campaign running over the wire honors per-scenario deadlines: the slow
   row comes back as a timeout (not a fail, not a dead connection), and the
   rows after it still run. *)
let test_campaign_client_deadlines () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let mc ?deadline_ms ?(expect = Scenario.Spec.Safe) name depth =
        {
          Scenario.Spec.sp_name = name;
          sp_work =
            Scenario.Spec.Modelcheck
              {
                Scenario.Spec.mc_scenario = "safe-agreement"; mc_n_s = 1;
                mc_depth = depth; mc_reduce = false;
              };
          sp_deadline_ms = deadline_ms;
          sp_expect = expect;
        }
      in
      let specs =
        [
          mc "a:fast" 6;
          mc ~deadline_ms:1 "a:slow" 14;
          mc ~deadline_ms:1 ~expect:(Scenario.Spec.Err "deadline_exceeded")
            "a:slow-declared" 14;
          mc "a:after" 6;
        ]
      in
      let c = Svc.Client.connect path in
      let s =
        Svc.Campaign.run_client ~window:2 ~name:"deadlines" ~client:c specs
      in
      Svc.Client.close c;
      let outcome name =
        (List.find
           (fun r -> r.Svc.Campaign.row_spec.Scenario.Spec.sp_name = name)
           s.Svc.Campaign.s_rows)
          .Svc.Campaign.row_outcome
      in
      check_bool "fast passes" true (outcome "a:fast" = Scenario.Spec.Pass);
      check_bool "slow is timeout, not fail" true
        (outcome "a:slow" = Scenario.Spec.Timeout);
      check_bool "declared timeout passes" true
        (outcome "a:slow-declared" = Scenario.Spec.Pass);
      check_bool "row after timeout still runs" true
        (outcome "a:after" = Scenario.Spec.Pass);
      check_int "timeouts" 1 s.Svc.Campaign.s_timeout;
      check_int "fails" 0 s.Svc.Campaign.s_fail)

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "oversized frame keeps stream sync" `Quick
      test_frame_oversized_keeps_sync;
    Alcotest.test_case "desynced frame is unrecoverable" `Quick
      test_frame_desynced;
    Alcotest.test_case "truncated frame" `Quick test_frame_truncated;
    Alcotest.test_case "decoder: incremental feed" `Quick
      test_decoder_incremental;
    Alcotest.test_case "decoder: oversized skip keeps sync" `Quick
      test_decoder_oversized_skip;
    Alcotest.test_case "decoder: desynced is sticky" `Quick
      test_decoder_desynced_sticky;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects malformed" `Quick test_protocol_rejects;
    Alcotest.test_case "jobq bound, order, drain" `Quick
      test_jobq_bound_and_order;
    Alcotest.test_case "jobq fair dequeue (greedy vs polite)" `Quick
      test_jobq_fair_dequeue;
    Alcotest.test_case "jobq blocking pop" `Quick test_jobq_blocking_pop;
    Alcotest.test_case "connect backoff clamped to deadline" `Quick
      test_connect_deadline_clamp;
    Alcotest.test_case "server: ping, solve, stats, bad request" `Quick
      test_server_ping_solve_stats;
    Alcotest.test_case "server: backpressure rejects with overloaded" `Quick
      test_server_backpressure;
    Alcotest.test_case "server: deadline exceeded" `Quick test_server_deadline;
    Alcotest.test_case "server: client EOF with job in flight" `Quick
      test_server_client_eof_with_inflight_job;
    Alcotest.test_case "server: drain loses no accepted job" `Quick
      test_server_drain_loses_nothing;
    Alcotest.test_case "server: desynced frame closes connection" `Quick
      test_server_desynced_frame_closes_conn;
    Alcotest.test_case "server: oversized frame, events, metrics" `Quick
      test_server_oversized_and_events;
    Alcotest.test_case "server: shutdown verb refuses new work" `Quick
      test_server_shutdown_verb_refuses_new;
    Alcotest.test_case "server: deadline_ms bomb is a bad request" `Quick
      test_server_deadline_bomb;
    Alcotest.test_case "pool: expired deadline cancels on first poll" `Quick
      test_deadline_cancel_first_poll;
    Alcotest.test_case "jobs: modelcheck count overflow is a bad request"
      `Quick test_jobs_modelcheck_overflow_bad_request;
    Alcotest.test_case "server: pipelined requests complete out of order"
      `Quick test_server_pipelining_out_of_order;
    Alcotest.test_case "server: overlong reply degrades to oversized" `Quick
      test_server_reply_cap;
    Alcotest.test_case "server: run twice, signal handlers restored" `Quick
      test_server_run_twice_restores_signals;
    Alcotest.test_case "addr: parse and round-trip" `Quick test_addr_parse;
    Alcotest.test_case "server: TCP transport end-to-end" `Quick
      test_server_tcp;
    Alcotest.test_case "server: metrics verb snapshots the registry" `Quick
      test_server_metrics_verb;
    Alcotest.test_case "codec: hello negotiation end-to-end" `Quick
      test_codec_negotiation;
    Alcotest.test_case "codec: mixed frames on one connection" `Quick
      test_codec_mixed_frames;
    Alcotest.test_case "client: connect retries until the server is up"
      `Quick test_client_connect_retry;
    Alcotest.test_case "server: scenario verb validates caller input" `Quick
      test_server_scenario_validation;
    Alcotest.test_case "campaign: per-scenario deadlines over the wire"
      `Quick test_campaign_client_deadlines;
  ]
