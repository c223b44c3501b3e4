(** Tests for the serving layer: wire-protocol round-trips, the bounded
    admission queue, and the daemon end-to-end over real sockets —
    concurrent clients get bit-identical answers to the sequential
    engine, deadlines and explicit cancels return [Cancelled] and free
    the worker, queue overflow returns [Overloaded], every request
    produces a trace with queue-wait/plan/exec children, and shutdown
    drains cleanly. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let wait_for ?(timeout = 10.0) what f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Wire protocol round-trips through a real pipe.                      *)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let roundtrip_request req =
  let r, w = Unix.pipe () in
  Server.Wire.write_request w req;
  let got = Server.Wire.read_request r in
  close_noerr w;
  close_noerr r;
  got

let roundtrip_reply reply =
  let r, w = Unix.pipe () in
  Server.Wire.write_reply w reply;
  let got = Server.Wire.read_reply r in
  close_noerr w;
  close_noerr r;
  got

let wire_tests =
  [
    tc "requests round-trip" `Quick (fun () ->
        let q =
          Server.Wire.Query
            {
              request_id = "";
              deadline_ms = 250;
              domains = 4;
              sql = "SELECT R.ID FROM R";
            }
        in
        Alcotest.(check bool) "query" true (roundtrip_request q = q);
        Alcotest.(check bool)
          "cancel" true
          (roundtrip_request Server.Wire.Cancel = Server.Wire.Cancel);
        Alcotest.(check bool)
          "metrics" true
          (roundtrip_request Server.Wire.Metrics = Server.Wire.Metrics));
    tc "replies round-trip with exact degree bits" `Quick (fun () ->
        let row =
          Server.Wire.Row
            {
              degree_bits = Int64.bits_of_float 0.7000000000000001;
              values = [ "\"Ann\""; "35" ];
            }
        in
        List.iter
          (fun reply ->
            Alcotest.(check bool) "roundtrip" true (roundtrip_reply reply = reply))
          [
            Server.Wire.Header [ "NAME"; "AGE" ];
            row;
            Server.Wire.Done { rows = 3; elapsed_s = 0.0421 };
            Server.Wire.Error "parse error: ...";
            Server.Wire.Retryable "transient fault, retries exhausted";
            Server.Wire.Overloaded;
            Server.Wire.Cancelled "deadline exceeded";
            Server.Wire.Metrics_json "{}";
          ]);
    tc "request-ID frames round-trip; \\trace and \\top frames too" `Quick
      (fun () ->
        let q =
          Server.Wire.Query
            {
              request_id = "a3f09b1c77d2e845";
              deadline_ms = 250;
              domains = 4;
              sql = "SELECT R.ID FROM R";
            }
        in
        Alcotest.(check bool) "query with ID" true (roundtrip_request q = q);
        Alcotest.(check bool)
          "trace fetch" true
          (roundtrip_request (Server.Wire.Trace_get "a3f09b1c77d2e845")
          = Server.Wire.Trace_get "a3f09b1c77d2e845");
        Alcotest.(check bool)
          "top" true
          (roundtrip_request Server.Wire.Top = Server.Wire.Top);
        List.iter
          (fun reply ->
            Alcotest.(check bool)
              "telemetry reply" true
              (roundtrip_reply reply = reply))
          [
            Server.Wire.Trace_json None;
            Server.Wire.Trace_json (Some "{\"traceEvents\":[]}");
            Server.Wire.Top_text "fsqld top\n";
          ])
      ;
    tc "old client / new server: rev-1 query frames still decode" `Quick
      (fun () ->
        (* A rev-1 'Q' frame crafted byte by byte: tag, u32 deadline, u32
           domains, u32-length-prefixed SQL — no request ID field. *)
        let sql = "SELECT R.ID FROM R" in
        let payload = Buffer.create 64 in
        Buffer.add_char payload 'Q';
        let u32 n =
          Buffer.add_char payload (Char.chr ((n lsr 24) land 0xff));
          Buffer.add_char payload (Char.chr ((n lsr 16) land 0xff));
          Buffer.add_char payload (Char.chr ((n lsr 8) land 0xff));
          Buffer.add_char payload (Char.chr (n land 0xff))
        in
        u32 250;
        u32 4;
        u32 (String.length sql);
        Buffer.add_string payload sql;
        let frame = Buffer.create 64 in
        let n = Buffer.length payload in
        Buffer.add_char frame (Char.chr ((n lsr 24) land 0xff));
        Buffer.add_char frame (Char.chr ((n lsr 16) land 0xff));
        Buffer.add_char frame (Char.chr ((n lsr 8) land 0xff));
        Buffer.add_char frame (Char.chr (n land 0xff));
        Buffer.add_buffer frame payload;
        let raw = Buffer.contents frame in
        let r, w = Unix.pipe () in
        assert (
          Unix.write w (Bytes.of_string raw) 0 (String.length raw)
          = String.length raw);
        let got = Server.Wire.read_request r in
        Alcotest.(check bool)
          "decodes with an empty request ID (server assigns)" true
          (got
          = Server.Wire.Query { request_id = ""; deadline_ms = 250; domains = 4; sql });
        (* new client / old server: the empty-ID encoding is byte-identical
           to that rev-1 frame, so an old server never sees a new tag *)
        Server.Wire.write_request w got;
        let echoed = Bytes.create (String.length raw) in
        let rec read_exact off len =
          if len > 0 then begin
            let k = Unix.read r echoed off len in
            assert (k > 0);
            read_exact (off + k) (len - k)
          end
        in
        read_exact 0 (String.length raw);
        Alcotest.(check string)
          "re-encoding is byte-identical to the rev-1 frame" raw
          (Bytes.to_string echoed);
        close_noerr w;
        close_noerr r);
    tc "a coalesced reply is byte-identical to one write per frame" `Quick
      (fun () ->
        let degrees =
          [ 0.7000000000000001; 1.0; 0.0; 1e-300; 0.1 +. 0.2 ]
          |> List.map Int64.bits_of_float
        in
        let replies =
          (Server.Wire.Header [ "ID"; "NAME" ]
          :: List.init 40 (fun i ->
                 Server.Wire.Row
                   {
                     degree_bits =
                       (if i = 39 then 0x7FF0000000000001L (* a NaN payload *)
                        else List.nth degrees (i mod List.length degrees));
                     values = [ string_of_int i; Printf.sprintf "\"r%d\"" i ];
                   }))
          @ [ Server.Wire.Done { rows = 40; elapsed_s = 0.0421 } ]
        in
        let coalesced = Buffer.create 256 in
        List.iter (Server.Wire.add_reply coalesced) replies;
        let n = Buffer.length coalesced in
        let read_bytes fd n =
          let b = Bytes.create n in
          let rec go off =
            if off < n then begin
              let k = Unix.read fd b off (n - off) in
              assert (k > 0);
              go (off + k)
            end
          in
          go 0;
          Bytes.to_string b
        in
        (* one write_reply per frame, the bytes concatenated *)
        let r, w = Unix.pipe () in
        List.iter (Server.Wire.write_reply w) replies;
        let per_frame = read_bytes r n in
        close_noerr w;
        close_noerr r;
        Alcotest.(check string)
          "same byte stream" per_frame (Buffer.contents coalesced);
        (* one write of the whole buffer, read back frame by frame *)
        let r, w = Unix.pipe () in
        Server.Wire.write_buffer w coalesced;
        let got = List.map (fun _ -> Server.Wire.read_reply r) replies in
        close_noerr w;
        close_noerr r;
        List.iter2
          (fun want got ->
            match (want, got) with
            | ( Server.Wire.Row { degree_bits = a; values = va },
                Server.Wire.Row { degree_bits = b; values = vb } ) ->
                Alcotest.(check int64) "exact degree bits" a b;
                Alcotest.(check (list string)) "values" va vb
            | _ -> Alcotest.(check bool) "frame round-trips" true (want = got))
          replies got);
    tc "oversized and empty frames are protocol errors" `Quick (fun () ->
        let r, w = Unix.pipe () in
        (* length header far above max_frame *)
        let hdr = Bytes.of_string "\xff\xff\xff\xff" in
        assert (Unix.write w hdr 0 4 = 4);
        (try
           ignore (Server.Wire.read_reply r);
           Alcotest.fail "expected Protocol_error"
         with Server.Wire.Protocol_error _ -> ());
        close_noerr w;
        close_noerr r);
    tc "EOF mid-stream raises Connection_closed, not a decode error" `Quick
      (fun () ->
        (* peer vanished before any frame *)
        let r, w = Unix.pipe () in
        Unix.close w;
        (try
           ignore (Server.Wire.read_reply r);
           Alcotest.fail "expected Connection_closed"
         with Server.Wire.Connection_closed -> ());
        close_noerr r;
        (* peer vanished after half a length header *)
        let r, w = Unix.pipe () in
        assert (Unix.write w (Bytes.of_string "\x00\x00") 0 2 = 2);
        Unix.close w;
        (try
           ignore (Server.Wire.read_reply r);
           Alcotest.fail "expected Connection_closed"
         with Server.Wire.Connection_closed -> ());
        close_noerr r;
        (* writing into a closed pipe surfaces the same way (EPIPE; ignore
           SIGPIPE first, as Daemon.start/Client.connect would) *)
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ -> ());
        let r, w = Unix.pipe () in
        Unix.close r;
        (try
           Server.Wire.write_reply w Server.Wire.Overloaded;
           Alcotest.fail "expected Connection_closed"
         with Server.Wire.Connection_closed -> ());
        close_noerr w);
  ]

(* ------------------------------------------------------------------ *)
(* Bounded queue.                                                      *)

let queue_tests =
  [
    tc "try_push respects capacity; pop drains after close" `Quick (fun () ->
        let q = Server.Bounded_queue.create ~capacity:2 in
        Alcotest.(check bool) "push 1" true (Server.Bounded_queue.try_push q 1);
        Alcotest.(check bool) "push 2" true (Server.Bounded_queue.try_push q 2);
        Alcotest.(check bool) "full" false (Server.Bounded_queue.try_push q 3);
        Alcotest.(check int) "length" 2 (Server.Bounded_queue.length q);
        Server.Bounded_queue.close q;
        Alcotest.(check bool) "closed" false (Server.Bounded_queue.try_push q 4);
        Alcotest.(check (option int)) "drain 1" (Some 1) (Server.Bounded_queue.pop q);
        Alcotest.(check (option int)) "drain 2" (Some 2) (Server.Bounded_queue.pop q);
        Alcotest.(check (option int)) "end" None (Server.Bounded_queue.pop q));
    tc "pop blocks until push" `Quick (fun () ->
        let q = Server.Bounded_queue.create ~capacity:1 in
        let got = ref None in
        let th = Thread.create (fun () -> got := Server.Bounded_queue.pop q) () in
        Thread.delay 0.02;
        Alcotest.(check bool) "still blocked" true (!got = None);
        Alcotest.(check bool) "push" true (Server.Bounded_queue.try_push q 42);
        Thread.join th;
        Alcotest.(check (option int)) "received" (Some 42) !got);
  ]

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end.                                                  *)

(* Answers in normal form: rows sorted, degrees as IEEE-754 bits, values
   as their printed strings (what the wire carries). *)
let normal_of_relation rel =
  let arity = Schema.arity (Relation.schema rel) in
  let rows = ref [] in
  Relation.iter rel (fun t ->
      rows :=
        ( List.init arity (fun i -> Value.to_string (Ftuple.value t i)),
          Int64.bits_of_float (Ftuple.degree t) )
        :: !rows);
  List.sort compare !rows

let normal_of_reply name = function
  | Server.Client.Answer { rows; _ } ->
      List.sort compare
        (List.map
           (fun (r : Server.Client.row) ->
             (r.values, Int64.bits_of_float r.degree))
           rows)
  | Server.Client.Failed m -> Alcotest.failf "%s failed: %s" name m
  | Server.Client.Rejected { diagnostics; _ } ->
      Alcotest.failf "%s rejected: %s" name diagnostics
  | Server.Client.Retryable m -> Alcotest.failf "%s transient: %s" name m
  | Server.Client.Overloaded -> Alcotest.failf "%s overloaded" name
  | Server.Client.Cancelled r -> Alcotest.failf "%s cancelled: %s" name r

(* Every nesting shape of the paper over the demo R/S/T, including a
   correlated 3-block chain (same template as the equivalence suite). *)
let shapes =
  [
    ("N", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)");
    ("J", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U)");
    ( "JX",
      "SELECT R.ID FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V >= \
       R.U)" );
    ( "JA",
      "SELECT R.ID FROM R WHERE R.Y >= (SELECT MAX(S.Z) FROM S WHERE S.V = \
       R.U)" );
    ( "JALL",
      "SELECT R.ID FROM R WHERE R.Y <= ALL (SELECT S.Z FROM S WHERE S.V = \
       R.U)" );
    ( "chain",
      "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.Z IN \
       (SELECT T.W FROM T))" );
    ( "chain-corr",
      "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U \
       AND S.Z IN (SELECT T.W FROM T WHERE T.P = S.V AND T.W >= R.Y))" );
  ]

let setup = Server.Demo.server_setup ~seed:11 ()

(* Sequential ground truth with the same loader and planner defaults the
   daemon uses. *)
let expected_answers () =
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  setup env catalog;
  List.map
    (fun (name, sql) ->
      let q =
        Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql
      in
      (name, normal_of_relation (Unnest.Planner.run q)))
    shapes

(* The blocked nested loop over 2000x2000 tuples runs for seconds and
   polls its cancel token per inner tuple — the workhorse for the
   deadline / cancel / overload tests. *)
let slow_sql = "SELECT R.ID FROM R WHERE R.Y > SOME (SELECT S.Z FROM S WHERE S.V <= R.U)"
let slow_setup = Server.Demo.server_setup ~seed:3 ~n_r:2000 ~n_s:2000 ()

let daemon_tests =
  [
    tc "concurrent clients match the sequential engine bit-for-bit" `Slow
      (fun () ->
        let expected = expected_answers () in
        let daemon = Server.Daemon.start ~workers:4 ~queue_capacity:32 ~setup () in
        let port = Server.Daemon.port daemon in
        let n_clients = 8 in
        let failures = Mutex.create () in
        let failed = ref [] in
        let client_run idx () =
          try
            let client = Server.Client.connect ~port () in
            (* stagger the shape order per client *)
            let rotated =
              let k = idx mod List.length shapes in
              let rec rot n l =
                if n = 0 then l
                else match l with [] -> [] | x :: tl -> rot (n - 1) (tl @ [ x ])
              in
              rot k shapes
            in
            List.iter
              (fun (name, sql) ->
                let got = normal_of_reply name (Server.Client.query client sql) in
                if got <> List.assoc name expected then
                  Alcotest.failf "client %d: %s diverged from sequential" idx
                    name)
              rotated;
            Server.Client.close client
          with e ->
            Mutex.lock failures;
            failed := Printexc.to_string e :: !failed;
            Mutex.unlock failures
        in
        let threads =
          List.init n_clients (fun i -> Thread.create (client_run i) ())
        in
        List.iter Thread.join threads;
        Server.Daemon.stop daemon;
        (match !failed with
        | [] -> ()
        | es -> Alcotest.failf "client failures: %s" (String.concat " | " es));
        Alcotest.(check int)
          "every query completed"
          (n_clients * List.length shapes)
          (Server.Daemon.counter_value daemon "requests_completed"));
    tc "deadline-exceeded returns Cancelled and frees the worker" `Slow
      (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1 ~queue_capacity:4 ~setup:slow_setup ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (match Server.Client.query ~deadline_ms:150 client slow_sql with
        | Server.Client.Cancelled reason ->
            Alcotest.(check bool)
              "reason mentions the deadline" true
              (contains reason "deadline")
        | _ -> Alcotest.fail "expected Cancelled");
        (* The worker must be free again: a fast query on the same
           connection completes. *)
        (match Server.Client.query client "SELECT T.ID FROM T WHERE T.W >= 0" with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "worker not freed after deadline cancel");
        Alcotest.(check int)
          "one cancelled" 1
          (Server.Daemon.counter_value daemon "requests_cancelled");
        Server.Client.close client;
        Server.Daemon.stop daemon);
    tc "queue overflow returns Overloaded; explicit cancel unwinds" `Slow
      (fun () ->
        let daemon =
          Server.Daemon.start ~workers:1 ~queue_capacity:1 ~setup:slow_setup ()
        in
        let port = Server.Daemon.port daemon in
        let a = Server.Client.connect ~port () in
        let b = Server.Client.connect ~port () in
        let c = Server.Client.connect ~port () in
        let reply_a = ref None and reply_b = ref None in
        let th_a =
          Thread.create (fun () -> reply_a := Some (Server.Client.query a slow_sql)) ()
        in
        (* wait until A's query is on the worker (queue drained again) *)
        wait_for "A accepted" (fun () ->
            Server.Daemon.counter_value daemon "requests_accepted" >= 1
            && Server.Daemon.queue_length daemon = 0);
        let th_b =
          Thread.create (fun () -> reply_b := Some (Server.Client.query b slow_sql)) ()
        in
        wait_for "B queued" (fun () -> Server.Daemon.queue_length daemon = 1);
        (* worker busy with A, queue holds B: C must be rejected *)
        (match Server.Client.query c slow_sql with
        | Server.Client.Overloaded -> ()
        | _ -> Alcotest.fail "expected Overloaded");
        Alcotest.(check bool)
          "overload counted" true
          (Server.Daemon.counter_value daemon "requests_rejected_overload" >= 1);
        (* explicit cancels unwind both the running and the queued query *)
        Server.Client.cancel a;
        Server.Client.cancel b;
        Thread.join th_a;
        Thread.join th_b;
        (match (!reply_a, !reply_b) with
        | Some (Server.Client.Cancelled ra), Some (Server.Client.Cancelled rb) ->
            Alcotest.(check bool)
              "reasons mention the client" true
              (contains ra "client" && contains rb "client")
        | _ -> Alcotest.fail "expected both slow queries cancelled");
        List.iter Server.Client.close [ a; b; c ];
        Server.Daemon.stop daemon);
    tc "every request produces a trace with queue-wait/plan/exec" `Quick
      (fun () ->
        let traces = ref [] in
        let tlock = Mutex.create () in
        let daemon =
          Server.Daemon.start ~workers:1 ~setup
            ~on_trace:(fun tr ->
              Mutex.lock tlock;
              traces := tr :: !traces;
              Mutex.unlock tlock)
            ()
        in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (match Server.Client.query client (List.assoc "J" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        (* on_trace fires just after the terminal frame *)
        wait_for "trace delivery" (fun () ->
            Mutex.lock tlock;
            let n = List.length !traces in
            Mutex.unlock tlock;
            n >= 1);
        let tr = List.hd !traces in
        let names = ref [] in
        Storage.Trace.iter_spans tr (fun sp ->
            names := Storage.Trace.span_name sp :: !names);
        List.iter
          (fun required ->
            Alcotest.(check bool)
              (required ^ " span present")
              true
              (List.mem required !names))
          [ "request"; "queue-wait"; "plan"; "exec" ];
        Alcotest.(check bool)
          "engine operator spans nest under exec" true
          (List.mem "sort" !names || List.mem "sweep" !names);
        Server.Client.close client;
        Server.Daemon.stop daemon);
    tc "metrics over the wire; per-daemon registries are isolated" `Quick
      (fun () ->
        let d1 = Server.Daemon.start ~workers:1 ~setup () in
        let d2 = Server.Daemon.start ~workers:1 ~setup () in
        let client = Server.Client.connect ~port:(Server.Daemon.port d1) () in
        (match Server.Client.query client (List.assoc "N" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        let json = Server.Client.metrics_json client in
        Alcotest.(check bool)
          "d1 metrics show the request" true
          (contains json "requests_accepted");
        Alcotest.(check int)
          "d1 counted" 1
          (Server.Daemon.counter_value d1 "requests_accepted");
        Alcotest.(check int)
          "d2 untouched" 0
          (Server.Daemon.counter_value d2 "requests_accepted");
        Server.Client.close client;
        Server.Daemon.stop d1;
        Server.Daemon.stop d2);
    tc "statically invalid queries are rejected at admission" `Quick
      (fun () ->
        let daemon = Server.Daemon.start ~workers:2 ~queue_capacity:8 ~setup () in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        (* one good query so the books carry accepted traffic too *)
        (match Server.Client.query client (List.assoc "N" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        (* semantic error: rejected with the analyzer's stable code *)
        (match Server.Client.query client "SELECT R.NOPE FROM R" with
        | Server.Client.Rejected { code; diagnostics } ->
            Alcotest.(check string) "code" "FSQL011" code;
            Alcotest.(check bool) "caret render" true
              (contains diagnostics "error[FSQL011]")
        | _ -> Alcotest.fail "expected Rejected for unknown attribute");
        (* parse error: same path, different code *)
        (match Server.Client.query client "SELECT FROM R" with
        | Server.Client.Rejected { code; _ } ->
            Alcotest.(check string) "code" "FSQL002" code
        | _ -> Alcotest.fail "expected Rejected for parse error");
        Server.Client.close client;
        Server.Daemon.stop daemon;
        let c name = Server.Daemon.counter_value daemon name in
        Alcotest.(check int) "rejections counted" 2 (c "requests_rejected_static");
        (* rejection happens before admission: the books still balance *)
        Alcotest.(check int) "accepted only the good query" 1
          (c "requests_accepted");
        Alcotest.(check int) "books balance"
          (c "requests_accepted")
          (c "requests_completed" + c "requests_cancelled"
         + c "requests_failed" + c "requests_failed_transient"));
    tc "sequential replies do not wait on a delayed ACK" `Quick (fun () ->
        (* With Nagle on and the reply written frame by frame, the Row
           frames wait for the client's delayed ACK (up to 40 ms on
           Linux) and each query's round trip is about 44 ms. Linux
           quick-ACKs the first segments of a new connection, which hides
           the stall there, so the first queries are skipped. *)
        let daemon = Server.Daemon.start ~workers:1 ~setup () in
        let client = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        Alcotest.(check bool)
          "client socket has TCP_NODELAY" true
          (Unix.getsockopt (Server.Client.fd client) Unix.TCP_NODELAY);
        let sql = List.assoc "N" shapes in
        let skip = 5 and measured = 25 in
        let times =
          List.init (skip + measured) (fun _ ->
              let t0 = Unix.gettimeofday () in
              (match Server.Client.query client sql with
              | Server.Client.Answer { rows; _ } ->
                  Alcotest.(check bool) "a many-row answer" true
                    (List.length rows > 10)
              | _ -> Alcotest.fail "expected an answer");
              Unix.gettimeofday () -. t0)
        in
        Server.Client.close client;
        Server.Daemon.stop daemon;
        let sorted =
          List.sort compare (List.filteri (fun i _ -> i >= skip) times)
        in
        let median_ms = 1000.0 *. List.nth sorted (measured / 2) in
        Alcotest.(check bool)
          (Printf.sprintf "median round trip %.2f ms < 20 ms" median_ms)
          true (median_ms < 20.0));
    tc "a failed query sends its terminal frame and nothing else" `Slow
      (fun () ->
        let fspec s =
          match Storage.Fault.parse_spec s with
          | Ok spec -> spec
          | Error m -> Alcotest.failf "bad spec %S: %s" s m
        in
        let one_attempt =
          { Server.Retry.max_attempts = 1; base_delay_s = 0.001;
            max_delay_s = 0.001; jitter = 0.0 }
        in
        let j_sql = List.assoc "J" shapes in
        (* Client.query would skip a stray Header; read raw frames. The
           Metrics request after the terminal proves no frame trails it. *)
        let frames_of ~daemon ~deadline_ms sql =
          let client =
            Server.Client.connect ~port:(Server.Daemon.port daemon) ()
          in
          let fd = Server.Client.fd client in
          Server.Wire.write_request fd
            (Server.Wire.Query { request_id = "raw"; deadline_ms; domains = 0; sql });
          let first = Server.Wire.read_reply fd in
          Server.Wire.write_request fd Server.Wire.Metrics;
          let next = Server.Wire.read_reply fd in
          Server.Client.close client;
          Server.Daemon.stop daemon;
          (first, next)
        in
        let check name ~terminal (first, next) =
          Alcotest.(check bool) (name ^ ": first frame is the terminal") true
            (terminal first);
          Alcotest.(check bool) (name ^ ": no frame after the terminal") true
            (match next with Server.Wire.Metrics_json _ -> true | _ -> false)
        in
        check "deadline"
          ~terminal:(function Server.Wire.Cancelled r -> contains r "deadline" | _ -> false)
          (frames_of ~deadline_ms:150 slow_sql
             ~daemon:(Server.Daemon.start ~workers:1 ~setup:slow_setup ()));
        check "fatal fault"
          ~terminal:(function Server.Wire.Error m -> contains m "fatal" | _ -> false)
          (frames_of ~deadline_ms:0 j_sql
             ~daemon:
               (Server.Daemon.start ~workers:1 ~retry:one_attempt
                  ~fault_spec:(fspec "read:nth=3:fatal") ~setup ()));
        check "transient give-up"
          ~terminal:(function Server.Wire.Retryable _ -> true | _ -> false)
          (frames_of ~deadline_ms:0 j_sql
             ~daemon:
               (Server.Daemon.start ~workers:1 ~retry:one_attempt
                  ~fault_spec:(fspec "read:p=1") ~setup ())));
    tc "graceful shutdown drains and is idempotent" `Quick (fun () ->
        let daemon = Server.Daemon.start ~workers:2 ~setup () in
        let port = Server.Daemon.port daemon in
        let client = Server.Client.connect ~port () in
        (match Server.Client.query client (List.assoc "N" shapes) with
        | Server.Client.Answer _ -> ()
        | _ -> Alcotest.fail "expected an answer");
        Server.Daemon.stop daemon;
        Server.Daemon.stop daemon;
        (* the listener is gone *)
        (match Server.Client.connect ~port () with
        | exception Unix.Unix_error _ -> ()
        | c ->
            (* a TIME_WAIT accept race can let one connect through, but no
               request may complete *)
            (match Server.Client.query c "SELECT T.ID FROM T" with
            | exception _ -> Server.Client.close c
            | Server.Client.Failed _ -> Server.Client.close c
            | _ -> Alcotest.fail "server answered after stop")));
  ]

let suites =
  [
    ("server wire", wire_tests);
    ("server queue", queue_tests);
    ("server daemon", daemon_tests);
  ]
