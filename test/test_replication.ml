(** Tests of WAL-shipped replication (PR 10): the storage-level shipping
    primitives ({!Frepro.Storage.Wal_stream}), the sender/replica pair
    over a real localhost socket, epoch fencing in both directions,
    promotion, the rev-3 wire frames, and the byte-for-byte rev-2
    interop guarantee. *)

open Frepro.Storage
open Frepro.Relational
module Server = Frepro.Server
module Replication = Server.Replication

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "frepro-rep-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_dir2 f = with_dir (fun a -> with_dir (fun b -> f a b))

(* ------------------------------------------------------------------ *)
(* Workload helpers *)

let schema = Schema.make ~name:"K" [ ("ID", Schema.TNum); ("X", Schema.TNum) ]

let tup i x d =
  Ftuple.make [| Value.Int i; Value.crisp_num (float_of_int x) |] d

let batch ~seed ~start n =
  let rng = Random.State.make [| 0xEE1; seed |] in
  List.init n (fun k ->
      tup (start + k)
        (Random.State.int rng 1000)
        (0.125 *. float_of_int (1 + ((start + k + seed) mod 8))))

let raw_records rel =
  List.rev
    (Frepro.Storage.Heap_file.fold (Relation.file rel) ~init:[]
       ~f:(fun acc r -> r :: acc))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let open_primary dir =
  Env.open_durable ~dir ~page_size:512 ~pool_pages:256 ~wal_sync:Wal.Always ()

(* ------------------------------------------------------------------ *)
(* Wal_stream: cursor, tail, appender, committed_state *)

let wal_stream_tests =
  [
    tc "cursor reads the live log byte-identically and detects rotation"
      `Quick (fun () ->
        with_dir (fun dir ->
            let env = open_primary dir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:1 ~start:0 25);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let e = Wal.committed_end wal in
            let cur =
              Wal_stream.Cursor.open_at ~path:(Wal.path wal)
                ~pos:Wal.header_size
            in
            let buf = Buffer.create 256 in
            let rec pump () =
              (* Tiny [max] exercises the positioned-read loop. *)
              let b = Wal_stream.Cursor.read cur ~upto:e ~max:97 in
              if Bytes.length b > 0 then begin
                Buffer.add_bytes buf b;
                pump ()
              end
            in
            pump ();
            let whole = read_file (Wal.path wal) in
            Alcotest.(check string)
              "cursor bytes = file bytes [header, committed_end)"
              (String.sub whole Wal.header_size (e - Wal.header_size))
              (Buffer.contents buf);
            Alcotest.(check int) "cursor position" e
              (Wal_stream.Cursor.pos cur);
            Alcotest.(check bool) "not rotated yet" false
              (Wal_stream.Cursor.rotated cur);
            (* Checkpoint rewrites the log via tmp+rename: same path, new
               inode — the cursor must notice. *)
            Env.flush env;
            Wal.checkpoint wal;
            Alcotest.(check bool) "rotation detected" true
              (Wal_stream.Cursor.rotated cur);
            Wal_stream.Cursor.reopen cur ~pos:Wal.header_size;
            Alcotest.(check bool) "reopen follows the new inode" false
              (Wal_stream.Cursor.rotated cur);
            Wal_stream.Cursor.close cur;
            Env.close env));
    tc "tail releases commit-bounded prefixes; appender preserves bytes"
      `Quick (fun () ->
        with_dir2 (fun a b ->
            let env = open_primary a in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:2 ~start:0 9);
            Env.commit env;
            List.iter (Relation.insert rel) (batch ~seed:3 ~start:9 14);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let e = Wal.committed_end wal in
            let whole = read_file (Wal.path wal) in
            let shipped = String.sub whole Wal.header_size (e - Wal.header_size) in
            (* Feed in 7-byte pieces plus a trailing partial frame that
               must stay buffered, draining after every feed. *)
            let tail = Wal_stream.Tail.create ~start_lsn:Wal.header_size in
            let out = Buffer.create 256 in
            let commits = ref 0 and last_end = ref Wal.header_size in
            let drain () =
              match Wal_stream.Tail.drain tail with
              | Error m -> Alcotest.fail ("tail rejected valid bytes: " ^ m)
              | Ok None -> ()
              | Ok (Some d) ->
                  Buffer.add_bytes out d.Wal_stream.Tail.bytes;
                  last_end := d.Wal_stream.Tail.new_end;
                  List.iter
                    (fun (_, r) ->
                      match r with
                      | Wal.Commit -> incr commits
                      | _ -> ())
                    d.Wal_stream.Tail.records
            in
            let n = String.length shipped in
            let i = ref 0 in
            while !i < n do
              let k = min 7 (n - !i) in
              Wal_stream.Tail.feed tail (Bytes.of_string (String.sub shipped !i k));
              drain ();
              i := !i + k
            done;
            (* A partial frame beyond the last commit stays buffered. *)
            Wal_stream.Tail.feed tail (Bytes.of_string "\x40\x00\x00\x00\x05");
            drain ();
            Alcotest.(check int) "drained exactly to committed_end" e !last_end;
            Alcotest.(check int) "next wanted byte = committed_end + partial" (e + 5)
              (Wal_stream.Tail.expected tail);
            Alcotest.(check string) "drained bytes verbatim" shipped
              (Buffer.contents out);
            Alcotest.(check int) "both commit boundaries seen" 2 !commits;
            (* Append the drained bytes behind a copied header: the
               replica-side file must re-validate with the identical
               committed state. *)
            let rpath = Filename.concat b "wal.fsql" in
            (try Unix.mkdir b 0o755
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            let fd =
              Unix.openfile rpath [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
            in
            let hdr = Bytes.of_string (String.sub whole 0 Wal.header_size) in
            assert (Unix.write fd hdr 0 Wal.header_size = Wal.header_size);
            Unix.close fd;
            let ap = Wal_stream.Appender.open_at ~path:rpath in
            Alcotest.(check int) "appender starts at header" Wal.header_size
              (Wal_stream.Appender.end_lsn ap);
            Wal_stream.Appender.append ap (Buffer.to_bytes out);
            Wal_stream.Appender.fsync ap;
            Wal_stream.Appender.close ap;
            (match Wal_stream.committed_state ~path:rpath with
            | Ok (ce, ep) ->
                Alcotest.(check int) "replayed committed_end" e ce;
                Alcotest.(check int) "epoch (never promoted)" 0 ep
            | Error m -> Alcotest.fail m);
            Alcotest.(check string) "file prefix byte-identical"
              (String.sub whole 0 e) (read_file rpath);
            Env.close env));
    tc "committed_state: torn tails and uncommitted epochs do not bind"
      `Quick (fun () ->
        with_dir (fun dir ->
            let env = open_primary dir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:4 ~start:0 12);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let e = Wal.committed_end wal in
            let path = Wal.path wal in
            (* An epoch record with no commit point after it... *)
            Wal.log_epoch wal 5;
            Env.crash env;
            (* ...plus garbage appended by a dying process. *)
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
            let junk = Bytes.of_string "\xde\xad\xbe\xef\x00\x17" in
            assert (Unix.write fd junk 0 (Bytes.length junk) = Bytes.length junk);
            Unix.close fd;
            (match Wal_stream.committed_state ~path with
            | Ok (ce, ep) ->
                Alcotest.(check int) "boundary unmoved" e ce;
                Alcotest.(check int) "uncommitted epoch invisible" 0 ep
            | Error m -> Alcotest.fail m);
            (* Once a commit point covers it, the epoch binds. *)
            let env2 = Env.open_durable ~dir () in
            let wal2 = Option.get (Env.wal env2) in
            Wal.log_epoch wal2 5;
            Wal.commit wal2;
            Env.crash env2;
            (match Wal_stream.committed_state ~path with
            | Ok (_, ep) -> Alcotest.(check int) "committed epoch binds" 5 ep
            | Error m -> Alcotest.fail m)));
  ]

(* ------------------------------------------------------------------ *)
(* Sender <-> Replica over localhost *)

let addr_of port = "127.0.0.1:" ^ string_of_int port

let e2e_tests =
  [
    tc "replica catch-up is byte-identical; semi-sync ack; lag books"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:7 ~start:0 30);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "initial catch-up (snapshot + tail)" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            Alcotest.(check int) "one snapshot served" 1
              (Replication.Sender.snapshots_sent sender);
            (* Live tail: a batch committed after sync must flow through
               and be acked (the semi-sync primitive). *)
            List.iter (Relation.insert rel) (batch ~seed:8 ~start:30 21);
            Env.commit env;
            let wal = Option.get (Env.wal env) in
            let lsn = Wal.committed_end wal in
            Alcotest.(check bool) "wait_applied observes the ack" true
              (Replication.Sender.wait_applied sender ~lsn ~timeout_s:30.0);
            Alcotest.(check int) "replica applied through the commit" lsn
              (Replication.Replica.applied_lsn replica);
            Alcotest.(check int) "caught-up sender shows zero lag" 0
              (Replication.Sender.lag_bytes sender);
            Alcotest.(check int) "one subscriber" 1
              (Replication.Sender.connected sender);
            Alcotest.(check bool) "replica staleness is finite and small" true
              (Replication.Replica.stale_ms replica < 10_000.0);
            let expected = raw_records rel in
            Replication.Replica.stop replica;
            Replication.Sender.stop sender;
            Env.crash env;
            (* Byte identity: the replica's log is exactly the primary's
               committed prefix — nothing more, nothing less. *)
            let pwal = read_file (Recovery.wal_path_of pdir) in
            let rwal = read_file (Recovery.wal_path_of rdir) in
            Alcotest.(check int) "replica log ends at the last boundary" lsn
              (String.length rwal);
            Alcotest.(check string) "replica log = primary committed prefix"
              (String.sub pwal 0 lsn) rwal;
            (* And the replicated relation is record-identical. *)
            let env2 = Env.open_durable ~dir:rdir ~readonly:true () in
            (match Catalog.find (Catalog.load_durable env2) "K" with
            | Some rel2 ->
                Alcotest.(check (list bytes)) "records bit-identical" expected
                  (raw_records rel2)
            | None -> Alcotest.fail "replicated catalog lost K");
            Env.close env2));
    tc "promotion bumps and persists the epoch; idempotent; fences both ways"
      `Quick (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let rel = Relation.create ~durable:true env schema in
            List.iter (Relation.insert rel) (batch ~seed:9 ~start:0 15);
            Env.commit env;
            let sender = Replication.Sender.create ~env in
            Alcotest.(check int) "first use adopts epoch 1" 1
              (Replication.Sender.epoch sender);
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "synced" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            (* The primary dies. *)
            Replication.Sender.stop sender;
            Env.crash env;
            let e = Replication.Replica.promote replica in
            Alcotest.(check int) "promotion lands on epoch 2" 2 e;
            Alcotest.(check int) "promote is idempotent" 2
              (Replication.Replica.promote replica);
            Alcotest.(check bool) "promoted replica is never stale" true
              (Replication.Replica.stale_ms replica = 0.0);
            Replication.Replica.stop replica;
            (* The bumped epoch is durable in the replica's log. *)
            (match
               Wal_stream.committed_state ~path:(Recovery.wal_path_of rdir)
             with
            | Ok (_, ep) -> Alcotest.(check int) "epoch persisted" 2 ep
            | Error m -> Alcotest.fail m);
            (* Fencing drill: a zombie sender on the dead primary's
               directory is still at epoch 1; the epoch-2 replica must
               reject its stream and the zombie must count the fence. *)
            let zombie = Replication.Sender.create_for_dir ~dir:pdir in
            Alcotest.(check int) "zombie still at epoch 1" 1
              (Replication.Sender.epoch zombie);
            let zport = Replication.Sender.listen ~port:0 zombie in
            let r2 =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of zport) ()
            in
            Replication.Replica.start r2;
            let deadline = Unix.gettimeofday () +. 10.0 in
            while
              Replication.Replica.fenced_rejects r2 = 0
              && Unix.gettimeofday () < deadline
            do
              Thread.yield ();
              Unix.sleepf 0.01
            done;
            Replication.Replica.stop r2;
            Alcotest.(check bool) "replica rejected the stale stream" true
              (Replication.Replica.fenced_rejects r2 >= 1);
            Alcotest.(check bool) "zombie sender fenced the subscriber" true
              (Replication.Sender.fenced zombie >= 1);
            Replication.Sender.stop zombie));
  ]

(* ------------------------------------------------------------------ *)
(* Wake-ups: the semi-sync path is woken by the state it waits on, and
   every timed wake-up (deadline, heartbeat, stop) still ends on time *)

(* A primary with one synced [Sender.listen] replica; both stopped and
   the primary closed afterwards. *)
let with_pair ?(wal_sync = Wal.Always) f =
  with_dir2 (fun pdir rdir ->
      let env =
        Env.open_durable ~dir:pdir ~page_size:512 ~pool_pages:256 ~wal_sync ()
      in
      let rel = Relation.create ~durable:true env schema in
      Env.commit env;
      let sender = Replication.Sender.create ~env in
      let port = Replication.Sender.listen ~port:0 sender in
      let replica =
        Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
      in
      Replication.Replica.start replica;
      Fun.protect
        ~finally:(fun () ->
          Replication.Replica.stop replica;
          Replication.Sender.stop sender;
          Env.close env)
        (fun () ->
          Alcotest.(check bool) "replica synced" true
            (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
          f env rel sender replica))

let elapsed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* A TCP port nothing listens on: bound, then released. *)
let closed_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  Unix.close fd;
  port

let wake_tests =
  [
    tc "semi-sync latency: median wait_applied under 5 ms" `Quick (fun () ->
        (* WAL [Never] keeps the primary's fsync out of the timing: what
           is left is shipping, the replica's append + fsync, and the
           ack. A sender that sleeps whenever it is caught up makes each
           round wait out the rest of its sleep instead. *)
        with_pair ~wal_sync:Wal.Never (fun env rel sender _replica ->
            let wal = Option.get (Env.wal env) in
            let waits =
              List.init 30 (fun k ->
                  List.iter (Relation.insert rel) (batch ~seed:k ~start:(4 * k) 4);
                  Env.commit env;
                  let acked, dt =
                    elapsed (fun () ->
                        Replication.Sender.wait_applied sender
                          ~lsn:(Wal.committed_end wal) ~timeout_s:10.0)
                  in
                  Alcotest.(check bool) "acked" true acked;
                  dt)
            in
            let steady =
              List.sort compare (List.filteri (fun i _ -> i >= 5) waits)
            in
            let median = List.nth steady (List.length steady / 2) in
            if median >= 0.005 then
              Alcotest.failf "median wait_applied %.2f ms (want < 5 ms)"
                (1000.0 *. median)));
    tc "wait_applied with no subscriber times out on time" `Quick (fun () ->
        with_dir (fun pdir ->
            let env = open_primary pdir in
            let sender = Replication.Sender.create ~env in
            let lsn = Wal.committed_end (Option.get (Env.wal env)) in
            let acked, dt =
              elapsed (fun () ->
                  Replication.Sender.wait_applied sender ~lsn ~timeout_s:0.3)
            in
            Replication.Sender.stop sender;
            Env.close env;
            Alcotest.(check bool) "not acked" false acked;
            Alcotest.(check bool)
              (Printf.sprintf "returned after %.3f s, within timeout + 0.5 s" dt)
              true
              (dt >= 0.3 && dt < 0.8)));
    tc "Sender.stop ends a blocked wait_applied" `Quick (fun () ->
        with_dir (fun pdir ->
            let env = open_primary pdir in
            let sender = Replication.Sender.create ~env in
            let lsn = Wal.committed_end (Option.get (Env.wal env)) in
            let result = ref None in
            let waiter =
              Thread.create
                (fun () ->
                  let acked =
                    Replication.Sender.wait_applied sender ~lsn ~timeout_s:30.0
                  in
                  result := Some (acked, Unix.gettimeofday ()))
                ()
            in
            Unix.sleepf 0.1;
            let stopped_at = Unix.gettimeofday () in
            Replication.Sender.stop sender;
            Thread.join waiter;
            Env.close env;
            match !result with
            | None -> Alcotest.fail "waiter never returned"
            | Some (acked, at) ->
                Alcotest.(check bool) "not acked" false acked;
                Alcotest.(check bool)
                  (Printf.sprintf "returned %.3f s after stop, within 0.5 s"
                     (at -. stopped_at))
                  true
                  (at -. stopped_at < 0.5)));
    tc "Sender.stop with an idle subscriber returns within 1 s" `Quick
      (fun () ->
        with_dir2 (fun pdir rdir ->
            let env = open_primary pdir in
            let sender = Replication.Sender.create ~env in
            let port = Replication.Sender.listen ~port:0 sender in
            let replica =
              Replication.Replica.create ~dir:rdir ~primary:(addr_of port) ()
            in
            Replication.Replica.start replica;
            Alcotest.(check bool) "synced" true
              (Replication.Replica.wait_synced ~timeout_s:30.0 replica);
            Unix.sleepf 0.3;
            let (), dt = elapsed (fun () -> Replication.Sender.stop sender) in
            Replication.Replica.stop replica;
            Env.close env;
            Alcotest.(check bool)
              (Printf.sprintf "stop took %.3f s" dt)
              true (dt < 1.0)));
    tc "wait_synced on an unreachable primary times out on time" `Quick
      (fun () ->
        with_dir (fun rdir ->
            let replica =
              Replication.Replica.create ~dir:rdir
                ~primary:(addr_of (closed_port ()))
                ()
            in
            Replication.Replica.start replica;
            let synced, dt =
              elapsed (fun () ->
                  Replication.Replica.wait_synced ~timeout_s:0.4 replica)
            in
            Replication.Replica.stop replica;
            Alcotest.(check bool) "never synced" false synced;
            Alcotest.(check bool)
              (Printf.sprintf "returned after %.3f s, near its 0.4 s timeout" dt)
              true
              (dt >= 0.4 && dt < 0.9)));
    tc "heartbeats keep an idle replica fresh" `Quick (fun () ->
        with_pair (fun _env _rel _sender replica ->
            let worst = ref 0.0 in
            for _ = 1 to 15 do
              Unix.sleepf 0.1;
              worst := Float.max !worst (Replication.Replica.stale_ms replica)
            done;
            Alcotest.(check bool)
              (Printf.sprintf "worst stale_ms %.0f over 1.5 s idle" !worst)
              true (!worst < 1000.0)));
  ]

(* ------------------------------------------------------------------ *)
(* Wire protocol: rev-3 frames and the rev-2 interop guarantee *)

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

(* Raw frame I/O, independent of the Wire codecs — what a foreign client
   implementation would do. *)
let raw_u32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let raw_str buf s =
  raw_u32 buf (String.length s);
  Buffer.add_string buf s

let raw_frame payload =
  let frame = Buffer.create 64 in
  raw_u32 frame (Buffer.length payload);
  Buffer.add_buffer frame payload;
  Buffer.contents frame

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then go (off + Unix.write fd b off (n - off))
  in
  go 0

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then begin
      let k = Unix.read fd b off (n - off) in
      if k = 0 then failwith "peer closed mid-frame";
      go (off + k)
    end
  in
  go 0;
  b

let read_raw_frame fd =
  let hdr = read_exact fd 4 in
  let len =
    (Char.code (Bytes.get hdr 0) lsl 24)
    lor (Char.code (Bytes.get hdr 1) lsl 16)
    lor (Char.code (Bytes.get hdr 2) lsl 8)
    lor Char.code (Bytes.get hdr 3)
  in
  Bytes.to_string (read_exact fd len)

let wire_tests =
  [
    tc "rev-3 replication frames round-trip exactly" `Quick (fun () ->
        Alcotest.(check int) "protocol rev" 3 Server.Wire.protocol_rev;
        List.iter
          (fun req ->
            Alcotest.(check bool) "request" true (roundtrip_request req = req))
          [
            Server.Wire.Rep_subscribe
              { epoch = 3; stream_id = 0x123456789ABCL; from_lsn = 7781 };
            Server.Wire.Rep_subscribe
              { epoch = 0; stream_id = 0L; from_lsn = 0 };
            Server.Wire.Rep_ack { epoch = 2; applied_lsn = 1_048_583 };
            Server.Wire.Promote;
          ];
        List.iter
          (fun reply ->
            Alcotest.(check bool) "reply" true (roundtrip_reply reply = reply))
          [
            Server.Wire.Rep_hello
              {
                epoch = 2;
                stream_id = Int64.max_int;
                page_size = 8192;
                snapshot = true;
                start_lsn = 4096;
                data_len = 123_456;
              };
            Server.Wire.Rep_chunk
              {
                kind = Server.Wire.Data_chunk;
                off = 0;
                data = "\x00\x01\xff binary \n bytes\x00";
              };
            Server.Wire.Rep_chunk
              { kind = Server.Wire.Wal_chunk; off = 65_536; data = "" };
            Server.Wire.Rep_wal
              { epoch = 1; start_lsn = 8; primary_end = 99; data = "\xca\xfe" };
            (* empty data = heartbeat *)
            Server.Wire.Rep_wal
              { epoch = 1; start_lsn = 99; primary_end = 99; data = "" };
            Server.Wire.Rep_fence { epoch = 7 };
            Server.Wire.Promoted { epoch = 2 };
          ]);
    tc "rev-2 client / rev-3 daemon: byte-for-byte interop" `Quick (fun () ->
        (* A rev-2 client's Query frame, crafted byte by byte: tag 'q',
           request ID, deadline, domains, SQL — exactly as PR 7 shipped
           it. The rev-3 daemon must serve it, answer only with rev-2
           reply tags, and the rev-3 encoder must still emit the
           identical bytes for the same request. *)
        let sql =
          "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)"
        in
        let rid = "deadbeef01234567" in
        let payload = Buffer.create 64 in
        Buffer.add_char payload 'q';
        raw_str payload rid;
        raw_u32 payload 10_000;
        raw_u32 payload 0;
        raw_str payload sql;
        let raw = raw_frame payload in
        (* Byte identity of the rev-3 encoder on a rev-2 frame. *)
        let r, w = Unix.pipe () in
        Server.Wire.write_request w
          (Server.Wire.Query
             { request_id = rid; deadline_ms = 10_000; domains = 0; sql });
        let reencoded =
          Bytes.to_string (read_exact r (String.length raw))
        in
        close_noerr w;
        close_noerr r;
        Alcotest.(check string) "rev-3 encoding of a rev-2 query" raw reencoded;
        (* Serve it. *)
        let daemon =
          Server.Daemon.start ~workers:1
            ~setup:(Server.Demo.server_setup ~seed:11 ())
            ()
        in
        Fun.protect
          ~finally:(fun () -> Server.Daemon.stop daemon)
          (fun () ->
            let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> close_noerr sock)
              (fun () ->
                Unix.connect sock
                  (Unix.ADDR_INET
                     (Unix.inet_addr_loopback, Server.Daemon.port daemon));
                write_all sock raw;
                let rev2_reply_tags = [ 'H'; 'R'; 'D'; 'E'; 'T'; 'O'; 'S'; 'C' ] in
                let rows = ref 0 and header = ref false and fin = ref false in
                while not !fin do
                  let frame = read_raw_frame sock in
                  let tag = frame.[0] in
                  Alcotest.(check bool)
                    (Printf.sprintf "reply tag %C is a rev-2 tag" tag)
                    true
                    (List.mem tag rev2_reply_tags);
                  match tag with
                  | 'H' -> header := true
                  | 'R' -> incr rows
                  | 'D' -> fin := true
                  | t ->
                      Alcotest.fail
                        (Printf.sprintf "unexpected terminal %C" t)
                done;
                Alcotest.(check bool) "header arrived" true !header;
                Alcotest.(check bool) "rows arrived" true (!rows > 0);
                (* A rev-2 Metrics frame on the same connection. *)
                let m = Buffer.create 4 in
                Buffer.add_char m 'M';
                write_all sock (raw_frame m);
                let frame = read_raw_frame sock in
                Alcotest.(check char) "metrics answered with rev-2 'J'" 'J'
                  frame.[0])));
    tc "Client.connect honours the connect deadline" `Quick (fun () ->
        (* A listener whose accept queue is saturated drops further SYNs,
           so a fresh connect hangs in retransmission — exactly the
           blackholed-primary case the applier's reconnect path hits. *)
        let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt srv Unix.SO_REUSEADDR true;
        Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen srv 1;
        let port =
          match Unix.getsockname srv with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> assert false
        in
        let stuffers =
          List.init 8 (fun _ ->
              let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
              Unix.set_nonblock c;
              (try
                 Unix.connect c
                   (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
               with
              | Unix.Unix_error
                  ( (Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN),
                    _,
                    _ ) ->
                  ());
              c)
        in
        Unix.sleepf 0.05;
        let t0 = Unix.gettimeofday () in
        let timed_out =
          try
            let c = Server.Client.connect ~timeout_ms:300 ~port () in
            Server.Client.close c;
            false
          with Server.Client.Connect_timeout -> true
        in
        let dt = Unix.gettimeofday () -. t0 in
        List.iter close_noerr stuffers;
        close_noerr srv;
        Alcotest.(check bool) "raised Connect_timeout" true timed_out;
        Alcotest.(check bool) "within a bounded window" true
          (dt >= 0.25 && dt < 3.0));
  ]

let suites =
  [
    ("replication.wal-stream", wal_stream_tests);
    ("replication.e2e", e2e_tests);
    ("replication.wake", wake_tests);
    ("replication.wire", wire_tests);
  ]
