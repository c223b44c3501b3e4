(** Tests of the durable storage subsystem: real-disk backend with page
    checksums, write-ahead log, group commit, crash recovery, and the
    durable catalog. *)

open Frepro.Storage
open Frepro.Relational

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
      (Printf.sprintf "frepro-rec-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Workload helpers *)

let schema = Schema.make ~name:"K" [ ("ID", Schema.TNum); ("X", Schema.TNum) ]

let tup i x d =
  Ftuple.make [| Value.Int i; Value.crisp_num (float_of_int x) |] d

let batch ~seed ~start n =
  let rng = Random.State.make [| 0xD15C; seed |] in
  List.init n (fun k ->
      tup (start + k)
        (Random.State.int rng 1000)
        (0.125 *. float_of_int (1 + ((start + k + seed) mod 8))))

(* Bit-exact state of a relation: the raw heap records in scan order. *)
let raw_records rel =
  List.rev
    (Frepro.Storage.Heap_file.fold (Relation.file rel) ~init:[]
       ~f:(fun acc r -> r :: acc))

let check_raw msg expected actual =
  Alcotest.(check (list bytes)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Real disk basics *)

let real_disk_tests =
  [
    tc "roundtrip survives reopen, counts I/O" `Quick (fun () ->
        with_dir (fun dir ->
            let stats = Iostats.create () in
            let d = Real_disk.create ~page_size:128 ~dir stats in
            let p = Real_disk.alloc d in
            let buf = Bytes.init 128 (fun i -> Char.chr (i mod 251)) in
            Real_disk.write ~lsn:17 d p buf;
            Alcotest.(check bytes) "read back" buf (Real_disk.read d p);
            Alcotest.(check int) "reads" 1 (Iostats.page_reads stats);
            Alcotest.(check int) "writes" 1 (Iostats.page_writes stats);
            Real_disk.close d;
            let d2 = Real_disk.open_existing ~dir (Iostats.create ()) in
            let payload, lsn = Real_disk.read_with_lsn d2 p in
            Alcotest.(check bytes) "survives reopen" buf payload;
            Alcotest.(check int) "lsn stamped" 17 lsn;
            Real_disk.close d2));
    tc "alloc zeroes recycled pages on disk" `Quick (fun () ->
        with_dir (fun dir ->
            let d = Real_disk.create ~page_size:64 ~dir (Iostats.create ()) in
            let p = Real_disk.alloc d in
            Real_disk.write d p (Bytes.make 64 'z');
            Real_disk.free d [ p ];
            let p2 = Real_disk.alloc d in
            Alcotest.(check int) "page reused" p p2;
            Alcotest.(check bytes) "zeroed" (Bytes.make 64 '\000')
              (Real_disk.read d p2);
            Real_disk.close d));
    tc "bad page id raises the shared typed error" `Quick (fun () ->
        with_dir (fun dir ->
            let d = Real_disk.create ~dir (Iostats.create ()) in
            Alcotest.(check bool) "Bad_page" true
              (try
                 ignore (Real_disk.read d 7);
                 false
               with Sim_disk.Bad_page { page = 7; num_pages = 0 } -> true);
            Real_disk.close d));
    tc "page_size above 65536 rejected" `Quick (fun () ->
        (* The WAL encodes in-page offsets as u16; larger pages would
           silently truncate redo offsets. *)
        with_dir (fun dir ->
            Alcotest.(check bool) "Invalid_argument" true
              (try
                 ignore
                   (Real_disk.create ~page_size:65537 ~dir (Iostats.create ()));
                 false
               with Invalid_argument _ -> true)));
    tc "torn write leaves a detectable page" `Quick (fun () ->
        with_dir (fun dir ->
            let d = Real_disk.create ~page_size:256 ~dir (Iostats.create ()) in
            let p = Real_disk.alloc d in
            Real_disk.write d p (Bytes.make 256 'a');
            (match Fault.parse_spec "torn:nth=1" with
            | Ok spec -> Real_disk.set_fault d (Some (Fault.create spec))
            | Error m -> Alcotest.fail m);
            (try
               Real_disk.write d p (Bytes.make 256 'b');
               Alcotest.fail "torn write did not raise"
             with Fault.Injected { kind = Fault.Torn_write; _ } -> ());
            Real_disk.set_fault d None;
            Alcotest.(check bool) "tear detected on read" true
              (try
                 ignore (Real_disk.read d p);
                 false
               with Real_disk.Checksum_mismatch { page; _ } -> page = p);
            Real_disk.close d));
  ]

(* ------------------------------------------------------------------ *)
(* Durable environment: commit / crash / recover *)

let committed_roundtrip () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:8 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:1 ~start:0 40) in
      let expected = raw_records rel in
      Env.commit env;
      Env.crash env;
      let env2 = Env.open_durable ~dir ~pool_pages:8 () in
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          Alcotest.(check int) "cardinality" 40 (Relation.cardinality rel2);
          check_raw "bit-identical records" expected (raw_records rel2);
          Alcotest.(check bool) "schema survives" true
            (Schema.attrs (Relation.schema rel2) = Schema.attrs schema));
      Env.close env2)

let uncommitted_tail_rolled_back () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 ~pool_pages:32 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:2 ~start:0 20) in
      Env.commit env;
      let expected = raw_records rel in
      (* Appended but never committed nor flushed: must vanish. *)
      List.iter (Relation.insert rel) (batch ~seed:3 ~start:20 15);
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      (match Env.recovery env2 with
      | Some r -> Alcotest.(check bool) "not clean or clean both fine" true (r.Recovery.replayed >= 0)
      | None -> Alcotest.fail "writable open must report recovery");
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          Alcotest.(check int) "only committed tuples" 20
            (Relation.cardinality rel2);
          check_raw "committed prefix bit-identical" expected (raw_records rel2));
      Env.close env2)

let eviction_forces_commit () =
  with_dir (fun dir ->
      (* Pool of 2 frames over many pages: appends force evictions, and
         each evicted dirty page must force a covering commit (WAL rule +
         no-uncommitted-data). After a crash with NO explicit commit, the
         recovered state must be a prefix of the inserted sequence. *)
      let env = Env.open_durable ~dir ~page_size:256 ~pool_pages:2 () in
      let rel = Relation.create ~durable:true env schema in
      let tuples = batch ~seed:4 ~start:0 60 in
      List.iter (Relation.insert rel) tuples;
      let all = raw_records rel in
      (match Env.wal env with
      | Some w -> Alcotest.(check bool) "evictions forced commits" true (Wal.commits w > 0)
      | None -> Alcotest.fail "durable env has no wal");
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          let got = raw_records rel2 in
          let n = List.length got in
          Alcotest.(check bool) "some records survived" true (n > 0);
          check_raw "recovered state is an exact inserted prefix"
            (List.filteri (fun i _ -> i < n) all)
            got);
      Env.close env2)

let torn_wal_tail_truncated () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:5 ~start:0 10) in
      let expected = raw_records rel in
      ignore rel;
      Env.commit env;
      Env.close env;
      (* Simulate a torn append: garbage past the last commit point. *)
      let wal_path = Recovery.wal_path_of dir in
      let fd = Unix.openfile wal_path [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
      let junk = Bytes.of_string "\x42\x13\x37garbage-torn-tail" in
      ignore (Unix.write fd junk 0 (Bytes.length junk));
      Unix.close fd;
      let env2 = Env.open_durable ~dir () in
      (match Env.recovery env2 with
      | Some r ->
          Alcotest.(check bool) "tail truncated" true (r.Recovery.truncated_bytes > 0)
      | None -> Alcotest.fail "no recovery report");
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 -> check_raw "state intact" expected (raw_records rel2));
      Env.close env2)

let checkpoint_bounds_replay () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let rel = Relation.of_list ~durable:true env schema (batch ~seed:6 ~start:0 30) in
      Env.checkpoint env;
      (match Env.wal env with
      | Some w ->
          Alcotest.(check int) "log rewritten to one snapshot record" 1
            (let s = Wal.scan (Wal.path w) in
             List.length s.Wal.scan_records)
      | None -> Alcotest.fail "no wal");
      List.iter (Relation.insert rel) (batch ~seed:7 ~start:30 10);
      Env.commit env;
      let expected = raw_records rel in
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      (match Env.recovery env2 with
      | Some r ->
          (* Replay covers only the post-checkpoint delta, not the
             original 30 tuples. *)
          Alcotest.(check bool) "bounded replay" true (r.Recovery.replayed < 30)
      | None -> Alcotest.fail "no recovery report");
      let cat = Catalog.load_durable env2 in
      (match Catalog.find cat "K" with
      | None -> Alcotest.fail "relation lost"
      | Some rel2 ->
          Alcotest.(check int) "all 40 tuples" 40 (Relation.cardinality rel2);
          check_raw "bit-identical" expected (raw_records rel2));
      (* A second open finds a clean log: recovery already checkpointed. *)
      Env.close env2;
      let env3 = Env.open_durable ~dir () in
      (match Env.recovery env3 with
      | Some r -> Alcotest.(check bool) "clean" true r.Recovery.clean
      | None -> Alcotest.fail "no recovery report");
      Env.close env3)

let readonly_worker_open () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let _ = Relation.of_list ~durable:true env schema (batch ~seed:8 ~start:0 25) in
      Env.close env;
      (* Two read-only opens (shared-nothing workers) see the same data. *)
      let w1 = Env.open_durable ~dir ~readonly:true () in
      let w2 = Env.open_durable ~dir ~readonly:true () in
      let read env =
        match Catalog.find (Catalog.load_durable env) "K" with
        | Some rel -> raw_records rel
        | None -> Alcotest.fail "relation lost"
      in
      let r1 = read w1 and r2 = read w2 in
      check_raw "workers agree" r1 r2;
      Alcotest.(check int) "cardinality" 25 (List.length r1);
      (* Mutation through a read-only env is rejected. *)
      Alcotest.(check bool) "durable create rejected" true
        (try
           ignore (Relation.create ~durable:true w1 schema);
           false
         with Wal.Read_only _ | Invalid_argument _ -> true);
      Env.close w1;
      Env.close w2)

let flush_and_reset_stats_contract () =
  with_dir (fun dir ->
      let env = Env.open_durable ~dir ~page_size:512 () in
      let rel = Relation.create ~durable:true env schema in
      List.iter (Relation.insert rel) (batch ~seed:9 ~start:0 12);
      Env.flush env;
      (* After flush the pages are on the device (checksummed); commit
         was forced by the WAL rule before each write-back. *)
      (match Disk.as_real env.Env.disk with
      | Some d ->
          List.iter
            (fun (_, _, pages) ->
              Array.iter (fun p -> ignore (Real_disk.read d p)) pages)
            (Env.manifest env)
      | None -> Alcotest.fail "not durable");
      let expected = raw_records rel in
      (* reset_stats drops the pool; drop flushes first, so nothing is
         lost and the data is re-readable from disk. *)
      Env.reset_stats env;
      Alcotest.(check int) "stats zeroed" 0 (Iostats.total_ios env.Env.stats);
      check_raw "records survive a drop" expected (raw_records rel);
      Env.close env)

let eviction_during_image_capture () =
  with_dir (fun dir ->
      (* Regression: appending to a pre-checkpoint page logs a full page
         image first, and capturing that image reads through the buffer
         pool. With a 2-frame pool that read can evict a dirty logged
         frame, whose write-back re-enters the WAL via
         [ensure_committed] — so the image callback must run with the
         WAL mutex released (self-deadlock otherwise). Three appends to
         three distinct pre-checkpoint tail pages guarantee that by the
         third, both pool frames hold dirty logged pages and the
         image-capture read must evict one. *)
      let env = Env.open_durable ~dir ~page_size:256 ~pool_pages:2 () in
      let mk seed name =
        let schema =
          Schema.make ~name [ ("ID", Schema.TNum); ("X", Schema.TNum) ]
        in
        Relation.of_list ~durable:true env schema (batch ~seed ~start:0 4)
      in
      let rels = [ mk 21 "A"; mk 22 "B"; mk 23 "C" ] in
      Env.checkpoint env;
      List.iter
        (fun rel -> List.iter (Relation.insert rel) (batch ~seed:31 ~start:4 2))
        rels;
      Env.commit env;
      let expected = List.map raw_records rels in
      Env.crash env;
      let env2 = Env.open_durable ~dir () in
      let cat = Catalog.load_durable env2 in
      List.iteri
        (fun i name ->
          match Catalog.find cat name with
          | None -> Alcotest.fail (name ^ " lost")
          | Some rel ->
              check_raw (name ^ " bit-identical") (List.nth expected i)
                (raw_records rel))
        [ "A"; "B"; "C" ];
      Env.close env2)

let oob_heap_append_is_corrupt () =
  with_dir (fun dir ->
      (* A CRC-valid log paired with a smaller-paged data file must
         surface as a typed [Recovery.Corrupt], not abort redo with an
         untyped [Invalid_argument] from an out-of-bounds blit. *)
      Unix.mkdir dir 0o755;
      let wal = Wal.create ~path:(Recovery.wal_path_of dir) ~mode:Wal.Always in
      let fid = Wal.new_file wal in
      ignore (Wal.log_alloc wal ~fid ~page:0);
      ignore
        (Wal.log_heap_append wal ~page:0 ~off:60_000 ~count:1
           ~data:(Bytes.make 100 'x')
           ~image:(fun () -> Bytes.empty));
      Wal.commit wal;
      Wal.close wal;
      Alcotest.(check bool) "Corrupt" true
        (try
           ignore (Recovery.recover ~page_size:256 ~dir (Iostats.create ()));
           false
         with Recovery.Corrupt _ -> true))

let env_tests =
  [
    tc "commit survives crash bit-identically" `Quick committed_roundtrip;
    tc "uncommitted tail rolled back" `Quick uncommitted_tail_rolled_back;
    tc "eviction forces a covering commit" `Quick eviction_forces_commit;
    tc "image capture under eviction pressure" `Quick
      eviction_during_image_capture;
    tc "out-of-bounds heap append is Corrupt" `Quick oob_heap_append_is_corrupt;
    tc "torn WAL tail truncated on recovery" `Quick torn_wal_tail_truncated;
    tc "checkpoint bounds replay" `Quick checkpoint_bounds_replay;
    tc "read-only worker opens" `Quick readonly_worker_open;
    tc "flush / reset_stats contract" `Quick flush_and_reset_stats_contract;
  ]

(* ------------------------------------------------------------------ *)
(* Group commit *)

let group_commit_threads () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let wal =
        Wal.create ~path:(Recovery.wal_path_of dir) ~mode:Wal.Group
      in
      let n_threads = 4 and per_thread = 25 in
      let threads =
        List.init n_threads (fun ti ->
            Thread.create
              (fun () ->
                for k = 1 to per_thread do
                  let fid = Wal.new_file wal in
                  Wal.log_define wal ~fid
                    ~meta:(Bytes.of_string (Printf.sprintf "t%d-%d" ti k));
                  Wal.commit wal
                done)
              ())
      in
      List.iter Thread.join threads;
      let total = n_threads * per_thread in
      (* Concurrent commits may coalesce: a Commit record appended by
         one thread can cover another's records, in which case the
         covered [Wal.commit] appends no record of its own — it still
         returns only after its records are durable (checked below by
         re-scanning the log). *)
      Alcotest.(check bool) "commit records appended, possibly coalesced" true
        (let c = Wal.commits wal in c > 0 && c <= total);
      Alcotest.(check bool) "group batching never exceeds commit calls" true
        (Wal.fsyncs wal <= total);
      Wal.close wal;
      (* The log is clean and complete: every define survived. *)
      let s = Wal.scan (Recovery.wal_path_of dir) in
      Alcotest.(check int) "no torn tail" s.Wal.scan_file_len s.Wal.scan_valid_end;
      let defines =
        List.length
          (List.filter
             (fun (_, r) -> match r with Wal.Define _ -> true | _ -> false)
             s.Wal.scan_records)
      in
      Alcotest.(check int) "all defines durable" total defines)

(* ------------------------------------------------------------------ *)
(* Shippable end: what the replication sender streams *)

let file_contents path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [Wal.shippable_end] never runs ahead of the bytes an independent fd
   sees, and is a commit boundary: a replica-side tail fed exactly those
   bytes drains all of them. *)
let shippable_ok wal =
  let e = Wal.shippable_end wal in
  let visible = file_contents (Wal.path wal) in
  e <= String.length visible
  && (e = Wal.header_size
     ||
     let tail = Wal_stream.Tail.create ~start_lsn:Wal.header_size in
     Wal_stream.Tail.feed tail
       (Bytes.of_string
          (String.sub visible Wal.header_size (e - Wal.header_size)));
     match Wal_stream.Tail.drain tail with
     | Ok (Some d) -> d.Wal_stream.Tail.new_end = e
     | Ok None | Error _ -> false)

let prop_shippable_end =
  QCheck.Test.make ~count:15
    ~name:"shippable_end: visible, a commit boundary, = committed_end after commit"
    QCheck.(int_bound 10_000)
    (fun seed ->
      List.for_all
        (fun mode ->
          with_dir (fun dir ->
              Unix.mkdir dir 0o755;
              let wal = Wal.create ~path:(Recovery.wal_path_of dir) ~mode in
              let rng = Random.State.make [| seed; 0x5E1D |] in
              let ok = ref (shippable_ok wal) in
              for step = 1 to 40 do
                (* One checkpoint mid-run in every mode, others at random. *)
                if step = 20 || Random.State.int rng 12 = 0 then
                  Wal.checkpoint wal
                else if Random.State.bool rng then begin
                  let fid = Wal.new_file wal in
                  Wal.log_define wal ~fid
                    ~meta:(Bytes.make (Random.State.int rng 300) 'm')
                end
                else begin
                  Wal.commit wal;
                  ok := !ok && Wal.shippable_end wal = Wal.committed_end wal
                end;
                ok := !ok && shippable_ok wal
              done;
              Wal.close wal;
              !ok))
        [ Wal.Always; Wal.Group; Wal.Never ])

(* Group commit moves the shippable end while other committers append:
   a concurrent reader must never see it ahead of the file or off a
   boundary. *)
let shippable_end_concurrent () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let wal = Wal.create ~path:(Recovery.wal_path_of dir) ~mode:Wal.Group in
      let writing = ref true and samples = ref 0 and bad = ref 0 in
      let sampler =
        Thread.create
          (fun () ->
            while !writing do
              if not (shippable_ok wal) then incr bad;
              incr samples;
              Thread.yield ()
            done)
          ()
      in
      while !samples = 0 do
        Thread.yield ()
      done;
      let writers =
        List.init 3 (fun ti ->
            Thread.create
              (fun () ->
                for k = 1 to 30 do
                  let fid = Wal.new_file wal in
                  Wal.log_define wal ~fid
                    ~meta:(Bytes.of_string (Printf.sprintf "w%d-%d" ti k));
                  Wal.commit wal
                done)
              ())
      in
      List.iter Thread.join writers;
      writing := false;
      Thread.join sampler;
      Alcotest.(check bool) "sampled while writing" true (!samples > 0);
      Alcotest.(check int) "samples off a visible boundary" 0 !bad;
      Alcotest.(check int) "caught up once writers return"
        (Wal.committed_end wal) (Wal.shippable_end wal);
      Wal.close wal)

let wal_tests =
  [
    tc "group commit: concurrent committers all durable" `Quick group_commit_threads;
    tc "shippable_end under concurrent group commit" `Quick
      shippable_end_concurrent;
  ]

(* ------------------------------------------------------------------ *)
(* qcheck: any single-byte corruption of a persisted page is detected *)

let prop_corruption_detected =
  QCheck.Test.make ~count:150
    ~name:"single-byte corruption always raises Checksum_mismatch"
    QCheck.(triple (int_bound 10_000) (int_bound 10_000) (int_range 1 255))
    (fun (seed, off_sel, xor) ->
      with_dir (fun dir ->
          let page_size = 256 in
          let stats = Iostats.create () in
          let d = Real_disk.create ~page_size ~dir stats in
          let rng = Random.State.make [| seed |] in
          let n_pages = 1 + Random.State.int rng 4 in
          let pages =
            List.init n_pages (fun _ ->
                let p = Real_disk.alloc d in
                Real_disk.write ~lsn:(Random.State.int rng 1000) d p
                  (Bytes.init page_size (fun _ ->
                       Char.chr (Random.State.int rng 256)));
                p)
          in
          Real_disk.close d;
          (* Flip one byte anywhere inside a random page's slot (payload
             or trailer — both are protected). *)
          let victim = List.nth pages (Random.State.int rng n_pages) in
          let slot = page_size + 16 in
          let off = 4096 + (victim * slot) + (off_sel mod slot) in
          let fd = Unix.openfile (Filename.concat dir "data.fsql") [ Unix.O_RDWR ] 0o644 in
          let b = Bytes.create 1 in
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.read fd b 0 1);
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor xor));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1);
          Unix.close fd;
          let d2 = Real_disk.open_existing ~dir (Iostats.create ()) in
          let detected =
            try
              ignore (Real_disk.read d2 victim);
              false
            with Real_disk.Checksum_mismatch { page; _ } -> page = victim
          in
          Real_disk.close d2;
          detected))

(* ------------------------------------------------------------------ *)
(* qcheck: crash at a random WAL offset recovers exactly the last
   committed state *)

let prop_crash_offset_determinism =
  QCheck.Test.make ~count:60
    ~name:"crash at random WAL offset -> last committed state, bit-identical"
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (seed, cut_sel) ->
      with_dir (fun dir ->
          (* Build batches with a commit after each; the pool is large
             enough that nothing is evicted, so the WAL alone carries
             the state and any cut offset is a physically possible
             crash point. Record the raw state at every commit. *)
          let env =
            Env.open_durable ~dir ~page_size:512 ~pool_pages:256
              ~wal_sync:Wal.Always ()
          in
          let rng = Random.State.make [| seed |] in
          let n_batches = 1 + Random.State.int rng 4 in
          let rel = Relation.create ~durable:true env schema in
          let wal = Option.get (Env.wal env) in
          let states = ref [ (Wal.committed_end wal, []) ] in
          let count = ref 0 in
          for b = 1 to n_batches do
            let n = 1 + Random.State.int rng 12 in
            List.iter (Relation.insert rel) (batch ~seed:(seed + b) ~start:!count n);
            count := !count + n;
            Env.commit env;
            states := (Wal.committed_end wal, raw_records rel) :: !states
          done;
          Env.crash env;
          (* Cut the log at a random offset (>= header) and recover. *)
          let wal_path = Recovery.wal_path_of dir in
          let len = (Unix.stat wal_path).Unix.st_size in
          let cut = Wal.header_size + (cut_sel mod (len - Wal.header_size + 1)) in
          let fd = Unix.openfile wal_path [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd cut;
          Unix.close fd;
          let expected =
            (* Largest committed state whose commit point fits the cut. *)
            List.fold_left
              (fun best (lsn, recs) ->
                match best with
                | Some (blsn, _) when blsn >= lsn -> best
                | _ when lsn <= cut -> Some (lsn, recs)
                | _ -> best)
              None !states
            |> Option.map snd
            |> Option.value ~default:[]
          in
          let env2 = Env.open_durable ~dir () in
          let got =
            match Catalog.find (Catalog.load_durable env2) "K" with
            | Some rel2 -> raw_records rel2
            | None -> []
          in
          let ok = got = expected in
          Env.close env2;
          ok))

(* ------------------------------------------------------------------ *)
(* qcheck: recovery under torn-write fault clauses — torn data pages
   never survive undetected and the committed state is reproduced *)

let prop_torn_write_recovery =
  QCheck.Test.make ~count:40
    ~name:"torn data-page writes: recovery reproduces committed state"
    QCheck.(pair (int_bound 10_000) (int_range 1 6))
    (fun (seed, tear_every) ->
      with_dir (fun dir ->
          let env =
            Env.open_durable ~dir ~page_size:512 ~pool_pages:64
              ~wal_sync:Wal.Always ()
          in
          let rel = Relation.create ~durable:true env schema in
          let rng = Random.State.make [| seed |] in
          let committed = ref [] in
          let count = ref 0 in
          let n_batches = 1 + Random.State.int rng 3 in
          for b = 1 to n_batches do
            let n = 1 + Random.State.int rng 10 in
            List.iter (Relation.insert rel) (batch ~seed:(seed + (7 * b)) ~start:!count n);
            count := !count + n;
            Env.commit env;
            committed := raw_records rel
          done;
          (* Arm torn writes on the durable disk, then flush: some page
             write-backs tear (half the slot persists). The log already
             holds everything committed, so recovery must rebuild the
             exact committed state and leave no undetected torn page. *)
          (match Fault.parse_spec (Printf.sprintf "torn:every=%d" tear_every) with
          | Ok spec -> Env.set_fault env (Some (Fault.create ~seed spec))
          | Error m -> failwith m);
          (try Env.flush env with Fault.Injected _ -> ());
          Env.set_fault env None;
          Env.crash env;
          let env2 = Env.open_durable ~dir () in
          let wal2 = Option.get (Env.wal env2) in
          let disk2 = Option.get (Disk.as_real env2.Env.disk) in
          let survivors = Recovery.verify_pages wal2 disk2 in
          let got =
            match Catalog.find (Catalog.load_durable env2) "K" with
            | Some rel2 -> raw_records rel2
            | None -> []
          in
          let ok = survivors = [] && got = !committed in
          Env.close env2;
          ok))

(* ------------------------------------------------------------------ *)
(* qcheck: recovery is idempotent when the process dies during the
   post-redo checkpoint *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let prop_checkpoint_crash_idempotent =
  QCheck.Test.make ~count:40
    ~name:"crash mid-checkpoint write: recovery is idempotent"
    QCheck.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (seed, cut_sel) ->
      with_dir (fun dir ->
          (* Committed workload, then a crash with a dirty pool. *)
          let env =
            Env.open_durable ~dir ~page_size:512 ~pool_pages:256
              ~wal_sync:Wal.Always ()
          in
          let rng = Random.State.make [| seed; 0xCC |] in
          let rel = Relation.create ~durable:true env schema in
          let count = ref 0 in
          for b = 1 to 1 + Random.State.int rng 3 do
            let n = 1 + Random.State.int rng 10 in
            List.iter (Relation.insert rel) (batch ~seed:(seed + b) ~start:!count n);
            count := !count + n;
            Env.commit env
          done;
          Env.crash env;
          let wal_path = Recovery.wal_path_of dir in
          let data_path = Filename.concat dir "data.fsql" in
          let wal0 = read_file wal_path and data0 = read_file data_path in
          (* Reference run: recovery to completion, checkpoint included.
             Its state and its checkpointed log are what every
             crash-interrupted retry must converge to. *)
          let env1 = Env.open_durable ~dir () in
          let expected =
            match Catalog.find (Catalog.load_durable env1) "K" with
            | Some r -> raw_records r
            | None -> []
          in
          Env.close env1;
          let ckpt_wal = read_file wal_path in
          (* Rewind to the pre-recovery files and plant a crash-torn
             checkpoint: a prefix of the new log sits in wal.fsql.tmp,
             the rename never happened. The next recovery must ignore
             the tmp entirely (checkpoint opens it with O_TRUNC), redo
             from the intact old log, and converge to the same state. *)
          write_file wal_path wal0;
          write_file data_path data0;
          let cut = cut_sel mod (String.length ckpt_wal + 1) in
          write_file (wal_path ^ ".tmp") (String.sub ckpt_wal 0 cut);
          let env2 = Env.open_durable ~dir () in
          let got =
            match Catalog.find (Catalog.load_durable env2) "K" with
            | Some r -> raw_records r
            | None -> []
          in
          Env.close env2;
          (* The retry rewrote the checkpoint through its own tmp+rename,
             so no stale tmp file survives. *)
          got = expected && not (Sys.file_exists (wal_path ^ ".tmp"))))

let suites =
  [
    ("recovery.real-disk", real_disk_tests);
    ("recovery.env", env_tests);
    ("recovery.wal", wal_tests);
    ( "recovery.qcheck",
      [
        QCheck_alcotest.to_alcotest prop_corruption_detected;
        QCheck_alcotest.to_alcotest prop_crash_offset_determinism;
        QCheck_alcotest.to_alcotest prop_torn_write_recovery;
        QCheck_alcotest.to_alcotest prop_checkpoint_crash_idempotent;
        QCheck_alcotest.to_alcotest prop_shippable_end;
      ] );
  ]
