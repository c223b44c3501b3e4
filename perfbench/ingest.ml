(* ingest: durable replicated writes, in-process. A primary environment
   over a real-disk data directory with the WAL in [Group] mode (fsqld's
   default flush policy) streams its log to an in-process replica. One
   writer loops: insert 32 tuples, [Env.commit], then wait until the
   replica has applied the commit ([Sender.wait_applied], the semi-sync
   ack the failover harness relies on). When the run ends, the replica
   must have applied exactly the primary's committed log, and a read-only
   reopen of its directory must hold exactly the written tuples. *)

open Frepro

let batch = 32
let sync_mode = Storage.Wal.Group
let ack_timeout_s = 5.0

let schema =
  Relational.Schema.make ~name:"C"
    [ ("ID", Relational.Schema.TNum); ("X", Relational.Schema.TNum) ]

(* Tuple [i] is a pure function of (seed, i). *)
let tuple_at ~seed i =
  let rng = Random.State.make [| 0x16E57; seed; i |] in
  Relational.Ftuple.make
    [|
      Relational.Value.Int i;
      Relational.Value.crisp_num (Random.State.float rng 1000.0);
    |]
    (0.125 *. float_of_int (1 + Random.State.int rng 8))

(* The 64-bit summand [Harness.checksum_of_rows] adds for one tuple. *)
let row_hash t =
  Int64.of_string
    ("0x"
    ^ Harness.checksum_of_rows
        [
          ( Array.to_list (Array.map Relational.Value.to_string t.Relational.Ftuple.values),
            Int64.bits_of_float (Relational.Ftuple.degree t) );
        ])

type node = {
  root : string;
  replica_dir : string;
  env : Storage.Env.t;
  wal : Storage.Wal.t;
  rel : Relational.Relation.t;
  sender : Server.Replication.Sender.t;
  replica : Server.Replication.Replica.t;
  mutable replica_stopped : bool;
  mutable stopped : bool;
}

let stop_replica n =
  if not n.replica_stopped then begin
    n.replica_stopped <- true;
    Server.Replication.Replica.stop n.replica
  end

let stop n =
  if not n.stopped then begin
    n.stopped <- true;
    stop_replica n;
    Server.Replication.Sender.stop n.sender;
    Storage.Env.close n.env;
    Util.rm_rf n.root
  end

(* Open the primary and wait until the replica has caught up. *)
let start ~scratch =
  let root = Util.temp_dir ~parent:scratch "ingest" in
  let primary_dir = Filename.concat root "primary" in
  let replica_dir = Filename.concat root "replica" in
  let env = Storage.Env.open_durable ~wal_sync:sync_mode ~dir:primary_dir () in
  let wal = Option.get (Storage.Env.wal env) in
  let rel = Relational.Relation.create ~durable:true env schema in
  Storage.Env.commit env;
  let sender = Server.Replication.Sender.create ~env in
  let port = Server.Replication.Sender.listen ~port:0 sender in
  let replica =
    Server.Replication.Replica.create ~dir:replica_dir
      ~primary:(Printf.sprintf "127.0.0.1:%d" port)
      ()
  in
  let n =
    {
      root; replica_dir; env; wal; rel; sender; replica;
      replica_stopped = false; stopped = false;
    }
  in
  Util.on_exit (fun () -> stop n);
  Server.Replication.Replica.start replica;
  if not (Server.Replication.Replica.wait_synced ~timeout_s:30.0 replica) then
    failwith "ingest: the replica never finished its first catch-up";
  n

(* Count and checksum of relation C in a read-only reopen of [dir]. *)
let read_back dir =
  let env = Storage.Env.open_durable ~readonly:true ~dir () in
  Fun.protect
    ~finally:(fun () -> Storage.Env.close env)
    (fun () ->
      match Relational.Catalog.find (Relational.Catalog.load_durable env) "C" with
      | Some rel ->
          (Relational.Relation.cardinality rel, Harness.answer_checksum rel)
      | None -> (0, "missing"))

let run ~seed ~seconds ~traced ~corrupt ~scratch =
  Util.note "ingest: %d tuples per commit, wal-sync %s, semi-sync ack timeout %g s"
    batch (Storage.Wal.sync_mode_name sync_mode) ack_timeout_s;
  let setup_s, n = Util.setups ~setup:(fun () -> start ~scratch) ~teardown:stop in
  let module Wal = Storage.Wal in
  let module Sender = Server.Replication.Sender in
  let stats = n.env.Storage.Env.stats in
  let commits0 = Wal.commits n.wal and fsyncs0 = Wal.fsyncs n.wal in
  let size0 = Wal.size n.wal in
  let reads0 = Storage.Iostats.page_reads stats in
  let writes0 = Storage.Iostats.page_writes stats in
  let written = ref 0 and user_bytes = ref 0 and sum = ref 0L in
  let attempted = ref 0 and failed = ref 0 in
  let lats = ref [] in
  let inserts = ref [] and commits = ref [] and acks = ref [] in
  let lag_max = ref 0 in
  let rss = Util.rss_probe 1000 in
  let gc0 = Gc.quick_stat () in
  let start = Util.now () in
  let stop_at = start +. seconds in
  while Util.now () < stop_at do
    let on = traced && !attempted mod 2 = 1 in
    incr attempted;
    let op = Spans.fresh_op () in
    let t0 = Util.now () in
    let acked =
      Spans.timed ~on ~op ~layer:"bench" "op" (fun root ->
          let ms f =
            let s = Util.now () in
            f ();
            1000.0 *. (Util.now () -. s)
          in
          let ins =
            ms (fun () ->
                Spans.timed ~on ~parent:root ~op ~layer:"relational"
                  "Relation.insert x32" (fun _ ->
                    for _ = 1 to batch do
                      let t = tuple_at ~seed !written in
                      Relational.Relation.insert n.rel t;
                      incr written;
                      user_bytes := !user_bytes + Relational.Codec.encoded_size t;
                      sum := Int64.add !sum (row_hash t)
                    done))
          in
          let com =
            ms (fun () ->
                Spans.timed ~on ~parent:root ~op ~layer:"storage" "Env.commit"
                  (fun _ -> Storage.Env.commit n.env))
          in
          lag_max := Int.max !lag_max (Sender.lag_bytes n.sender);
          let ack_start = Util.now () in
          let acked =
            Spans.timed ~on ~parent:root ~op ~layer:"server"
              "Sender.wait_applied" (fun _ ->
                Sender.wait_applied n.sender ~lsn:(Wal.committed_end n.wal)
                  ~timeout_s:ack_timeout_s)
          in
          if on then begin
            inserts := ins :: !inserts;
            commits := com :: !commits;
            acks := (1000.0 *. (Util.now () -. ack_start)) :: !acks
          end;
          acked)
    in
    let t1 = Util.now () in
    if acked then lats := (1000.0 *. (t1 -. t0), on) :: !lats else incr failed;
    Util.rss_tick rss ~ops:!attempted
  done;
  let wall = Util.now () -. start in
  let gc1 = Gc.quick_stat () in
  let batches = !attempted in
  let d_commits = Wal.commits n.wal - commits0 in
  let d_fsyncs = Wal.fsyncs n.wal - fsyncs0 in
  let d_size = Wal.size n.wal - size0 in
  let d_reads = Storage.Iostats.page_reads stats - reads0 in
  let d_writes = Storage.Iostats.page_writes stats - writes0 in
  (* The closing gate counts as one more attempted op. *)
  incr attempted;
  let committed = Wal.committed_end n.wal in
  let deadline = Util.now () +. ack_timeout_s in
  while
    Server.Replication.Replica.applied_lsn n.replica < committed
    && Util.now () < deadline
  do
    Unix.sleepf 0.001
  done;
  let applied = Server.Replication.Replica.applied_lsn n.replica in
  let rss = Util.rss_value rss in
  stop_replica n;
  let count, checksum = read_back n.replica_dir in
  let expected = Printf.sprintf "%016Lx" !sum in
  let expected = if corrupt then "corrupted-" ^ expected else expected in
  if applied <> committed || count <> !written || checksum <> expected then begin
    incr failed;
    Util.note
      "ingest: replica applied %d of %d log bytes, holds %d of %d tuples, \
       checksum %s (expected %s)"
      applied committed count !written checksum expected
  end;
  stop n;
  let end_to_end =
    Util.end_to_end ~attempted:!attempted ~failed:!failed ~wall
      ~lats:(List.map fst !lats) ~setup_s ~rss
  in
  let per_layer =
    if not traced then []
    else
      let n = List.length !inserts in
      let per_batch x = float_of_int x /. float_of_int (Int.max 1 batches) in
      [
        Util.metric ~n "relational.insert_ms" "ms" (Util.median !inserts);
        Util.metric ~n "storage.commit_ms" "ms" (Util.median !commits);
        Util.metric ~n:d_commits "storage.wal.fsyncs_per_commit" "count"
          (float_of_int d_fsyncs /. float_of_int (Int.max 1 d_commits));
        Util.metric ~n:!written "storage.wal.bytes_per_user_byte" "1"
          (float_of_int d_size /. float_of_int (Int.max 1 !user_bytes));
        Util.metric ~n "server.replication.ack_wait_ms" "ms" (Util.median !acks);
        Util.metric ~n "server.replication.ack_wait_ms.p99" "ms"
          (Util.percentile 0.99 !acks);
        Util.metric ~n:batches "server.replication.lag_bytes_max" "bytes"
          (float_of_int !lag_max);
        Util.metric ~n:batches "storage.page_reads" "count" (per_batch d_reads);
        Util.metric ~n:batches "storage.page_writes" "count" (per_batch d_writes);
      ]
      @ Util.gc_per_op ~ops:(float_of_int batches) gc0 gc1
      @ Util.overhead !lats
      @ Spans.layer_metrics ~root:"op"
  in
  { Util.attempted = !attempted; failed = !failed; end_to_end; per_layer }
