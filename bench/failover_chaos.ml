(** HA failover chaos harness: a forked primary process loads durable
    batches and streams its WAL to an in-process replica; the primary is
    SIGKILLed mid-load, the replica is promoted over the wire, retrying
    clients are re-pointed at it, and the harness proves, per seed:

    - {b zero acknowledged-commit loss}: the child acknowledges a batch
      (fsync-ack progress file) only after {e both} [Env.commit] returned
      {e and} the replica acked applying through the batch's commit LSN
      (semi-synchronous replication via
      {!Server.Replication.Sender.wait_applied}) — so every acknowledged
      batch must be served by the promoted replica;
    - {b bit-identical committed prefix}: the promoted replica's answer
      to a full scan, checksummed over the wire rows (printed values +
      raw degree bits), equals the checksum of the same prefix rebuilt
      in the fault-free in-memory engine;
    - {b fencing, both directions}: after promotion (epoch 2), a zombie
      sender stood up on the dead primary's directory (epoch 1) refuses
      an epoch-2 subscriber ([Rep_fence], its [fenced] counter moves)
      and the epoch-2 replica rejects the stale stream
      ([fenced_rejects] moves) — observable in the row and in the
      schedule dump, and [replication_epoch] is scraped from the
      promoted daemon's metrics.

    Each seed runs in its own child process (see {!run_seed_in_child}).
    One ["failover_chaos"] row per seed lands in BENCH_results.json and
    the full event schedule in
    [bench/artifacts/failover_schedule.json]. *)

open Frepro
open Frepro.Storage
open Harness
module Replication = Server.Replication

let section title = Format.printf "@.==== %s ====@." title
let note fmt = Format.printf fmt
let addr_of port = "127.0.0.1:" ^ string_of_int port
let port_file dir = Filename.concat dir "port.txt"

let write_port dir port =
  let tmp = port_file dir ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let s = string_of_int port ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s));
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp (port_file dir)

let read_port dir =
  match open_in (port_file dir) with
  | ic ->
      let p = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      close_in ic;
      p
  | exception Sys_error _ -> 0

(* The child: a durable primary streaming its WAL. Each batch is
   acknowledged (progress file) only after a replica has applied and
   fsynced through the batch's commit LSN — the semi-sync discipline
   that makes "zero acked-commit loss" checkable rather than probable.
   Runs until SIGKILLed; exits via [Unix._exit] so the parent's at_exit
   never runs twice. *)
let child_primary ~seed dir =
  match
    let env =
      Env.open_durable ~dir ~page_size:2048 ~pool_pages:4096
        ~wal_sync:Wal.Always ()
    in
    let rel =
      Relational.Relation.create ~durable:true env Recovery_chaos.chaos_schema
    in
    Env.commit env;
    let sender = Replication.Sender.create ~env in
    let port = Replication.Sender.listen ~port:0 sender in
    write_port dir port;
    let wal = match Env.wal env with Some w -> w | None -> assert false in
    let k = ref 0 in
    while true do
      let start = !k * Recovery_chaos.batch_size in
      for i = start to start + Recovery_chaos.batch_size - 1 do
        Relational.Relation.insert rel (Recovery_chaos.tuple_at ~seed i)
      done;
      Env.commit env;
      if
        Replication.Sender.wait_applied sender ~lsn:(Wal.committed_end wal)
          ~timeout_s:60.0
      then begin
        incr k;
        Recovery_chaos.write_progress dir !k
      end
      else Unix._exit 3
    done
  with
  | () -> Unix._exit 0
  | exception _ -> Unix._exit 1

let durable_setup env catalog =
  let durable = Relational.Catalog.load_durable env in
  List.iter
    (fun name ->
      match Relational.Catalog.find durable name with
      | Some rel -> Relational.Catalog.add catalog rel
      | None -> ())
    (Relational.Catalog.names durable)

(* Both attributes plus the degree bits travel on the wire, and IDs are
   unique, so the order-independent checksum of the answer rows equals
   [Harness.answer_checksum] of the underlying relation. *)
let scan_sql = "SELECT C.ID, C.X FROM C WHERE C.ID >= 0"

let query_scan client =
  let retry = Some { Server.Retry.default with max_attempts = 10 } in
  match Server.Client.query ?retry ~deadline_ms:10000 client scan_sql with
  | Server.Client.Answer { rows; _ } ->
      let wire_rows =
        List.map
          (fun r ->
            ( r.Server.Client.values,
              Int64.bits_of_float r.Server.Client.degree ))
          rows
      in
      Some (List.length rows, Harness.checksum_of_rows wire_rows)
  | _ -> None

type seed_events = {
  mutable ev : string list;  (** reversed (ts, event) lines *)
  t0 : float;
}

let event evs fmt =
  Printf.ksprintf
    (fun s ->
      evs.ev <-
        Printf.sprintf "{\"t_s\": %.3f, \"event\": \"%s\"}"
          (Unix.gettimeofday () -. evs.t0)
          (json_escape s)
        :: evs.ev)
    fmt

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let run_seed ~seed evs =
  with_temp_dir (fun pdir ->
      with_temp_dir (fun rdir ->
          with_temp_dir (fun r2dir ->
              let t0 = Unix.gettimeofday () in
              let pid = Unix.fork () in
              if pid = 0 then child_primary ~seed pdir;
              event evs "seed %d: primary forked (pid %d)" seed pid;
              (* Wait for the child's replication listener. *)
              let deadline = Unix.gettimeofday () +. 20.0 in
              while read_port pdir = 0 && Unix.gettimeofday () < deadline do
                Unix.sleepf 0.005
              done;
              let pport = read_port pdir in
              if pport = 0 then failwith "primary never published its port";
              let replica =
                Replication.Replica.create ~dir:rdir ~primary:(addr_of pport)
                  ()
              in
              Replication.Replica.start replica;
              if not (Replication.Replica.wait_synced ~timeout_s:30.0 replica)
              then failwith "replica failed its initial catch-up";
              event evs "replica synced (snapshot + tail) from %s"
                (addr_of pport);
              let daemon =
                Server.Daemon.start ~workers:2 ~queue_capacity:16
                  ~default_deadline_ms:10000 ~replica ~max_staleness_ms:5000
                  ~make_env:(fun ~pool_pages ->
                    Env.open_durable ~dir:rdir ~readonly:true ~pool_pages ())
                  ~setup:durable_setup ()
              in
              let dport = Server.Daemon.port daemon in
              event evs "replica daemon serving read-only on %s"
                (addr_of dport);
              let client = ref (Server.Client.connect ~port:dport ()) in
              let queries_ok = ref 0 in
              (* Clients query the replica throughout the failover. *)
              (match query_scan !client with
              | Some _ -> incr queries_ok
              | None -> ());
              (* Let the primary ack at least 2 semi-sync batches so the
                 kill always lands mid-load with real acked history. *)
              let deadline = Unix.gettimeofday () +. 30.0 in
              while
                Recovery_chaos.read_progress pdir < 2
                && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.005
              done;
              if Recovery_chaos.read_progress pdir < 2 then
                failwith "primary never acked 2 semi-sync batches";
              let kill_after = 0.03 +. (0.04 *. float_of_int (seed mod 5)) in
              Unix.sleepf kill_after;
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              let acked = Recovery_chaos.read_progress pdir in
              event evs "primary SIGKILLed %.3fs after batch 2 (%d acked)"
                kill_after acked;
              (* Promote over the wire, exactly as `fsql \promote` does. *)
              let epoch =
                match Server.Client.promote !client with
                | Ok e -> e
                | Error m -> failwith ("promote refused: " ^ m)
              in
              event evs "replica promoted; epoch %d" epoch;
              (* Re-point the retrying client at the promoted primary
                 (fresh connection) and keep querying. *)
              Server.Client.close !client;
              client := Server.Client.connect ~port:dport ();
              let recovered, wire_checksum =
                match query_scan !client with
                | Some (n, sum) ->
                    incr queries_ok;
                    (n, sum)
                | None -> (0, "")
              in
              (match query_scan !client with
              | Some _ -> incr queries_ok
              | None -> ());
              let metrics_json = Server.Client.metrics_json !client in
              let epoch_in_metrics =
                contains ~needle:"replication_epoch" metrics_json
              in
              event evs
                "post-failover scan: %d tuples, checksum %s, \
                 replication_epoch %s in /metrics"
                recovered wire_checksum
                (if epoch_in_metrics then "present" else "MISSING");
              (* Fencing drill: chain a second replica off the promoted
                 primary so an epoch-2 directory exists, then point it at
                 a zombie sender on the dead primary's epoch-1 files. *)
              let r2 =
                Replication.Replica.create ~dir:r2dir
                  ~primary:(addr_of dport) ()
              in
              Replication.Replica.start r2;
              if not (Replication.Replica.wait_synced ~timeout_s:30.0 r2) then
                failwith "chained replica failed to sync off the promoted \
                          primary";
              Replication.Replica.stop r2;
              let zombie = Replication.Sender.create_for_dir ~dir:pdir in
              let zport = Replication.Sender.listen ~port:0 zombie in
              event evs "zombie sender up on old primary dir (epoch %d)"
                (Replication.Sender.epoch zombie);
              let r3 =
                Replication.Replica.create ~dir:r2dir
                  ~primary:(addr_of zport) ()
              in
              Replication.Replica.start r3;
              let deadline = Unix.gettimeofday () +. 10.0 in
              while
                Replication.Replica.fenced_rejects r3 = 0
                && Unix.gettimeofday () < deadline
              do
                Unix.sleepf 0.01
              done;
              Replication.Replica.stop r3;
              let fenced_sender = Replication.Sender.fenced zombie in
              let fenced_replica = Replication.Replica.fenced_rejects r3 in
              Replication.Sender.stop zombie;
              event evs "fence fired: zombie refused %d, replica rejected %d"
                fenced_sender fenced_replica;
              Server.Client.close !client;
              Server.Daemon.stop daemon;
              (match Server.Daemon.sender daemon with
              | Some s -> Replication.Sender.stop s
              | None -> ());
              Replication.Replica.stop replica;
              let expected =
                Recovery_chaos.expected_checksum ~seed recovered
              in
              let matches =
                recovered >= acked * Recovery_chaos.batch_size
                && recovered mod Recovery_chaos.batch_size = 0
                && wire_checksum = expected && epoch_in_metrics
              in
              {
                f_seed = seed;
                f_kill_after_s = kill_after;
                f_acked_batches = acked;
                f_recovered_tuples = recovered;
                f_checksum = wire_checksum;
                f_match = matches;
                f_epoch = epoch;
                f_fenced_sender = fenced_sender;
                f_fenced_replica = fenced_replica;
                f_queries_ok = !queries_ok;
                f_duration_s = Unix.gettimeofday () -. t0;
              })))

(* Run one seed in a child process and return its row and events.
   OCaml 5.1 refuses [Unix.fork] in a process that has ever spawned a
   domain, even once that domain has been joined, and a seed's replica
   daemon spawns its task pool's worker domain — so no process may fork
   after serving a seed. Each seed therefore runs in a child forked from
   this never-multicore process; that child forks its primary before
   starting any daemon, and sends its result back over a pipe. *)
let run_seed_in_child ~seed =
  Format.print_flush ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let evs = { ev = []; t0 = Unix.gettimeofday () } in
      let result =
        match run_seed ~seed evs with
        | row -> Ok (row, evs.ev)
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let result =
        try Some (Marshal.from_channel ic : _ result) with End_of_file -> None
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      match result with
      | Some (Ok (row, ev)) -> (row, { ev; t0 = 0.0 })
      | Some (Error m) -> failwith (Printf.sprintf "failover seed %d: %s" seed m)
      | None ->
          failwith (Printf.sprintf "failover seed %d: child died" seed))

let write_schedule path rows evs_per_seed =
  (try Unix.mkdir (Filename.dirname path) 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let oc = open_out path in
  output_string oc "[\n";
  let n = List.length rows in
  List.iteri
    (fun i (row, evs) ->
      Printf.fprintf oc
        "  {\"seed\": %d, \"kill_after_s\": %.3f, \"acked_batches\": %d, \
         \"recovered_tuples\": %d, \"epoch\": %d, \"fenced_sender\": %d, \
         \"fenced_replica\": %d, \"match\": %b, \"events\": [\n    %s\n  \
         ]}%s\n"
        row.f_seed row.f_kill_after_s row.f_acked_batches
        row.f_recovered_tuples row.f_epoch row.f_fenced_sender
        row.f_fenced_replica row.f_match
        (String.concat ",\n    " (List.rev evs.ev))
        (if i = n - 1 then "" else ","))
    (List.combine rows evs_per_seed);
  output_string oc "]\n";
  close_out oc

let run (cfg : Harness.config) =
  section "Failover chaos - SIGKILL the primary, promote the replica";
  note "child primary commits %d-tuple batches (wal-sync always) and acks@."
    Recovery_chaos.batch_size;
  note "each only after the replica applied it (semi-sync); parent SIGKILLs@.";
  note "the primary mid-load, promotes the replica over the wire, re-points@.";
  note "retrying clients, and checks zero acked-commit loss, a bit-identical@.";
  note "committed-prefix checksum, and both directions of the epoch fence@.@.";
  Format.printf "%-6s | %9s | %6s | %9s | %6s | %6s | %6s | %6s@." "seed"
    "kill (s)" "acked" "recovered" "epoch" "fence>" "fence<" "match";
  hr Format.std_formatter 76;
  let failures = ref 0 in
  let rows_and_events =
    List.map
      (fun seed ->
        let row, evs = run_seed_in_child ~seed in
        failover_results := row :: !failover_results;
        if
          not
            (row.f_match && row.f_epoch = 2 && row.f_fenced_sender >= 1
           && row.f_fenced_replica >= 1)
        then incr failures;
        Format.printf "%-6d | %9.3f | %6d | %9d | %6d | %6d | %6d | %6b@."
          row.f_seed row.f_kill_after_s row.f_acked_batches
          row.f_recovered_tuples row.f_epoch row.f_fenced_sender
          row.f_fenced_replica row.f_match;
        (row, evs))
      [ cfg.seed; cfg.seed + 1; cfg.seed + 2 ]
  in
  let schedule = Filename.concat "bench/artifacts" "failover_schedule.json" in
  (try
     write_schedule schedule (List.map fst rows_and_events)
       (List.map snd rows_and_events);
     note "@.schedule dump written to %s@." schedule
   with Sys_error m -> note "@.(schedule dump skipped: %s)@." m);
  if !failures > 0 then
    failwith
      (Printf.sprintf "failover chaos: %d of 3 seeds failed verification"
         !failures);
  note "zero acked-commit loss; promoted replicas served bit-identical@.";
  note "committed prefixes; stale primaries were fenced on both sides@."
