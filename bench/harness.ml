(** Measurement harness shared by every table/figure bench.

    Each cell of a Section 9 experiment evaluates the same type J query with
    the nested-loop method or the unnesting merge-join over generated
    relations, in a fresh storage environment, and reports the paper's
    metrics: response time (modelled as CPU + #IO x io_latency), CPU time,
    I/O count, and the sorting share of the merge-join.

    Scaling: the paper used a 2 MB buffer against 1-32 MB relations on a 1995
    SPARC/IPC. By default every size is divided by 4 (512 KB buffer = 64
    pages, relations 0.25-8 MB) so the suite finishes in minutes while
    preserving the relation : buffer ratios; where the paper's nested loop
    "takes too long to terminate" (>= 16 MB), ours is skipped the same way.
    Note that scaling n by k compresses the quadratic-vs-linear speedup by
    ~k, so the default speedups are about a quarter of the paper's;
    [--full] restores the paper's absolute sizes (and its speedup range) at
    the cost of a much longer run. *)

open Frepro
open Frepro.Relational

type config = {
  scale : int;  (** divide paper sizes by this (1 = paper scale) *)
  io_latency : float;  (** seconds per page transfer (1995 disk ~ 20 ms) *)
  seed : int;
  domains : int;  (** merge-join execution parallelism (1 = sequential) *)
}

(* Calibration of [io_latency]: the paper's SPARC/IPC spent ~7.8 us per
   fuzzy-predicate evaluation (501 s for 8192x8192 pairs in Table 1) against
   ~20 ms per page transfer — about 2,500 fuzzy ops per I/O. This build's
   fuzzy op costs ~0.4 us, so a period-accurate 20 ms disk would drown the
   CPU side and invert every trade-off the paper measured. The default
   latency keeps the paper's CPU : I/O ratio (20 ms scaled by the ~40x CPU
   speedup => 0.5 ms); pass [--io-latency 0.02] for the period-accurate
   disk. *)
let default_config = { scale = 4; io_latency = 0.0005; seed = 42; domains = 1 }

(* The paper's buffer: 2 MB of 8 KB pages, scaled. *)
let mem_pages cfg = Int.max 8 (256 / cfg.scale)

(** Tuples per paper-megabyte at 128-byte tuples. *)
let tuples_per_mb = 8192

let spec_of ~paper_mb ~tuple_bytes ~fanout cfg =
  let n = paper_mb * tuples_per_mb / cfg.scale * 128 / tuple_bytes in
  let n = Int.max 1 n in
  {
    Workload.Gen.default_spec with
    n;
    tuple_bytes;
    groups = Int.max 1 (int_of_float (float_of_int n /. fanout));
  }

type metrics = {
  response : float;  (** seconds: cpu + io * latency *)
  cpu : float;
  wall : float;  (** actual wall-clock seconds of the evaluation *)
  sort_s : float;  (** coordinator wall seconds in the Sort phase *)
  merge_s : float;  (** coordinator wall seconds in the Merge phase *)
  ios : int;
  sort_share : float;  (** fraction of response spent sorting *)
  fuzzy_ops : int;
  answer_size : int;
}

(* ------------------------------------------------------------------ *)
(* Machine-readable results: every measured cell is appended to an
   in-memory log and dumped as BENCH_results.json at the end of the run,
   so plots and regression checks don't have to scrape the tables. *)

type row = {
  row_bench : string;
  row_cell : string;
  row_method : string;
  row_domains : int;
  row_scale : int;
  row_wall_s : float;
  row_response_s : float;
  row_cpu_s : float;
  row_sort_s : float;  (** coordinator wall seconds in the Sort phase *)
  row_ios : int;
  row_fuzzy_ops : int;
  row_answer_size : int;
  row_checksum : string;
      (** order-independent digest of the answer multiset — tuple values and
          IEEE-754 degree bits — so parallel-vs-sequential cells can be
          asserted bit-identical from the JSON alone *)
  mutable row_io_overhead : float;
      (** #IOs of this cell / #IOs of the same workload at domains = 1
          (1.0 when no baseline applies); the parallel engine's private
          buffer pools re-read boundary pages, and this ratio makes that
          cost explicit (see the [scaling] bench). *)
}

let results : row list ref = ref []

(* One row per (client count) cell of the closed-loop server load bench.
   Latencies are exact percentiles over every completed query in the cell
   (not histogram-bucket approximations). *)
type load_row = {
  l_clients : int;
  l_workers : int;
  l_domains : int;
  l_queries : int;  (** completed with a verified-correct answer *)
  l_wrong : int;  (** completed but answer differed from sequential truth *)
  l_overloaded : int;  (** admission rejections (retried) *)
  l_qps : float;
  l_p50_ms : float;
  l_p99_ms : float;
  l_duration_s : float;
}

let load_results : load_row list ref = ref []

(* One row per (fault seed, fault probability) cell of the chaos bench.
   [c_ok] queries completed with an answer bit-identical to the fault-free
   sequential engine; [c_leaked] is [accepted - (completed + cancelled +
   failed + failed_transient)] read from the daemon after a full drain, so
   0 proves no worker swallowed a query. *)
type chaos_row = {
  c_fault_seed : int;
  c_prob : float;  (** per-I/O-site injection probability of the cell *)
  c_spec : string;  (** the armed fault spec, [Fault.spec_to_string] form *)
  c_ok : int;
  c_wrong : int;
  c_retryable : int;  (** client exhausted its retries on [Retryable] *)
  c_failed : int;
  c_cancelled : int;
  c_overloaded : int;  (** terminal [Overloaded] after client retries *)
  c_injected : int;  (** faults the planes actually fired *)
  c_retries : int;  (** server-side backoff retries *)
  c_respawns : int;
  c_breaker_opened : int;
  c_shed : int;  (** admissions shed by the open breaker *)
  c_leaked : int;
  c_duration_s : float;
}

let chaos_results : chaos_row list ref = ref []

(* One row per (sync mode, thread count) cell of the WAL commit-throughput
   bench. [w_fsyncs] against [w_commits] shows the group-commit batching
   factor. *)
type wal_row = {
  w_mode : string;  (** ["always"] | ["group"] | ["never"] *)
  w_threads : int;
  w_commits : int;
  w_fsyncs : int;
  w_qps : float;
  w_duration_s : float;
}

let wal_results : wal_row list ref = ref []

(* One row per measured restart of the recovery bench: WAL length in,
   recovery time out. *)
type recovery_row = {
  r_cell : string;
  r_wal_records : int;
  r_replayed : int;
  r_pages_redone : int;
  r_wal_bytes : int;
  r_clean : bool;
  r_ms : float;
}

let recovery_results : recovery_row list ref = ref []

(* One row per fault seed of the crash-recovery chaos harness: a forked
   fsqld-style writer SIGKILLed mid-workload, then recovered. [rc_match]
   asserts the recovered relation is bit-identical (order-independent
   checksum) to the same committed prefix rebuilt in-memory;
   [rc_torn_undetected] counts manifest-live pages that fail trailer
   validation after recovery (must be 0). *)
type rchaos_row = {
  rc_seed : int;
  rc_kill_after_s : float;
  rc_committed_batches : int;  (** child's last durably-acked batch *)
  rc_recovered_tuples : int;
  rc_checksum : string;
  rc_match : bool;
  rc_torn_undetected : int;
  rc_recover_ms : float;
}

let rchaos_results : rchaos_row list ref = ref []

(* One row per seed of the WAL-shipping failover chaos harness: a forked
   primary streams its log to an in-process replica and is SIGKILLed
   mid-load; the replica is promoted and must hold a bit-identical
   committed prefix covering every batch the primary acknowledged only
   after the replica acked it (semi-sync). [f_fenced_sender] /
   [f_fenced_replica] count both directions of the epoch fence firing in
   the zombie drill (each must be >= 1). *)
type failover_row = {
  f_seed : int;
  f_kill_after_s : float;
  f_acked_batches : int;  (** batches acked only after replica apply *)
  f_recovered_tuples : int;  (** tuples served by the promoted replica *)
  f_checksum : string;
  f_match : bool;
  f_epoch : int;  (** epoch after promotion (must be 2) *)
  f_fenced_sender : int;
  f_fenced_replica : int;
  f_queries_ok : int;  (** client queries answered across the failover *)
  f_duration_s : float;
}

let failover_results : failover_row list ref = ref []

(* Run-wide metrics registry: one observation per measured cell. The
   summary is printed (and dumped as JSON) at the end of the bench run. *)
let metrics = Storage.Metrics.create ()

(* Order-independent answer digest: each tuple hashes to a 64-bit value
   (MD5 over its printed attribute values and the raw IEEE-754 bits of its
   degree) and the tuple hashes are combined with addition, so two
   evaluation paths producing the same multiset of answers — possibly in
   different tie orders after their sorts — get the same checksum, and any
   flipped degree bit changes it. *)
let checksum_of_rows rows =
  let acc = ref 0L in
  List.iter
    (fun (values, degree_bits) ->
      let buf = Buffer.create 64 in
      List.iter
        (fun v ->
          Buffer.add_string buf v;
          Buffer.add_char buf '\x00')
        values;
      Buffer.add_string buf (Printf.sprintf "%Lx" degree_bits);
      let d = Digest.string (Buffer.contents buf) in
      let h = ref 0L in
      for i = 0 to 7 do
        h := Int64.logor (Int64.shift_left !h 8)
               (Int64.of_int (Char.code d.[i]))
      done;
      acc := Int64.add !acc !h)
    rows;
  Printf.sprintf "%016Lx" !acc

(* Rows received over the wire carry the same printed values and degree
   bits the engine produced, so [checksum_of_rows] on a client's answer
   equals [answer_checksum] on the relation — the telemetry bench uses
   that to compare daemon-served answers against engine cells. *)
let answer_checksum rel =
  let rows = ref [] in
  Relation.iter rel (fun t ->
      rows :=
        ( Array.to_list (Array.map Value.to_string t.Ftuple.values),
          Int64.bits_of_float (Ftuple.degree t) )
        :: !rows);
  checksum_of_rows !rows

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_results path =
  let oc = open_out path in
  let rows = List.rev !results in
  let loads = List.rev !load_results in
  let chaos = List.rev !chaos_results in
  let wals = List.rev !wal_results in
  let recoveries = List.rev !recovery_results in
  let rchaos = List.rev !rchaos_results in
  let failovers = List.rev !failover_results in
  let total =
    List.length rows + List.length loads + List.length chaos
    + List.length wals + List.length recoveries + List.length rchaos
    + List.length failovers
  in
  let emitted = ref 0 in
  let sep () =
    incr emitted;
    if !emitted = total then "" else ","
  in
  output_string oc "[\n";
  List.iter
    (fun r ->
      Printf.fprintf oc
        "  {\"bench\": \"%s\", \"cell\": \"%s\", \"method\": \"%s\", \
         \"domains\": %d, \"scale\": %d, \"wall_s\": %.6f, \"response_s\": \
         %.6f, \"cpu_s\": %.6f, \"sort_s\": %.6f, \"ios\": %d, \
         \"fuzzy_ops\": %d, \"answer_size\": %d, \"checksum\": \"%s\", \
         \"io_overhead\": %.4f}%s\n"
        (json_escape r.row_bench) (json_escape r.row_cell)
        (json_escape r.row_method) r.row_domains r.row_scale r.row_wall_s
        r.row_response_s r.row_cpu_s r.row_sort_s r.row_ios r.row_fuzzy_ops
        r.row_answer_size (json_escape r.row_checksum)
        r.row_io_overhead (sep ()))
    rows;
  List.iter
    (fun l ->
      Printf.fprintf oc
        "  {\"bench\": \"load\", \"clients\": %d, \"workers\": %d, \
         \"domains\": %d, \"queries\": %d, \"wrong\": %d, \"overloaded\": \
         %d, \"qps\": %.2f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
         \"duration_s\": %.3f}%s\n"
        l.l_clients l.l_workers l.l_domains
        l.l_queries l.l_wrong l.l_overloaded l.l_qps l.l_p50_ms l.l_p99_ms
        l.l_duration_s (sep ()))
    loads;
  List.iter
    (fun c ->
      Printf.fprintf oc
        "  {\"bench\": \"chaos\", \"fault_seed\": %d, \
         \"prob\": %g, \"spec\": \"%s\", \"ok\": %d, \"wrong\": %d, \"retryable\": %d, \"failed\": \
         %d, \"cancelled\": %d, \"overloaded\": %d, \"injected\": %d, \
         \"retries\": %d, \"respawns\": %d, \"breaker_opened\": %d, \
         \"shed\": %d, \"leaked_workers\": %d, \"duration_s\": %.3f}%s\n"
        c.c_fault_seed c.c_prob (json_escape c.c_spec)
        c.c_ok c.c_wrong
        c.c_retryable c.c_failed c.c_cancelled c.c_overloaded c.c_injected
        c.c_retries c.c_respawns c.c_breaker_opened c.c_shed c.c_leaked
        c.c_duration_s (sep ()))
    chaos;
  List.iter
    (fun w ->
      Printf.fprintf oc
        "  {\"bench\": \"wal\", \"mode\": \"%s\", \"threads\": %d, \
         \"commits\": %d, \"fsyncs\": %d, \"commit_qps\": %.1f, \
         \"duration_s\": %.3f}%s\n"
        (json_escape w.w_mode) w.w_threads w.w_commits w.w_fsyncs w.w_qps
        w.w_duration_s (sep ()))
    wals;
  List.iter
    (fun r ->
      Printf.fprintf oc
        "  {\"bench\": \"recovery\", \"cell\": \"%s\", \"wal_records\": %d, \
         \"replayed\": %d, \"pages_redone\": %d, \"wal_bytes\": %d, \
         \"clean\": %b, \"recovery_ms\": %.3f}%s\n"
        (json_escape r.r_cell) r.r_wal_records r.r_replayed r.r_pages_redone
        r.r_wal_bytes r.r_clean r.r_ms (sep ()))
    recoveries;
  List.iter
    (fun c ->
      Printf.fprintf oc
        "  {\"bench\": \"recovery_chaos\", \"fault_seed\": %d, \
         \"kill_after_s\": %.3f, \"committed_batches\": %d, \
         \"recovered_tuples\": %d, \"checksum\": \"%s\", \"match\": %b, \
         \"torn_undetected\": %d, \"recovery_ms\": %.3f}%s\n"
        c.rc_seed c.rc_kill_after_s c.rc_committed_batches
        c.rc_recovered_tuples (json_escape c.rc_checksum) c.rc_match
        c.rc_torn_undetected c.rc_recover_ms (sep ()))
    rchaos;
  List.iter
    (fun f ->
      Printf.fprintf oc
        "  {\"bench\": \"failover_chaos\", \"fault_seed\": %d, \
         \"kill_after_s\": %.3f, \"acked_batches\": %d, \
         \"recovered_tuples\": %d, \"checksum\": \"%s\", \"match\": %b, \
         \"epoch\": %d, \"fenced_sender\": %d, \"fenced_replica\": %d, \
         \"queries_ok\": %d, \"duration_s\": %.3f}%s\n"
        f.f_seed f.f_kill_after_s f.f_acked_batches f.f_recovered_tuples
        (json_escape f.f_checksum) f.f_match f.f_epoch f.f_fenced_sender
        f.f_fenced_replica f.f_queries_ok f.f_duration_s (sep ()))
    failovers;
  output_string oc "]\n";
  close_out oc

(* The canonical type J query of the experiments (Section 9 uses type J to
   illustrate): correlated IN subquery joining on the fuzzy attribute X. *)
let bench_sql = "SELECT R.ID FROM R WHERE R.X IN (SELECT S.X FROM S WHERE S.W <= R.W)"

type method_ = Nested_loop | Merge_join

let method_name = function
  | Nested_loop -> "Nested Loop"
  | Merge_join -> "Merge-join"

let run_cell ?(bench = "adhoc") ?(cell = "") ?trace cfg ~outer ~inner method_ =
  let env = Storage.Env.create ~pool_pages:(mem_pages cfg) () in
  let r, s = Workload.Gen.join_pair env ~seed:cfg.seed ~outer ~inner in
  let catalog = Catalog.create env in
  Catalog.add catalog r;
  Catalog.add catalog s;
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper bench_sql in
  let step =
    match Unnest.Classify.plan q with
    | Unnest.Classify.Merge step, _ -> step
    | other, _ ->
        failwith ("bench query planned as " ^ Unnest.Classify.to_string other)
  in
  let stats = env.Storage.Env.stats in
  Storage.Env.reset_stats env;
  let wall_start = Unix.gettimeofday () in
  let answer =
    Storage.Iostats.timed stats Storage.Iostats.Other (fun () ->
        match method_ with
        | Nested_loop ->
            Unnest.Nl_exec.run ?trace step.Unnest.Classify.two
              ~mem_pages:(mem_pages cfg)
        | Merge_join ->
            if cfg.domains > 1 then
              Storage.Task_pool.with_pool ~domains:cfg.domains (fun pool ->
                  Unnest.Merge_exec.run ~pool ?trace step
                    ~mem_pages:(mem_pages cfg))
            else Unnest.Merge_exec.run ?trace step ~mem_pages:(mem_pages cfg))
  in
  let wall = Unix.gettimeofday () -. wall_start in
  let cpu = Storage.Iostats.cpu_seconds stats in
  let ios = Storage.Iostats.total_ios stats in
  let response = cpu +. (float_of_int ios *. cfg.io_latency) in
  let sort_time =
    Storage.Iostats.phase_seconds stats Storage.Iostats.Sort
    +. (float_of_int (Storage.Iostats.phase_ios stats Storage.Iostats.Sort)
       *. cfg.io_latency)
  in
  let m =
    {
      response;
      cpu;
      wall;
      sort_s = Storage.Iostats.phase_seconds stats Storage.Iostats.Sort;
      merge_s = Storage.Iostats.phase_seconds stats Storage.Iostats.Merge;
      ios;
      sort_share = (if response > 0.0 then sort_time /. response else 0.0);
      fuzzy_ops = Storage.Iostats.fuzzy_ops stats;
      answer_size = Relation.cardinality answer;
    }
  in
  results :=
    {
      row_bench = bench;
      row_cell = cell;
      row_method = method_name method_;
      row_domains = (match method_ with Merge_join -> cfg.domains | Nested_loop -> 1);
      row_scale = cfg.scale;
      row_wall_s = m.wall;
      row_response_s = m.response;
      row_cpu_s = m.cpu;
      row_sort_s = m.sort_s;
      row_ios = m.ios;
      row_fuzzy_ops = m.fuzzy_ops;
      row_answer_size = m.answer_size;
      row_checksum = answer_checksum answer;
      row_io_overhead = 1.0;
    }
    :: !results;
  Storage.Metrics.incr (Storage.Metrics.counter metrics "cells");
  Storage.Metrics.incr
    (Storage.Metrics.counter metrics
       (match method_ with
       | Nested_loop -> "cells_nested_loop"
       | Merge_join -> "cells_merge_join"));
  Storage.Metrics.incr ~by:m.ios (Storage.Metrics.counter metrics "ios");
  Storage.Metrics.incr ~by:m.fuzzy_ops
    (Storage.Metrics.counter metrics "fuzzy_ops");
  Storage.Metrics.observe (Storage.Metrics.histogram metrics "wall_s") m.wall;
  Storage.Metrics.observe
    (Storage.Metrics.histogram metrics "response_s")
    m.response;
  Storage.Metrics.observe
    (Storage.Metrics.histogram metrics "answer_size")
    (float_of_int m.answer_size);
  m

(* Stamp the parallel-I/O-overhead ratio onto the recorded rows of one
   bench at a given domain count (the [scaling] bench computes the ratio
   once its domains = 1 baseline is known; reps of a cell share it, page
   counts being deterministic). *)
let record_io_overhead ~bench ~domains ratio =
  List.iter
    (fun r ->
      if r.row_bench = bench && r.row_domains = domains then
        r.row_io_overhead <- ratio)
    !results

(* Scratch data directories for the durable-storage benches. *)
let temp_dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_temp_dir f =
  incr temp_dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "frepro-bench-%d-%d" (Unix.getpid ()) !temp_dir_counter)
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let str_seconds s =
  if s >= 100.0 then Printf.sprintf "%.0f" s
  else if s >= 1.0 then Printf.sprintf "%.1f" s
  else Printf.sprintf "%.3f" s

let hr ppf width = Format.fprintf ppf "%s@." (String.make width '-')
