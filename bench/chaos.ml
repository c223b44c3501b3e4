(** Chaos harness: closed-loop clients against an in-process fsqld whose
    workers run under deterministic fault injection.

    Every (fault seed, probability) cell arms reads, writes, allocation
    and torn-write faults on each worker's storage plus occasional latency
    spikes, then fires a fixed number of queries through retrying clients.
    The invariants checked are the ISSUE's acceptance criteria, not
    throughput:

    - every query that {e does} complete returns an answer bit-identical
      to the fault-free sequential engine (degrees compared as IEEE-754
      bits);
    - the daemon never crashes, and after a full drain its books balance —
      [accepted = completed + cancelled + failed + failed_transient] — so
      no worker leaked a query;
    - the fault/retry/breaker counters land in the metrics registry and in
      [BENCH_results.json].

    The full schedule (seeds, specs, per-cell outcomes) is also dumped to
    [bench/artifacts/chaos_schedule.json] so a failing CI run can be
    replayed locally. *)

open Frepro

let queries = ref 200 (* per cell; override with [--queries N] *)

let section title = Format.printf "@.==== %s ====@." title
let note fmt = Format.printf fmt

(* Same shape mix as the load bench: one query per nesting type of the
   paper plus a chain, all over the demo R/S/T relations. *)
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
  ]

let normal_rows rows = List.sort compare rows

let normal_of_relation rel =
  let arity = Relational.Schema.arity (Relational.Relation.schema rel) in
  let rows = ref [] in
  Relational.Relation.iter rel (fun t ->
      rows :=
        ( List.init arity (fun i ->
              Relational.Value.to_string (Relational.Ftuple.value t i)),
          Int64.bits_of_float (Relational.Ftuple.degree t) )
        :: !rows);
  normal_rows !rows

(* Faults on every I/O site, scaled off one probability knob; torn writes
   and allocation failures are rarer than plain I/O errors, as on a real
   disk. All transient — the fatal path is exercised by the test suite,
   where the respawned environment can be observed deterministically. *)
let spec_string p =
  Printf.sprintf "read:p=%g;write:p=%g;alloc:p=%g;torn:p=%g;latency:p=0.01:ms=1"
    p p (p /. 2.0) (p /. 4.0)

let data_seed = 11
let workers = 2
let probs = [ 0.01; 0.03; 0.05 ]

(* Snappy backoffs: the demo queries run in single-digit milliseconds, so
   production-scale delays would just stretch the bench. *)
let server_retry =
  { Server.Retry.max_attempts = 6; base_delay_s = 0.002; max_delay_s = 0.02;
    jitter = 0.25 }

let client_retry =
  { Server.Retry.max_attempts = 4; base_delay_s = 0.002; max_delay_s = 0.05;
    jitter = 0.25 }

(* A chaos-tuned breaker: the default (50% threshold, 1 s cooldown) is
   right for production but here the injected failure rate is the point —
   it would shed most of the run and starve the answer comparison. A high
   threshold and a cooldown shorter than the client backoff keeps answers
   flowing while still exercising open/shed/reclose at the top
   probability. *)
let breaker () =
  Server.Breaker.create ~window:32 ~threshold:0.8 ~min_samples:16
    ~cooldown_s:0.02 ()

type cell_outcome = {
  o_fault_seed : int;
  o_prob : float;
  o_spec : string;
  o_telemetry_bad : int;
      (** telemetry-invariant violations in this cell: 0 when the query
          log holds exactly [accepted] records whose request-ID multiset
          equals the trace ring's — i.e. every logged request has exactly
          one span tree *)
  o_row : Harness.chaos_row;
}

(* Pull every "request_id" out of a JSONL query log. The records are
   written by {!Server.Telemetry.Query_log} with the ID as the second
   field, so a plain substring scan per line is enough — no JSON parser
   in the bench. *)
let log_request_ids path =
  let ids = ref [] in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       let key = "\"request_id\":\"" in
       let k = String.length key in
       let n = String.length line in
       let rec find i =
         if i + k > n then ()
         else if String.sub line i k = key then begin
           let j = ref (i + k) in
           while !j < n && line.[!j] <> '"' do
             incr j
           done;
           ids := String.sub line (i + k) (!j - (i + k)) :: !ids
         end
         else find (i + 1)
       in
       find 0
     done
   with End_of_file -> ());
  close_in ic;
  !ids

let write_schedule path (cells : cell_outcome list) =
  let oc = open_out path in
  Printf.fprintf oc
    "{\"data_seed\": %d, \"workers\": %d, \"queries_per_cell\": %d,\n\
    \ \"cells\": [\n"
    data_seed workers !queries;
  let n = List.length cells in
  List.iteri
    (fun i c ->
      let r = c.o_row in
      Printf.fprintf oc
        "  {\"fault_seed\": %d, \"prob\": %g, \"spec\": \"%s\", \
         \"worker_plane_seeds\": [%s], \"ok\": %d, \"wrong\": %d, \
         \"retryable\": %d, \"failed\": %d, \"cancelled\": %d, \
         \"overloaded\": %d, \"injected\": %d, \"retries\": %d, \
         \"respawns\": %d, \"breaker_opened\": %d, \"shed\": %d, \
         \"leaked_workers\": %d}%s\n"
        c.o_fault_seed c.o_prob
        (Harness.json_escape c.o_spec)
        (String.concat ", "
           (List.init workers (fun w -> string_of_int (c.o_fault_seed + w))))
        r.Harness.c_ok r.c_wrong r.c_retryable r.c_failed r.c_cancelled
        r.c_overloaded r.c_injected r.c_retries r.c_respawns r.c_breaker_opened
        r.c_shed r.c_leaked
        (if i = n - 1 then "" else ","))
    cells;
  output_string oc " ]}\n";
  close_out oc

let run_cell ~expected ~setup ~fault_seed ~prob =
  let spec_s = spec_string prob in
  let spec =
    match Storage.Fault.parse_spec spec_s with
    | Ok s -> s
    | Error m -> failwith ("chaos: bad generated spec: " ^ m)
  in
  (* Telemetry rides along on every cell: a throwaway query log plus a
     trace ring big enough that nothing evicts (each client retry is a
     fresh request with its own ID), so after the drain we can assert
     log records == accepted and the log's ID multiset == the ring's. *)
  let qlog = Filename.temp_file "fsqld_chaos_qlog" ".jsonl" in
  let ring_capacity = (!queries * client_retry.Server.Retry.max_attempts) + 64 in
  let daemon =
    Server.Daemon.start ~workers ~queue_capacity:32 ~retry:server_retry
      ~breaker:(breaker ()) ~fault_spec:spec ~fault_seed
      ~query_log:qlog ~trace_ring_capacity:ring_capacity ~setup ()
  in
  let port = Server.Daemon.port daemon in
  let n_clients = 2 in
  let ok = Atomic.make 0 and wrong = Atomic.make 0 in
  let retryable = Atomic.make 0 and failed = Atomic.make 0 in
  let cancelled = Atomic.make 0 and overloaded = Atomic.make 0 in
  let worker idx n () =
    let client = Server.Client.connect ~port () in
    for i = 0 to n - 1 do
      let name, sql =
        List.nth shapes ((idx + i) mod List.length shapes)
      in
      match Server.Client.query ~retry:client_retry client sql with
      | Server.Client.Answer { rows; _ } ->
          let got =
            normal_rows
              (List.map
                 (fun (r : Server.Client.row) ->
                   (r.values, Int64.bits_of_float r.degree))
                 rows)
          in
          if got = List.assoc name expected then Atomic.incr ok
          else Atomic.incr wrong
      | Server.Client.Retryable _ -> Atomic.incr retryable
      | Server.Client.Failed _ | Server.Client.Rejected _ ->
          Atomic.incr failed
      | Server.Client.Cancelled _ -> Atomic.incr cancelled
      | Server.Client.Overloaded -> Atomic.incr overloaded
    done;
    Server.Client.close client
  in
  let per_client = !queries / n_clients in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init n_clients (fun i ->
        let n =
          if i = 0 then !queries - (per_client * (n_clients - 1))
          else per_client
        in
        Thread.create (worker i n) ())
  in
  List.iter Thread.join threads;
  (* Drain before reading the books: stop completes every admitted query,
     so any accepted-but-unanswered query left now is a genuine leak. *)
  Server.Daemon.stop daemon;
  let duration = Unix.gettimeofday () -. t0 in
  let c name = Server.Daemon.counter_value daemon name in
  let accepted = c "requests_accepted" in
  let leaked =
    accepted
    - (c "requests_completed" + c "requests_cancelled" + c "requests_failed"
     + c "requests_failed_transient")
  in
  (* Telemetry invariants, checked with the books: one log record per
     accepted request, and the same request-ID multiset in the log and
     the trace ring (=> every logged ID has exactly one span tree). *)
  let telemetry_bad =
    let logged = match Server.Daemon.query_log_written daemon with
      | Some n -> n
      | None -> -1
    in
    let log_ids = List.sort compare (log_request_ids qlog) in
    let ring_ids =
      List.sort compare (Server.Telemetry.Ring.ids (Server.Daemon.trace_ring daemon))
    in
    let bad = ref 0 in
    if logged <> accepted then begin
      incr bad;
      note "  telemetry: query log has %d records, accepted %d@." logged
        accepted
    end;
    if List.length log_ids <> accepted then begin
      incr bad;
      note "  telemetry: %d request IDs in the log file, accepted %d@."
        (List.length log_ids) accepted
    end;
    if log_ids <> ring_ids then begin
      incr bad;
      note "  telemetry: log / trace-ring request-ID multisets differ (%d vs \
            %d)@."
        (List.length log_ids) (List.length ring_ids)
    end;
    !bad
  in
  (try Sys.remove qlog with Sys_error _ -> ());
  {
    o_fault_seed = fault_seed;
    o_prob = prob;
    o_spec = spec_s;
    o_telemetry_bad = telemetry_bad;
    o_row =
      {
        Harness.c_fault_seed = fault_seed;
        c_prob = prob;
        c_spec = spec_s;
        c_ok = Atomic.get ok;
        c_wrong = Atomic.get wrong;
        c_retryable = Atomic.get retryable;
        c_failed = Atomic.get failed;
        c_cancelled = Atomic.get cancelled;
        c_overloaded = Atomic.get overloaded;
        c_injected = c "faults_injected";
        c_retries = c "retries";
        c_respawns = c "workers_respawned";
        c_breaker_opened = c "breaker_opened";
        c_shed = c "requests_shed_breaker";
        c_leaked = leaked;
        c_duration_s = duration;
      };
  }

let run (cfg : Harness.config) =
  section "Chaos - fault injection vs the serving path";
  note "every completed answer is checked bit-for-bit against the fault-free@.";
  note "sequential engine; after each cell the daemon drains and the books@.";
  note "must balance (accepted = completed + cancelled + failed + transient)@.";
  note "(%d queries per cell, %d workers, data seed %d)@.@." !queries workers
    data_seed;
  (* Fault-free ground truth: same loader, same data seed. *)
  let setup = Server.Demo.server_setup ~seed:data_seed () in
  let env = Storage.Env.create () in
  let catalog = Relational.Catalog.create env in
  setup env catalog;
  let expected =
    List.map
      (fun (name, sql) ->
        let q =
          Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql
        in
        (name, normal_of_relation (Unnest.Planner.run q)))
      shapes
  in
  Format.printf "%-6s | %-5s | %5s | %5s | %5s | %6s | %5s | %8s | %7s | %8s | %5s | %6s@."
    "seed" "p" "ok" "wrong" "retry-" "failed" "canc" "overload" "injected"
    "retries" "resp" "leaked";
  Harness.hr Format.std_formatter 104;
  let cells =
    List.concat_map
      (fun ds ->
        let fault_seed = cfg.Harness.seed + ds in
        List.map
          (fun prob ->
            let cell =
              run_cell ~expected ~setup ~fault_seed ~prob
            in
            let r = cell.o_row in
            Format.printf
              "%-6d | %-5g | %5d | %5d | %5d | %6d | %5d | %8d | %7d | %8d | %5d | %6d@."
              fault_seed prob r.Harness.c_ok r.c_wrong r.c_retryable r.c_failed
              r.c_cancelled r.c_overloaded r.c_injected r.c_retries
              r.c_respawns r.c_leaked;
            Harness.chaos_results := r :: !Harness.chaos_results;
            cell)
          probs)
      [ 0; 1; 2 ]
  in
  (* Bench artifacts live under bench/artifacts/, not the repo root. *)
  let artifacts_dir = Filename.concat "bench" "artifacts" in
  (try Unix.mkdir "bench" 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  (try Unix.mkdir artifacts_dir 0o755
   with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ());
  let schedule_path = Filename.concat artifacts_dir "chaos_schedule.json" in
  write_schedule schedule_path cells;
  let total f = List.fold_left (fun a c -> a + f c.o_row) 0 cells in
  let wrong = total (fun r -> r.Harness.c_wrong) in
  let leaked = total (fun r -> r.Harness.c_leaked) in
  let telemetry_bad =
    List.fold_left (fun a c -> a + c.o_telemetry_bad) 0 cells
  in
  note "@.wrote %s (%d cells)@." schedule_path (List.length cells);
  note "chaos verdict: %s (%d wrong answers, %d leaked queries, %d telemetry \
        violations, %d faults injected, %d retries, %d respawns)@."
    (if wrong = 0 && leaked = 0 && telemetry_bad = 0 then "PASS" else "FAIL")
    wrong leaked telemetry_bad
    (total (fun r -> r.Harness.c_injected))
    (total (fun r -> r.Harness.c_retries))
    (total (fun r -> r.Harness.c_respawns))
