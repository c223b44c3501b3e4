open Relational
module Cancel = Storage.Cancel
module Trace = Storage.Trace
module Metrics = Storage.Metrics
module Fault = Storage.Fault

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e

type conn = {
  fd : Unix.file_descr;
  lock : Mutex.t;  (** guards [fd] writes and the mutable fields *)
  mutable busy : bool;  (** a query admitted, terminal frame pending *)
  mutable current : Cancel.t option;
  mutable alive : bool;  (** false once the peer is gone: writes no-op *)
}

type job = {
  request_id : string;
      (** client-generated, or server-assigned ([srv-] prefix) for rev-1
          clients — every span tree in the trace ring has exactly one *)
  sql : string;
  job_domains : int;
  cancel : Cancel.t;
  enqueued_at : float;
  trace : Trace.t;
      (** created at admission so its time origin covers the queue wait;
          handed off through the queue's mutex (single-threaded use) *)
  conn : conn;
}

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  host : string;
  n_workers : int;
  query_domains : int;
  query_batch : bool;
  default_deadline_ms : int option;
  mem_pages : int;
  terms : Fuzzy.Term.t;
  make_env : unit -> Storage.Env.t;
      (** storage factory for worker and admission environments; the
          default builds simulated envs, [fsqld --data-dir] passes
          read-only durable opens of a recovered directory *)
  setup : Storage.Env.t -> Catalog.t -> unit;
  check : Fuzzysql.Check.ctx;
      (** admission-side static analysis context, over a private
          env + catalog built once at [start] with [setup] *)
  check_lock : Mutex.t;
      (** the admission catalog's storage is single-threaded; connection
          threads take this around every static check *)
  on_trace : (Trace.t -> unit) option;
  queue : job Bounded_queue.t;
  metrics : Metrics.t;
  mlock : Mutex.t;  (** the registry is single-threaded; workers share it *)
  trace_ring : Telemetry.Ring.t;
  query_log : Telemetry.Query_log.t option;
  id_rng : Random.State.t;  (** server-assigned request IDs; under mlock *)
  inflight : int ref;  (** jobs between dequeue and terminal; under mlock *)
  pool : Storage.Task_pool.t;
  retry : Retry.policy;
  breaker : Breaker.t;
  fault_spec : Fault.spec option;
  fault_seed : int;
  replica : Replication.Replica.t option;
      (** replica mode: workers serve read-only under the replica's lock
          and rebuild their environments as batches apply *)
  max_staleness_ms : int option;
      (** replica mode: admission rejects (retryably) when the applied
          state is staler than this *)
  mutable sender : Replication.Sender.t option;
      (** primary mode (or a promoted replica): serves [Rep_subscribe] *)
  promote_lock : Mutex.t;
  mutable draining : bool;
  mutable http : Telemetry.Http.t option;
  mutable runner : Thread.t option;
  mutable acceptor : Thread.t option;
  conns : (conn * Thread.t) list ref;
  conns_lock : Mutex.t;
}

let port t = t.bound_port
let workers t = t.n_workers
let queue_length t = Bounded_queue.length t.queue

let count ?(by = 1) t name =
  with_lock t.mlock (fun () -> Metrics.incr ~by (Metrics.counter t.metrics name))

let observe t name v =
  with_lock t.mlock (fun () -> Metrics.observe (Metrics.histogram t.metrics name) v)

let counter_value t name =
  with_lock t.mlock (fun () -> Metrics.counter_value (Metrics.counter t.metrics name))

let observe_window t name v =
  let now = Unix.gettimeofday () in
  with_lock t.mlock (fun () ->
      Metrics.observe_window (Metrics.window_histogram t.metrics name) ~now v)

(* Gauges are point-in-time: refresh them at every snapshot (metrics
   dump, Prometheus scrape, \top) rather than on every state change. Call
   under [mlock]. *)
let refresh_gauges t =
  let now = Unix.gettimeofday () in
  Metrics.set_gauge
    (Metrics.gauge t.metrics "queue_depth")
    (float_of_int (Bounded_queue.length t.queue));
  Metrics.set_gauge
    (Metrics.gauge t.metrics "busy_workers")
    (float_of_int !(t.inflight));
  Metrics.set_gauge
    (Metrics.gauge t.metrics "breaker_open")
    (if Breaker.is_open t.breaker ~now then 1.0 else 0.0);
  let g name v = Metrics.set_gauge (Metrics.gauge t.metrics name) v in
  (match t.replica with
  | Some r ->
      let lag = float_of_int (Replication.Replica.lag_bytes r) in
      g "replication_epoch" (float_of_int (Replication.Replica.epoch r));
      g "replica_connected" (if Replication.Replica.connected r then 1.0 else 0.0);
      g "replication_lag_bytes" lag;
      (* LSNs are byte offsets into the shipped log, so LSN lag and byte
         lag coincide; both names are exposed for dashboards. *)
      g "replication_lag_lsn" lag;
      g "replication_applied_lsn"
        (float_of_int (Replication.Replica.applied_lsn r));
      g "replication_staleness_ms"
        (let s = Replication.Replica.stale_ms r in
         if Float.is_finite s then s else -1.0);
      g "replication_fenced_rejects"
        (float_of_int (Replication.Replica.fenced_rejects r))
  | None -> ());
  match t.sender with
  | Some s ->
      let lag = float_of_int (Replication.Sender.lag_bytes s) in
      g "replication_epoch" (float_of_int (Replication.Sender.epoch s));
      g "replication_subscribers"
        (float_of_int (Replication.Sender.connected s));
      g "replication_lag_bytes" lag;
      g "replication_lag_lsn" lag;
      g "replication_fenced" (float_of_int (Replication.Sender.fenced s));
      if Option.is_none t.replica then
        g "replica_connected" (float_of_int (Replication.Sender.connected s))
  | None -> ()

let metrics_json t =
  with_lock t.mlock (fun () ->
      refresh_gauges t;
      Metrics.to_json t.metrics)

let top_text t =
  let now = Unix.gettimeofday () in
  with_lock t.mlock (fun () ->
      refresh_gauges t;
      Telemetry.render_top t.metrics ~now)

let prometheus_text t =
  let now = Unix.gettimeofday () in
  with_lock t.mlock (fun () ->
      refresh_gauges t;
      Telemetry.render_prometheus t.metrics ~now)

let trace_json t id = Telemetry.Ring.find t.trace_ring id
let trace_ring t = t.trace_ring
let query_log_written t = Option.map Telemetry.Query_log.written t.query_log
let metrics_port t = Option.map Telemetry.Http.port t.http
let sender t = t.sender

let reopen_query_log t =
  Option.iter Telemetry.Query_log.reopen t.query_log

let healthz_json t =
  let now = Unix.gettimeofday () in
  let open_ = Breaker.is_open t.breaker ~now in
  let depth = Bounded_queue.length t.queue in
  let busy = with_lock t.mlock (fun () -> !(t.inflight)) in
  let ok = (not open_) && not t.draining in
  ( ok,
    Printf.sprintf
      "{\"status\":\"%s\",\"breaker_open\":%b,\"queue_depth\":%d,\
       \"busy_workers\":%d,\"draining\":%b}"
      (if ok then "ok" else "unavailable")
      open_ depth busy t.draining )

(* Frame writes are serialised per connection and silently dropped once
   the peer is gone — a disconnected client must not take its worker down
   (SIGPIPE is ignored at [start]; [Wire] surfaces the peer vanishing as
   [Connection_closed]). Call under [conn.lock]. *)
let write_or_drop conn frames =
  if conn.alive then
    try Wire.write_buffer conn.fd frames
    with Wire.Connection_closed | Unix.Unix_error _ -> conn.alive <- false

let send conn reply =
  let b = Buffer.create 64 in
  Wire.add_reply b reply;
  with_lock conn.lock (fun () -> write_or_drop conn b)

(* ------------------------------------------------------------------ *)
(* Worker side *)

(* A query's whole reply — [body] (the encoded Header and Rows, when the
   query answered) plus the terminal frame — goes out in one write:
   written frame by frame, the Rows would wait on the client's delayed
   ACK whenever Nagle held one back. The write happens in the same
   critical section that clears [busy]: a prompt client pipelines its
   next query right after reading the terminal frame, and if [busy] were
   cleared after the write the connection thread could reject that query
   as still-in-flight. *)
let send_terminal ?(body = Buffer.create 64) conn reply =
  Wire.add_reply body reply;
  with_lock conn.lock (fun () ->
      conn.busy <- false;
      conn.current <- None;
      write_or_drop conn body)

(* Encode the answer's Header and Row frames into one buffer. This reads
   relation pages through the buffer pool, so under fault injection it
   can fault — which is exactly why it runs inside the retried attempt,
   and why each attempt starts a fresh buffer: a failed attempt leaves
   nothing behind, and a retry never follows a half-sent answer. *)
let collect_answer answer =
  let schema = Relation.schema answer in
  let arity = Schema.arity schema in
  let body = Buffer.create 4096 in
  Wire.add_reply body
    (Wire.Header (Array.to_list (Array.map fst (Schema.attrs schema))));
  let rows = ref 0 in
  Relation.iter answer (fun tup ->
      Wire.add_reply body
        (Wire.Row
           {
             degree_bits = Int64.bits_of_float (Ftuple.degree tup);
             values =
               List.init arity (fun i -> Value.to_string (Ftuple.value tup i));
           });
      incr rows);
  (body, !rows)

let feed_breaker t ~ok =
  match Breaker.record t.breaker ~now:(Unix.gettimeofday ()) ~ok with
  | `Opened -> count t "breaker_opened"
  | `Stayed -> ()

(* One admitted query: plan + execute + collect under the retry loop,
   then stream the collected rows. Returns [true] when the worker's
   environment must be respawned (a fatal fault or an unclassified
   exception left it suspect). *)
(* "deadline exceeded" is set by [Storage.Cancel]'s deadline check;
   "cancelled by client" / "client disconnected" by the connection side.
   The split keeps the books honest: a latency SLO breach and a user
   pressing ^C are different operational signals. *)
let deadline_reason reason =
  let sub = "deadline" and n = String.length reason in
  let m = String.length sub in
  let rec go i = i + m <= n && (String.sub reason i m = sub || go (i + 1)) in
  go 0

exception Invalid_query of string
(** rendered diagnostics; raised inside an attempt by the worker-side
    backstop check (admission normally rejects these queries first) *)

let handle_job t ~env ~check ~plane ~rng job =
  let dequeued = Unix.gettimeofday () in
  let tr = Some job.trace in
  let faults_before = match plane with Some p -> Fault.injected p | None -> 0 in
  let stats = env.Storage.Env.stats in
  let reads0 = Storage.Iostats.page_reads stats in
  let writes0 = Storage.Iostats.page_writes stats in
  let cmps0 = Storage.Iostats.comparisons stats in
  let fops0 = Storage.Iostats.fuzzy_ops stats in
  let retries_used = ref 0 in
  let attempt () =
    Cancel.raise_if_cancelled job.cancel;
    let q =
      Trace.with_span tr "plan" (fun () ->
          (* The same static analysis that guards admission, against this
             worker's private catalog. Statically-invalid queries normally
             never get here; when one does (or the exception backstops
             below fire), the reply renders the full diagnostics. *)
          match Fuzzysql.Check.check_string check job.sql with
          | Some q, _ -> q
          | None, diags ->
              let prefix =
                match Fuzzysql.Diagnostic.errors diags with
                | { Fuzzysql.Diagnostic.code = "FSQL001"; _ } :: _ ->
                    "lex error"
                | { Fuzzysql.Diagnostic.code = "FSQL002"; _ } :: _ ->
                    "parse error"
                | _ -> "semantic error"
              in
              raise
                (Invalid_query
                   (prefix ^ ":\n"
                   ^ Fuzzysql.Diagnostic.render_all ~source:job.sql diags)))
    in
    let stats = env.Storage.Env.stats in
    Trace.with_span tr ~stats "exec" (fun () ->
        let answer =
          Unnest.Planner.run ~mem_pages:t.mem_pages ~domains:job.job_domains
            ~batch:t.query_batch ~trace:job.trace ~cancel:job.cancel q
        in
        Fun.protect
          ~finally:(fun () -> Relation.destroy answer)
          (fun () -> collect_answer answer))
  in
  let rec attempts n =
    match attempt () with
    | v -> `Ok v
    | exception Cancel.Cancelled reason -> `Cancelled reason
    | exception Invalid_query m -> `Bad_query m
    | exception Fuzzysql.Parser.Error m -> `Bad_query ("parse error: " ^ m)
    | exception Fuzzysql.Lexer.Error (m, pos) ->
        `Bad_query (Printf.sprintf "lex error at offset %d: %s" pos m)
    | exception Fuzzysql.Analyzer.Error m -> `Bad_query ("semantic error: " ^ m)
    | exception Unnest.Planner.Unsupported m -> `Bad_query ("unsupported: " ^ m)
    | exception (Fault.Injected { severity = Fault.Transient; _ } as e) ->
        let m = Printexc.to_string e in
        Trace.add_timed_span tr ("fault " ^ m) ~start_s:(Unix.gettimeofday ())
          ~dur_s:0.0;
        if n >= t.retry.Retry.max_attempts then
          `Gave_up ("transient fault, retries exhausted: " ^ m)
        else begin
          let delay = Retry.delay_for t.retry ~rng ~attempt:n in
          let now = Unix.gettimeofday () in
          let budget_ok =
            (* A retry must never start when the remaining deadline budget
               is smaller than the backoff sleep. *)
            match Cancel.deadline job.cancel with
            | Some d -> now +. delay <= d
            | None -> true
          in
          if not budget_ok then
            `Gave_up ("transient fault, no deadline budget left to retry: " ^ m)
          else begin
            count t "retries";
            incr retries_used;
            observe t "retry_backoff_s" delay;
            Trace.add_timed_span tr "retry-backoff" ~start_s:now ~dur_s:delay;
            match Retry.sleep ~cancel:job.cancel delay with
            | `Cancelled -> `Cancelled (Cancel.reason job.cancel)
            | `Slept -> attempts (n + 1)
          end
        end
    | exception (Fault.Injected { severity = Fault.Fatal; _ } as e) ->
        `Fatal ("fatal storage fault: " ^ Printexc.to_string e)
    | exception e ->
        (* Typed storage errors (Sim_disk.Bad_page, Write_size,
           Buffer_pool.All_frames_pinned) and anything unclassified: the
           environment is suspect, answer and respawn. *)
        `Fatal ("internal error: " ^ Printexc.to_string e)
  in
  let respawn = ref false in
  let outcome = ref "ok" in
  let answer_rows = ref 0 in
  (* ALL bookkeeping — counters, breaker, histograms, trace ring, query
     log — lands before the terminal frame goes out (the one exception:
     [inflight], decremented by the caller). A client that reads its
     reply and immediately scrapes /metrics, fetches the trace, or tails
     the log must see this request already booked. *)
  let terminal = ref None in
  let body = ref None in
  Trace.with_span tr "request" (fun () ->
      Trace.add_timed_span tr "queue-wait" ~start_s:job.enqueued_at
        ~dur_s:(dequeued -. job.enqueued_at);
      match attempts 1 with
      | `Ok (frames, rows) ->
          (* admission to "reply encoded": the socket write comes later *)
          let elapsed_s = Unix.gettimeofday () -. job.enqueued_at in
          body := Some frames;
          answer_rows := rows;
          count t "requests_completed";
          feed_breaker t ~ok:true;
          terminal := Some (Wire.Done { rows; elapsed_s })
      | `Cancelled reason ->
          (* The aggregate stays (the books-balance identity and existing
             dashboards read it); the split attributes it. *)
          count t "requests_cancelled";
          if deadline_reason reason then begin
            count t "requests_cancelled_deadline";
            outcome := "cancelled_deadline"
          end
          else begin
            count t "requests_cancelled_client";
            outcome := "cancelled_client"
          end;
          terminal := Some (Wire.Cancelled reason)
      | `Bad_query m ->
          (* The client's mistake, not server health: keep it out of the
             breaker's error budget. *)
          count t "requests_failed";
          outcome := "error";
          terminal := Some (Wire.Error m)
      | `Gave_up m ->
          count t "requests_failed_transient";
          outcome := "failed_transient";
          feed_breaker t ~ok:false;
          terminal := Some (Wire.Retryable m)
      | `Fatal m ->
          count t "requests_failed";
          outcome := "error";
          feed_breaker t ~ok:false;
          respawn := true;
          terminal := Some (Wire.Error m));
  (match plane with
  | Some p ->
      let d = Fault.injected p - faults_before in
      if d > 0 then count ~by:d t "faults_injected"
  | None -> ());
  let now = Unix.gettimeofday () in
  let queue_wait_s = dequeued -. job.enqueued_at in
  let exec_s = now -. dequeued in
  observe t "queue_wait_s" queue_wait_s;
  observe t "exec_s" exec_s;
  observe t "latency_s" (now -. job.enqueued_at);
  observe_window t "queue_wait_s" queue_wait_s;
  observe_window t "exec_s" exec_s;
  observe_window t "latency_s" (now -. job.enqueued_at);
  (match t.on_trace with Some f -> f job.trace | None -> ());
  Telemetry.Ring.add t.trace_ring ~id:job.request_id
    ~json:(Trace.to_chrome_json job.trace);
  (match t.query_log with
  | Some log ->
      Telemetry.Query_log.log log
        {
          Telemetry.Query_log.ts = now;
          request_id = job.request_id;
          shape = Telemetry.normalize_sql job.sql;
          engine = (if t.query_batch then "batch" else "scalar");
          queue_wait_s;
          exec_s;
          page_reads = Storage.Iostats.page_reads stats - reads0;
          page_writes = Storage.Iostats.page_writes stats - writes0;
          comparisons = Storage.Iostats.comparisons stats - cmps0;
          fuzzy_ops = Storage.Iostats.fuzzy_ops stats - fops0;
          rows = !answer_rows;
          retries = !retries_used;
          outcome = !outcome;
        }
  | None -> ());
  (match !terminal with
  | Some reply -> send_terminal ?body:!body job.conn reply
  | None -> ());
  !respawn

let worker_loop t widx () =
  (* Shared-nothing: a private environment and catalog per worker domain
     (the storage layer is single-threaded by design). The fault plane is
     attached only after [setup] has loaded the catalog, so data loading
     itself never faults; each worker's plane gets its own seed stream. *)
  let build () =
    let env = t.make_env () in
    let catalog = Catalog.create env in
    t.setup env catalog;
    (* The static-analysis context scans every relation once; built before
       the fault plane attaches, so the scan itself never faults. *)
    let check = Fuzzysql.Check.ctx ~catalog ~terms:t.terms in
    let plane =
      Option.map
        (fun spec -> Fault.create ~seed:(t.fault_seed + widx) spec)
        t.fault_spec
    in
    Storage.Env.set_fault env plane;
    (env, check, plane)
  in
  let rng = Random.State.make [| 0xB0FF; t.fault_seed; widx |] in
  let state = ref (build ()) in
  let gen =
    ref (match t.replica with
        | Some r -> Replication.Replica.generation r
        | None -> 0)
  in
  (* In replica mode a query runs under the read side of the replica's
     lock, so the applier never swaps files or writes pages mid-query;
     when the apply generation has moved, the worker first rebuilds its
     environment (closing the old one — its fds point at applied-over or
     renamed-away files). *)
  let run_job job =
    match t.replica with
    | None ->
        let env, check, plane = !state in
        handle_job t ~env ~check ~plane ~rng job
    | Some r ->
        Replication.Replica.with_read r (fun () ->
            let g = Replication.Replica.generation r in
            if g <> !gen then begin
              let env, _, _ = !state in
              (try Storage.Env.close env with _ -> ());
              state := build ();
              gen := g
            end;
            let env, check, plane = !state in
            handle_job t ~env ~check ~plane ~rng job)
  in
  let rec loop () =
    match Bounded_queue.pop t.queue with
    | None -> ()
    | Some job ->
        with_lock t.mlock (fun () -> incr t.inflight);
        let finally () = with_lock t.mlock (fun () -> decr t.inflight) in
        let respawn =
          try Fun.protect ~finally (fun () -> run_job job)
          with e ->
            (* handle_job classifies everything; if it still raised (a
               poisoned query broke an invariant), answer the query and
               rebuild rather than letting the worker die. *)
            send_terminal job.conn
              (Wire.Error ("internal error: " ^ Printexc.to_string e));
            count t "requests_failed";
            feed_breaker t ~ok:false;
            true
        in
        if respawn then begin
          count t "workers_respawned";
          state := build ()
        end;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection side *)

(* A statically-invalid query never reaches the worker queue: the check
   runs on the connection thread against the admission catalog (built
   once at [start]), and the rejection is terminal and non-retryable —
   resubmitting the same text cannot succeed. Only Error-severity
   diagnostics reject; satisfiability warnings ride along in the
   rendered report of a rejected query but never reject on their own. *)
let static_reject t sql =
  let diags =
    with_lock t.check_lock (fun () ->
        snd (Fuzzysql.Check.check_string t.check sql))
  in
  match Fuzzysql.Diagnostic.errors diags with
  | [] -> None
  | { Fuzzysql.Diagnostic.code; _ } :: _ ->
      Some (code, Fuzzysql.Diagnostic.render_all ~source:sql diags)

let admit t conn ~request_id ~deadline_ms ~domains sql =
  let now = Unix.gettimeofday () in
  let request_id =
    (* Rev-1 clients send no ID; assign one so the trace ring and query
       log still have a handle for every request. The [srv-] prefix makes
       the provenance visible in the log. *)
    if request_id <> "" then request_id
    else
      "srv-" ^ with_lock t.mlock (fun () -> Telemetry.gen_request_id t.id_rng)
  in
  (* Cheap connection-state verdicts first; the static check (a parse
     plus catalog lookups) runs only for queries that could be admitted.
     [admit] is the only writer of [busy] and runs on the one connection
     thread, so the state cannot flip between these sections. *)
  let pre =
    with_lock conn.lock (fun () ->
        if conn.busy then `Busy else if t.draining then `Draining else `Go)
  in
  let pre =
    (* Replica-mode staleness admission: a replica that has fallen more
       than [max_staleness_ms] behind (or is still in its first catch-up)
       rejects retryably — clients with a retry policy ride it out, and a
       promoted replica never rejects. *)
    match (pre, t.replica, t.max_staleness_ms) with
    | `Go, Some r, Some max_ms when not (Replication.Replica.promoted r) ->
        let s = Replication.Replica.stale_ms r in
        if s > float_of_int max_ms then `Stale s else `Go
    | _ -> pre
  in
  match pre with
  | `Busy ->
      send conn (Wire.Error "a query is already in flight on this connection")
  | `Draining -> send conn (Wire.Error "server is shutting down")
  | `Stale s ->
      count t "requests_rejected_stale";
      send conn
        (Wire.Retryable
           (if Float.is_finite s then
              Printf.sprintf
                "replica is %.0f ms stale (max-staleness %d ms); retry" s
                (Option.value t.max_staleness_ms ~default:0)
            else "replica has not completed its first catch-up; retry"))
  | `Go -> (
      match static_reject t sql with
      | Some (code, diagnostics) ->
          count t "requests_rejected_static";
          (match t.query_log with
          | Some log ->
              Telemetry.Query_log.log log
                {
                  Telemetry.Query_log.ts = now;
                  request_id;
                  shape = Telemetry.normalize_sql sql;
                  engine = (if t.query_batch then "batch" else "scalar");
                  queue_wait_s = 0.;
                  exec_s = 0.;
                  page_reads = 0;
                  page_writes = 0;
                  comparisons = 0;
                  fuzzy_ops = 0;
                  rows = 0;
                  retries = 0;
                  outcome = "rejected_static";
                }
          | None -> ());
          send conn (Wire.Rejected { code; diagnostics })
      | None -> (
          let deadline_ms =
            if deadline_ms > 0 then Some deadline_ms else t.default_deadline_ms
          in
          (* Worker 0 runs on the main domain, next to the accept and
             connection threads, and holds its runtime lock while it
             computes. Yielding at each poll lets those threads run. *)
          let cancel =
            Cancel.create ~on_poll:Thread.yield
              ?deadline:
                (Option.map
                   (fun ms -> now +. (float_of_int ms /. 1000.0))
                   deadline_ms)
              ()
          in
          let job =
            {
              request_id;
              sql;
              job_domains = (if domains >= 1 then domains else t.query_domains);
              cancel;
              enqueued_at = now;
              trace = Trace.create ();
              conn;
            }
          in
          let verdict =
            with_lock conn.lock (fun () ->
                if t.draining then `Draining
                else if not (Breaker.allow t.breaker ~now) then `Shed
                else if Bounded_queue.try_push t.queue job then begin
                  conn.busy <- true;
                  conn.current <- Some cancel;
                  `Accepted
                end
                else `Full)
          in
          match verdict with
          | `Accepted -> count t "requests_accepted"
          | `Full ->
              count t "requests_rejected_overload";
              send conn Wire.Overloaded
          | `Shed ->
              (* Error budget exhausted: shed before the queue, same reply
                 as a full queue so clients back off identically. *)
              count t "requests_shed_breaker";
              send conn Wire.Overloaded
          | `Draining -> send conn (Wire.Error "server is shutting down")))

(* A replication subscriber's stream is written by a sender thread; it
   must fail loudly (ending the stream) when the peer is gone, unlike
   [send] which drops silently on behalf of workers. *)
let rep_send conn reply =
  with_lock conn.lock (fun () ->
      if not conn.alive then raise Wire.Connection_closed;
      Wire.write_reply conn.fd reply)

(* Promotion is idempotent and serialised: bump the replica's epoch, then
   stand up a sender over the promoted directory so further replicas can
   chain off the new primary. *)
let promote t =
  match t.replica with
  | None -> Error "this server is not a replica"
  | Some r ->
      let epoch =
        with_lock t.promote_lock (fun () ->
            let e = Replication.Replica.promote r in
            (match t.sender with
            | None ->
                t.sender <-
                  Some
                    (Replication.Sender.create_for_dir
                       ~dir:(Replication.Replica.dir r))
            | Some _ -> ());
            e)
      in
      count t "promotions";
      Ok epoch

let conn_loop t conn =
  let rep_sub = ref None in
  (try
     let rec loop () =
       (match Wire.read_request conn.fd with
       | Wire.Query { request_id; deadline_ms; domains; sql } ->
           admit t conn ~request_id ~deadline_ms ~domains sql
       | Wire.Cancel -> (
           match with_lock conn.lock (fun () -> conn.current) with
           | Some c -> Cancel.cancel ~reason:"cancelled by client" c
           | None -> ())
       | Wire.Metrics -> send conn (Wire.Metrics_json (metrics_json t))
       | Wire.Trace_get id -> send conn (Wire.Trace_json (trace_json t id))
       | Wire.Top -> send conn (Wire.Top_text (top_text t))
       | Wire.Promote -> (
           match promote t with
           | Ok epoch -> send conn (Wire.Promoted { epoch })
           | Error m -> send conn (Wire.Error m))
       | Wire.Rep_subscribe { epoch; stream_id; from_lsn } -> (
           match t.sender with
           | None -> send conn (Wire.Error "replication is not enabled")
           | Some s ->
               rep_sub :=
                 Replication.Sender.serve s ~epoch ~stream_id ~from_lsn
                   ~send:(rep_send conn))
       | Wire.Rep_ack { epoch = _; applied_lsn } -> (
           match (t.sender, !rep_sub) with
           | Some s, Some id -> Replication.Sender.ack s ~id ~applied_lsn
           | _ -> ()));
       loop ()
     in
     loop ()
   with
  | Wire.Connection_closed | Unix.Unix_error _ | Wire.Protocol_error _ -> ());
  (match (t.sender, !rep_sub) with
  | Some s, Some id -> Replication.Sender.drop s ~id
  | _ -> ());
  (* Peer gone (or the daemon shut the socket down): cancel any in-flight
     query so its worker frees up, wait for the terminal no-op send, and
     only then close the descriptor — closing while a worker still writes
     would race the fd number. *)
  with_lock conn.lock (fun () ->
      conn.alive <- false;
      match conn.current with
      | Some c -> Cancel.cancel ~reason:"client disconnected" c
      | None -> ());
  while with_lock conn.lock (fun () -> conn.busy) do
    Thread.yield ();
    Thread.delay 0.002
  done;
  try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* The accept thread must be unkillable short of [stop]: every transient
   accept(2) failure — a signal (EINTR), a connection that died in the
   backlog (ECONNABORTED), fd exhaustion (EMFILE/ENFILE) or a spurious
   wakeup (EAGAIN) — is counted and retried, with a bounded sleep when
   the failure is resource exhaustion so the retry doesn't spin while
   the situation persists. Anything else (EBADF after [stop] closes the
   socket, EINVAL) is terminal for the loop. *)
let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error ((EINTR | ECONNABORTED), _, _) ->
        if t.draining then ()
        else begin
          count t "accept_errors";
          loop ()
        end
    | exception
        Unix.Unix_error ((EMFILE | ENFILE | EAGAIN | EWOULDBLOCK), _, _) ->
        if t.draining then ()
        else begin
          count t "accept_errors";
          Thread.delay 0.05;
          loop ()
        end
    | exception Unix.Unix_error (_, _, _) -> ()
    | fd, _addr ->
        if t.draining then Unix.close fd (* the stop wake-up; exit *)
        else begin
          Wire.set_nodelay fd;
          let conn =
            { fd; lock = Mutex.create (); busy = false; current = None;
              alive = true }
          in
          let th = Thread.create (conn_loop t) conn in
          with_lock t.conns_lock (fun () -> t.conns := (conn, th) :: !(t.conns));
          loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> invalid_arg ("Daemon.start: unknown host " ^ host))

let start ?(host = "127.0.0.1") ?(port = 0) ?(workers = 2)
    ?(queue_capacity = 16) ?default_deadline_ms ?(domains = 1)
    ?(batch = false) ?(mem_pages = Unnest.Planner.default_mem_pages)
    ?(terms = Fuzzy.Term.paper) ?on_trace ?(retry = Retry.default) ?breaker
    ?fault_spec ?(fault_seed = 0) ?metrics_port ?query_log ?slow_ms
    ?(trace_ring_capacity = 64) ?make_env ?sender ?replica ?max_staleness_ms
    ~setup () =
  if workers < 1 then invalid_arg "Daemon.start: workers < 1";
  if domains < 1 then invalid_arg "Daemon.start: domains < 1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (resolve host, port));
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (* The admission-side static-analysis context: a private environment
     loaded with the same [setup] the workers use, scanned once. No fault
     plane is ever attached to it — admission must stay deterministic. *)
  let make_env =
    match make_env with
    | Some f -> fun () -> f ~pool_pages:mem_pages
    | None -> fun () -> Storage.Env.create ~pool_pages:mem_pages ()
  in
  let build_check () =
    let env = make_env () in
    let catalog = Catalog.create env in
    setup env catalog;
    Fuzzysql.Check.ctx ~catalog ~terms
  in
  (* In replica mode the admission environment opens the files the
     applier is writing; take the read side so the open never races a
     batch apply or a snapshot swap. *)
  let check =
    match replica with
    | Some r -> Replication.Replica.with_read r build_check
    | None -> build_check ()
  in
  let t =
    {
      listen_fd;
      bound_port;
      host;
      n_workers = workers;
      query_domains = domains;
      query_batch = batch;
      default_deadline_ms;
      mem_pages;
      terms;
      make_env;
      setup;
      check;
      check_lock = Mutex.create ();
      on_trace;
      queue = Bounded_queue.create ~capacity:queue_capacity;
      metrics = Metrics.create ();
      mlock = Mutex.create ();
      trace_ring = Telemetry.Ring.create trace_ring_capacity;
      query_log =
        Option.map (fun path -> Telemetry.Query_log.create ?slow_ms path)
          query_log;
      id_rng = Random.State.make [| 0x5EED; fault_seed; bound_port |];
      inflight = ref 0;
      pool = Storage.Task_pool.create ~domains:workers;
      retry;
      breaker = (match breaker with Some b -> b | None -> Breaker.create ());
      fault_spec;
      fault_seed;
      replica;
      max_staleness_ms;
      sender;
      promote_lock = Mutex.create ();
      draining = false;
      http = None;
      runner = None;
      acceptor = None;
      conns = ref [];
      conns_lock = Mutex.create ();
    }
  in
  (* The worker pool: [workers] long-running jobs on the task pool. The
     dispatcher thread is the pool's coordinator (it runs job 0 itself),
     so a 1-worker server spawns no domain at all. *)
  t.runner <-
    Some
      (Thread.create
         (fun () ->
           ignore
             (Storage.Task_pool.run_list t.pool
                (List.init workers (fun i -> worker_loop t i))))
         ());
  t.acceptor <- Some (Thread.create accept_loop t);
  (match metrics_port with
  | None -> ()
  | Some mport ->
      let handler path =
        match path with
        | "/metrics" ->
            Some (200, "text/plain; version=0.0.4", prometheus_text t)
        | "/healthz" ->
            let ok, body = healthz_json t in
            Some ((if ok then 200 else 503), "application/json", body)
        | _ -> None
      in
      t.http <- Some (Telemetry.Http.start ~port:mport handler));
  t

let stop t =
  if not t.draining then begin
    t.draining <- true;
    (* Wake the accept thread with a throw-away connection. *)
    (try
       let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_INET (resolve t.host, t.bound_port))
        with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    (* Drain: admitted jobs are still popped and answered; then the
       workers see [None] and exit, and the dispatcher joins. *)
    Bounded_queue.close t.queue;
    Option.iter Thread.join t.runner;
    t.runner <- None;
    Storage.Task_pool.shutdown t.pool;
    Option.iter Thread.join t.acceptor;
    t.acceptor <- None;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Unblock every connection reader and join the threads (each closes
       its own descriptor on the way out). *)
    let conns = with_lock t.conns_lock (fun () -> !(t.conns)) in
    List.iter
      (fun (conn, _) ->
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
      conns;
    List.iter (fun (_, th) -> Thread.join th) conns;
    (* Telemetry last: the final requests' log records and traces land
       before the log closes and the scrape endpoint disappears. *)
    (match t.http with
    | Some h ->
        Telemetry.Http.stop h;
        t.http <- None
    | None -> ());
    Option.iter Telemetry.Query_log.close t.query_log
  end
