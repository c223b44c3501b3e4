(** The fsqld daemon: a TCP Fuzzy SQL server with admission control,
    per-query deadlines, cooperative cancellation, fault-tolerant
    execution, and graceful shutdown.

    {1 Architecture}

    One {e accept thread} takes connections; each connection gets a
    {e connection thread} that reads {!Wire} request frames. A [Query]
    frame is admitted into a bounded queue (or rejected with
    [Overloaded] when the queue is full — producers never block) and
    picked up by one of a fixed set of {e worker domains}, which are run
    as long-lived jobs on a {!Storage.Task_pool} so queries execute in
    parallel, not merely concurrently. The worker encodes the
    whole reply ([Header], [Row]s, [Done]) into one buffer and writes it
    to the client's socket in one write; every accepted socket has
    [TCP_NODELAY] set ({!Wire.set_nodelay}).

    Workers are shared-nothing: each builds a private
    {!Storage.Env} + {!Relational.Catalog} with the [~setup] callback at
    startup, because the storage layer (buffer pool, Iostats) is
    single-threaded by design. The effective number of parallel workers
    is capped by the machine
    ([min (workers) (Domain.recommended_domain_count ())]) — the pool
    never oversubscribes cores.

    {1 Deadlines and cancellation}

    Each query runs under a {!Storage.Cancel} token whose deadline is
    [admission time + deadline_ms] (the client's, or [default_deadline_ms]
    when the client sends none). The engine polls the token at operator
    boundaries — sort comparators, sweep loops, nested-loop scans, chain
    cascade steps — so a deadline or an explicit [Cancel] frame (or a
    client disconnect) unwinds the query with a [Cancelled] reply within
    one poll period and frees the worker; the executors destroy their
    temporaries on the way out, so the worker's environment is clean for
    the next query.

    {1 Fault tolerance}

    With [?fault_spec], every worker attaches a seeded {!Storage.Fault}
    plane to its private environment (seed [fault_seed + worker index],
    attached after [~setup] so catalog loading never faults). A query
    that raises a {e transient} {!Storage.Fault.Injected} is retried with
    bounded exponential backoff + jitter ([?retry]) — but only while the
    remaining deadline budget exceeds the backoff sleep, and a [Cancel]
    observed during the sleep aborts it promptly. Queries are read-only
    and the engine is bit-deterministic, so a retried attempt that
    succeeds returns exactly the fault-free answer; nothing is written
    until an attempt has encoded its whole answer, so a retry never
    follows a half-sent answer. When retries are exhausted (or the budget
    is gone) the client gets [Retryable]. A {e fatal} fault or an
    unclassified exception answers [Error] and {e respawns} the worker's
    environment — the daemon never crashes on a poisoned query.

    Admission consults an error-budget circuit {!Breaker} fed by genuine
    execution outcomes (query errors and cancellations don't count): when
    the recent failure rate crosses the threshold the breaker opens and
    admission sheds queries with [Overloaded] for the cooldown period.

    {1 Observability}

    Every request carries one {!Storage.Trace} collector rooted at a
    [request] span with [queue-wait] (timed at admission), [plan], and
    [exec] children (the planner's own operator spans nest under [exec]);
    injected faults add zero-width [fault ...] spans and each backoff a
    [retry-backoff] span. The [?on_trace] callback receives each
    completed trace — fsqld uses it to write Chrome trace files. A
    {!Storage.Metrics} registry (one per daemon, so servers don't leak
    counters into each other) counts requests and histograms queue-wait,
    execution, retry-backoff, and end-to-end latency.

    PR 7 adds the production telemetry plane ({!Telemetry}):

    - every request is keyed by a {e request ID} — the client's
      ([Wire.Query.request_id]) or a server-assigned [srv-...] one for
      rev-1 clients — and its completed span tree enters a bounded
      {!Telemetry.Ring} of Chrome traces, fetchable over the wire
      ([Wire.Trace_get] / {!trace_json});
    - queue-wait, exec, and latency are also observed into {e sliding
      windows} ({!Storage.Metrics.window_histogram}, 12 x 5 s), so
      [\top] and the Prometheus endpoint report last-minute p50/p99/max
      and rates next to lifetime totals, plus point-in-time gauges
      [queue_depth], [busy_workers], [breaker_open];
    - with [?metrics_port] a loopback HTTP listener serves [/metrics]
      (Prometheus text) and [/healthz] (JSON; 503 when the breaker is
      open or the server is draining);
    - with [?query_log] every finished request appends one JSONL record
      (see {!Telemetry.Query_log.record}); [?slow_ms] keeps only slow
      ones. Logging observes the finished request from outside the
      execution path, so answers remain bit-identical with it on.

    {1 Shutdown}

    {!stop} drains: no new connections or queries are admitted, queries
    already in the queue or in flight run to completion and their replies
    are delivered, then workers, the accept loop, and the connection
    threads are joined. Idempotent. *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?workers:int ->
  ?queue_capacity:int ->
  ?default_deadline_ms:int ->
  ?domains:int ->
  ?batch:bool ->
  ?mem_pages:int ->
  ?terms:Fuzzy.Term.t ->
  ?on_trace:(Storage.Trace.t -> unit) ->
  ?retry:Retry.policy ->
  ?breaker:Breaker.t ->
  ?fault_spec:Storage.Fault.spec ->
  ?fault_seed:int ->
  ?metrics_port:int ->
  ?query_log:string ->
  ?slow_ms:float ->
  ?trace_ring_capacity:int ->
  ?make_env:(pool_pages:int -> Storage.Env.t) ->
  ?sender:Replication.Sender.t ->
  ?replica:Replication.Replica.t ->
  ?max_staleness_ms:int ->
  setup:(Storage.Env.t -> Relational.Catalog.t -> unit) ->
  unit ->
  t
(** Bind, listen, spawn the workers, and return immediately. Defaults:
    host ["127.0.0.1"], port [0] (ephemeral — read it back with {!port}),
    [workers = 2], [queue_capacity = 16], no default deadline,
    [domains = 1] (per-query merge-join parallelism on a pool the query
    creates privately), [batch = false] (set to run every query on the
    vectorized columnar engine — same answers and degree bits, see
    {!Unnest.Planner.run}), [mem_pages = Unnest.Planner.default_mem_pages],
    the paper's term vocabulary, [retry = Retry.default], a default
    {!Breaker.create}, no fault injection, [fault_seed = 0]. [~setup]
    runs once per worker on the worker's own domain (and again on each
    respawn). [?make_env] overrides how worker (and admission)
    environments are built — default simulated
    ([Storage.Env.create ~pool_pages:mem_pages ()]); it receives the
    daemon's [mem_pages] as [~pool_pages] so overriding the backend
    never silently changes buffer-pool sizing. [fsqld --data-dir]
    passes read-only durable opens of a directory the main process has
    already recovered, so each shared-nothing worker gets its own fds
    over the same data. [?on_trace] runs on the worker that executed the
    request, after the terminal frame is sent — it must be thread-safe.

    Telemetry options: [?metrics_port] starts the HTTP exposition
    listener on loopback ([0] picks an ephemeral port — read it back
    with {!metrics_port}); [?query_log] opens the JSONL query log at
    that path, [?slow_ms] logging only requests at least that slow;
    [?trace_ring_capacity] (default 64) bounds the ring of recent
    request traces. *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val queue_length : t -> int
(** Queries admitted but not yet picked up by a worker. *)

val workers : t -> int

val counter_value : t -> string -> int
(** Read one metrics counter; 0 when it has not been touched yet.
    Counters: [requests_accepted], [requests_rejected_static] (the
    admission-time static analyzer found errors; the client saw
    [Rejected] and the query never reached the worker queue),
    [requests_rejected_overload], [requests_shed_breaker],
    [requests_cancelled], [requests_failed], [requests_failed_transient]
    (gave up on a transient fault; the client saw [Retryable]),
    [requests_completed], [faults_injected], [retries],
    [workers_respawned], [breaker_opened]. Every accepted request is
    counted by exactly one of [requests_completed] /
    [requests_cancelled] / [requests_failed] /
    [requests_failed_transient] — the books balance, which is how the
    chaos harness proves no worker leaked a query. [requests_cancelled]
    splits further into [requests_cancelled_deadline] (the
    {!Storage.Cancel} deadline fired) + [requests_cancelled_client]
    (explicit [Cancel] frame or disconnect) — a latency SLO breach and a
    user abort are different signals, and the split sums back to the
    aggregate. *)

val metrics_json : t -> string
(** JSON dump of the daemon's metrics registry (also available over the
    wire with a [Metrics] frame). Gauges are refreshed at dump time. *)

val trace_json : t -> string -> string option
(** The Chrome trace of one completed request by ID, [None] once it has
    fallen out of the ring (also over the wire: [Wire.Trace_get]). *)

val trace_ring : t -> Telemetry.Ring.t
(** The ring itself, for tests asserting ring/log agreement. *)

val top_text : t -> string
(** The rendered [\top] snapshot (also over the wire: [Wire.Top]). *)

val metrics_port : t -> int option
(** The bound exposition port, when [?metrics_port] was given. *)

val sender : t -> Replication.Sender.t option
(** The replication sender serving [Rep_subscribe] — present when the
    daemon was started with [?sender] (primary mode) or after a
    successful {!promote}. *)

val promote : t -> (int, string) result
(** Promote a replica-mode daemon to primary (also over the wire:
    [Wire.Promote], [fsql \promote]): bump and commit the replication
    epoch — fencing the old primary — and stand up a sender over the
    promoted directory. Returns the new epoch; [Error _] when the
    daemon is not a replica. Idempotent. *)

val reopen_query_log : t -> unit
(** Close and reopen the JSONL query log at its configured path —
    [fsqld] calls this on SIGHUP so logrotate's rename-and-signal works
    without losing records. No-op without [?query_log]. *)

val query_log_written : t -> int option
(** Records written to the query log so far, when [?query_log] was
    given. *)

val stop : t -> unit
(** Graceful shutdown: drain admitted queries, deliver their replies,
    join every thread and worker domain, close every socket. Blocks until
    done; idempotent. In-flight queries still run to completion — pair a
    deadline or client cancel with [stop] to bound the drain time. *)
