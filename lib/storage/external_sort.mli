(** External merge sort over heap files, standing in for the Opt-Tech Sort
    package used in the paper's experiments.

    Classic two-phase sort with a user-specified memory budget: run
    generation fills [mem_pages] buffer pages, sorts in memory and writes a
    run; merging combines up to [mem_pages - 1] runs per pass until one
    sorted file remains. All I/O flows through the environment's buffer pool
    and statistics, and the whole call is accounted to the [Sort] phase, so
    the Table 3 "sorting time" breakdown can be reproduced. *)

type run_strategy =
  | Load_sort
      (** fill memory, sort, write a run: runs of ~[mem_pages] pages *)
  | Replacement_selection
      (** heap-based run formation: ~2x longer runs on random input, hence
          fewer runs and fewer merge passes when memory is scarce *)

val sort :
  ?run_strategy:run_strategy -> ?trace:Trace.t -> ?cancel:Cancel.t ->
  Heap_file.t -> compare:(bytes -> bytes -> int) -> mem_pages:int ->
  Heap_file.t
(** Returns a new heap file with the records in non-decreasing order;
    intermediate runs are destroyed. The input file is left intact.
    [mem_pages] must be >= 3 (one output page + two run pages). Default
    strategy: [Load_sort]. With [?trace], a [run-formation] and a
    [k-way-merge] span are recorded with their I/O and comparison deltas.
    With [?cancel], the run-formation and merge loops poll the token.

    Exception safety: if the sort is aborted — by [Cancel.Cancelled], an
    injected {!Fault.Injected}, or any other exception (including ones
    raised by [compare]) — every temporary run page already written is
    freed back to the disk before the exception propagates, so
    [Sim_disk.live_pages] returns to its pre-sort baseline. *)

val initial_runs :
  ?cancel:Cancel.t -> run_strategy -> Heap_file.t ->
  compare:(bytes -> bytes -> int) -> mem_pages:int -> Heap_file.t list
(** The run-formation phase alone (each returned file is sorted); exposed for
    tests and the sort ablation bench. Caller destroys the runs. On abort,
    partially-written runs are destroyed before the exception propagates. *)

val merge_runs :
  ?cancel:Cancel.t -> Env.t -> Heap_file.t list ->
  compare:(bytes -> bytes -> int) -> Heap_file.t
(** One k-way heap-merge pass over sorted runs, writing the merged file into
    [env] and destroying the input runs; exposed for tests ({!sort} composes
    it into as many passes as the fan-in requires). On abort the partial
    output file is destroyed but the input runs are left alive for the
    caller to clean up. *)

val sort_support :
  ?pool:Task_pool.t -> ?trace:Trace.t -> ?cancel:Cancel.t -> Heap_file.t ->
  key:(bytes -> float * float) -> mem_pages:int -> Heap_file.t
(** The decorated sort, by the lexicographic order of [key] — the
    merge-join's interval sort. Run formation decodes each record's
    [(lo, hi)] key exactly once into unboxed float columns and sorts an
    index permutation over them (runs are written directly from the
    columns), so the comparator never touches record bytes; the k-way
    merge decorates cursor heads the same way. The comparator's outcomes
    are those of the corresponding record comparator, so without a
    multi-domain pool the result is byte-identical to {!sort} with that
    comparator, after the same number of comparisons and the same page
    I/O. Abort safety, cancellation polling and trace spans
    ([run-formation], [k-way-merge]) as for {!sort}.

    With [Task_pool.domains pool > 1], run formation runs on the domains:
    the input scan is chopped into slices of
    [mem_pages * page_size / domains] bytes and each pool job sorts one
    slice into a run on a private environment (private buffer pool and
    stats, merged into the input environment's record once the batch
    joins); the coordinator then merges the runs into the input's
    environment. The record multiset and key order are those of the
    sequential sort; only records with equal keys may land in a different
    order. With [?trace], each pool job records a [sort-i]/[run-formation]
    span on its own lane (carrying the job's private I/O deltas,
    phase-tagged [Sort]) and the coordinator records the [k-way-merge]
    span. *)
