(** The extended merge-join for fuzzy equi-joins (Section 3 of the paper).

    Hash joins are inapplicable in a fuzzy database — tuples with different
    attribute values (e.g. "young" and "about 35") may still join with a
    positive degree. Instead, both relations are sorted by the interval order
    of Definition 3.1 (support start, then support end) and swept: for each
    outer tuple [r], exactly the inner tuples in [Rng(r)] are examined. Inner
    tuples whose support ends before [b(r.X)] are dropped from the window
    permanently (they cannot join any later outer tuple either); the scan for
    [r] stops at the first inner tuple whose support begins after [e(r.X)].
    Dangling tuples inside the window are examined and skipped, as the paper
    describes. Each relation is read once after sorting, giving the
    O(n_R log n_R + n_S log n_S) response time of Section 3.

    Every entry point takes an optional [?pool]. With no pool — or a pool of
    one domain — execution is exactly the sequential algorithm above. With
    [Task_pool.domains pool > 1], the sort forms its runs on the domains
    (see {!Storage.External_sort.sort_support}) and the sweep is
    range-partitioned across domains (see {!partition_sweep}); answer
    tuples and membership degrees are identical either way.

    Every entry point also takes an optional [?cancel] token
    ({!Storage.Cancel}): the sorter's per-record scan and merge loops and
    the per-outer-tuple sweep loop poll it, so a deadline or client
    cancellation unwinds with {!Storage.Cancel.Cancelled} within one poll
    period. The sorted
    temporaries of {!join_eq}/{!with_indicator} are destroyed on that path
    too. [None] costs one branch per poll site. *)

val sort_by :
  ?pool:Storage.Task_pool.t -> ?trace:Storage.Trace.t ->
  ?cancel:Storage.Cancel.t ->
  Relation.t -> attr:int -> mem_pages:int -> Relation.t
(** Sort a relation by the Definition 3.1 order of the given attribute using
    the external sorter (accounted to the [Sort] phase). The result is a
    temporary relation owned by the caller. With [?trace], a
    ["sort <relation>"] span wraps the sorter's own spans. The sorter is
    the decorated {!Storage.External_sort.sort_support}: each support is
    decoded once per record per phase instead of twice per comparison.
    Without a multi-domain pool the sorted file is byte-identical to
    {!Storage.External_sort.sort} with the Definition 3.1 record
    comparator, after the same comparisons. *)

val partition_sweep :
  domains:int ->
  ('a * Fuzzy.Interval.t) array ->
  ('b * Fuzzy.Interval.t) array ->
  (('a * Fuzzy.Interval.t) array * ('b * Fuzzy.Interval.t) array) array
(** Range-partition a sorted outer/inner pair for the parallel sweep. The
    outer tuples (paired with their join-attribute supports, in Definition
    3.1 order) are cut into [domains] contiguous slices; each slice is paired
    with every inner tuple whose support window can overlap some outer tuple
    of the slice, i.e. [lo(s) <= max hi(r)] and [hi(s) >= min lo(r)] over the
    slice. Inner tuples whose window straddles a cut point are replicated
    into every slice they can reach, so no sweep window is ever split across
    a partition boundary. Pure; exposed for the replication unit test. *)

val sweep_sorted :
  ?pool:Storage.Task_pool.t -> ?trace:Storage.Trace.t ->
  ?cancel:Storage.Cancel.t ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int -> inner_attr:int ->
  mem_pages:int ->
  f:(Ftuple.t -> (Ftuple.t * Fuzzy.Degree.t) list -> unit) -> unit -> unit
(** Merge phase over relations already sorted on the join attributes:
    [f r rng] is called once per outer tuple in sort order, where [rng] lists
    the window tuples paired with their equality degrees [d(r.X = s.X)]
    (0 for dangling tuples). Every examined pair counts one fuzzy op;
    accounted to the [Merge] phase. The two scoped cursor pools are sized
    from [mem_pages] ([mem_pages / 2] pages each). With a multi-domain
    [?pool], partitions sweep in parallel on private stats (phase-tagged
    [Merge], merged after the batch joins) and [f] still runs on the
    caller's domain in global outer sort order. With [?trace], the
    sequential path records one [sweep] span; the parallel path records
    [scan outer]/[scan inner] spans, one [sweep-k]/[sweep] span per
    partition on its own lane, and an [emit] span for the callback pass. *)

val join_eq :
  ?name:string -> ?pool:Storage.Task_pool.t -> ?trace:Storage.Trace.t ->
  ?cancel:Storage.Cancel.t -> ?project:int list ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int ->
  inner_attr:int -> mem_pages:int ->
  ?residual:(Ftuple.t -> Ftuple.t -> Fuzzy.Degree.t) -> unit -> Relation.t
(** Full extended merge-join: sort both inputs, sweep, and materialise
    matches with degree [min(D_r, D_s, d(r.X = s.X), residual r s)].
    Temporary sorted files are destroyed before returning.

    With [~project:ps], each match is cut down to the positions [ps] of the
    concatenated (outer, inner) row as the sweep emits it, and rows equal
    on those positions are merged keeping the max degree: the result is
    {!Algebra.project_positions} of the full join, without ever writing the
    full join. *)

val with_indicator :
  ?name:string -> ?pool:Storage.Task_pool.t -> ?trace:Storage.Trace.t ->
  ?cancel:Storage.Cancel.t ->
  outer:Relation.t -> inner:Relation.t -> outer_attr:int ->
  inner_attr:int -> mem_pages:int ->
  ?residual:(Ftuple.t -> Ftuple.t -> Fuzzy.Degree.t) -> unit -> Relation.t
(** Variant with the fuzzy-equality-indicator prefilter of Zhang & Wang
    (reference [42] of the paper): before computing the exact intersection
    height of a candidate pair, a cheap core/support test classifies pairs
    whose degree is certainly 1 or certainly 0, skipping the full
    computation. Results are identical to {!join_eq}. *)
