(** Unnested evaluation with the extended merge-join: the paper's
    contribution (Sections 4-8).

    Each nested-query type is rewritten to its flat equivalent and evaluated
    as one sorted sweep:
    - type N / J (Theorems 4.1, 4.2): merge-join on [R.Y = S.Z] with the
      correlation predicates as residuals, then max-dedup projection;
    - type JX (Theorem 5.1): the grouped MIN(D) of Query JX' evaluated per
      outer tuple over its window [Rng(r)] — tuples outside the window
      contribute the neutral value, so one sweep suffices;
    - type JALL (Theorem 7.1) and its SOME dual: the same grouped sweep with
      the quantifier folded into [1 - min(..., 1 - d(y op z))];
    - type JA (Theorem 6.1): the pipelined T1 / T2 / JA' cascade, including
      the COUNT left-outer-join branch;
    - EXISTS / NOT EXISTS: fuzzy semi- / anti-joins;
    - an uncorrelated inner block (Section 6): evaluated once, no sweep;
    - chain queries (Theorem 8.1): a cascade of merge-joins growing a
      contiguous block interval in a configurable order, correlation
      predicates applied as soon as both endpoints are available, and each
      step keeping only the blocks later steps still need. *)

val run :
  ?name:string -> ?pool:Storage.Task_pool.t -> ?trace:Storage.Trace.t ->
  ?cancel:Storage.Cancel.t ->
  Classify.sweep -> mem_pages:int -> Relational.Relation.t
(** One sorted sweep on the plan's sweep equality, with its residual
    correlation predicates folded into each pair's term. With a
    multi-domain [?pool], the sorts and the sweep run domain-parallel
    (see {!Relational.Join_merge}); answers and degrees are identical to the
    sequential run. With [?trace], one span per operator is recorded
    (reduce, sort/run-formation/k-way-merge, sweep, dedup); [None] costs
    nothing.
    With [?cancel], the reduction predicates, sort loops, and sweep loops
    poll the token; on {!Storage.Cancel.Cancelled} every owned
    intermediate (pre-dedup answer, reductions, sorted temporaries) is
    destroyed before the
    exception escapes, so a server worker's environment stays clean. *)

val run_constant :
  ?name:string -> ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  Classify.two_level -> Relational.Relation.t
(** An uncorrelated quantifier, aggregate or EXISTS block (Section 6: no
    unnesting is needed): the reduced inner relation is read once and the
    link degree is folded into each outer tuple. Spans: reduce, then
    constant-inner and dedup. [?cancel] as for {!run}. *)

val run_chain :
  ?name:string -> ?order:Chain_order.order -> ?pool:Storage.Task_pool.t ->
  ?trace:Storage.Trace.t -> ?cancel:Storage.Cancel.t ->
  Classify.chain -> mem_pages:int ->
  Relational.Relation.t
(** Default order: left-to-right (outermost block first). The order's steps
    must each be adjacent to the already-joined interval
    ([Invalid_argument] otherwise). Each step's join keeps only the columns
    of the blocks {!cascade_plan} keeps, max-deduplicated on them, so an
    intermediate holds the distinct kept-block combinations rather than
    the full K-way join; answers and degree bits are those of the full
    join projected at the end. [?pool], [?trace] and [?cancel] as for
    {!run} (spans: reduce block-i, one join subtree per step, project; the
    cancel token is additionally polled before each cascade step, and the
    cascade's intermediates are freed on cancellation). *)

val cascade_plan :
  Classify.chain -> Chain_order.order -> (int * int list * int list) list
(** The chain cascade's projection plan: per step of the order, the block
    joined, the blocks the step keeps (in the intermediate's column order)
    and the blocks it drops. A block is kept while its columns are still
    read: block 0 (the answer columns), an end of the joined interval
    linked to a block not yet joined, and an endpoint of a correlation
    predicate whose other endpoint has not joined yet. *)
