(** Shared degree-evaluation helpers used by every executor. *)

type stack = Relational.Ftuple.t array list
(** Bindings of the FROM tuples of each enclosing query block, innermost
    first; bound attribute references climb [up] levels, then index the FROM
    entry and the attribute. *)

val resolve_ref : stack -> Fuzzysql.Bound.attr_ref -> Relational.Value.t

val operand_value : stack -> Fuzzysql.Bound.operand -> Relational.Value.t

val cmp_degree :
  Storage.Iostats.t -> stack -> Fuzzysql.Bound.operand ->
  Fuzzy.Fuzzy_compare.op -> Fuzzysql.Bound.operand -> Fuzzy.Degree.t
(** Satisfaction degree of one comparison; records one fuzzy op. *)

val local_degree :
  Storage.Iostats.t -> Relational.Ftuple.t -> Fuzzysql.Bound.pred list ->
  Fuzzy.Degree.t
(** Degree of a conjunction of subquery-free predicates for one tuple of a
    single-relation block (the paper's [p1] / [p2]). Raises
    [Invalid_argument] if a predicate contains a subquery. *)

module Vmap : Map.S with type key = Relational.Value.t
(** Fuzzy value sets: structural value -> max degree. *)

val vmap_add :
  Relational.Value.t -> Fuzzy.Degree.t -> Fuzzy.Degree.t Vmap.t ->
  Fuzzy.Degree.t Vmap.t
(** Add a value at a degree, keeping the max; degree 0 adds nothing. *)

val aggregate :
  Relational.Aggregate.t -> Fuzzy.Degree.t Vmap.t -> Relational.Value.t option
(** AGG over a fuzzy value set's values; COUNT of the empty set is 0, any
    other aggregate of it NULL ([None]). *)

val apply_threshold :
  Relational.Relation.t -> Fuzzysql.Ast.threshold option ->
  Relational.Relation.t
(** Materialise the WITH clause on an answer relation. Consumes its input:
    with a threshold, [rel] is destroyed and a new relation returned;
    without one, [rel] itself is returned. *)
