(** The planning decision, made once per query by one pure function.

    {!plan} walks an ordered list of guarded rules, one per theorem of the
    paper: flat; constant inner (Section 6); N/J (Theorems 4.1-4.2); JX
    (5.1); JA/COUNT (6.1); JALL/JSOME (7.1); EXISTS; chain (8.1);
    flatten-outer, which re-plans the remapped query; nested-loop, for a
    two-level shape with no equality to sweep on; and naive last. A rule
    whose link predicate is absent skips; one that applies either fires or
    declines with a typed {!reason}. The planner executes the plan, and
    EXPLAIN, the static check's FSQL033 and the rewrite printer read it.

    Shapes follow Kim's taxonomy as extended by the paper: a 2-level query
    whose inner block has no correlation predicate is type N; with one,
    type J; [NOT IN] gives type JX; an aggregate subquery gives type JA;
    quantifiers give type JALL / JSOME; [EXISTS] gives JEXISTS; a tower of
    single-relation IN-blocks is a chain query (Section 8). *)

(** One correlation predicate of an inner block: [local_attr op outer_attr]
    where the outer side lives [up] levels out (the paper's p_{i,j}). *)
type corr = {
  local_attr : int;
  op : Fuzzy.Fuzzy_compare.op;
  up : int;
  outer_attr : int;
}

type link =
  | In_link of { y : int; z : int; corr : corr list }
      (** [R.Y IN (SELECT S.Z ...)]; [corr = []] is type N, else type J *)
  | Not_in_link of { y : int; z : int; corr : corr list }  (** type JX / NX *)
  | Quant_link of {
      y : int;
      op : Fuzzy.Fuzzy_compare.op;
      quant : Fuzzysql.Ast.quant;
      z : int;
      corr : corr list;
    }  (** type JALL and its SOME dual *)
  | Agg_link of {
      y : int;
      op1 : Fuzzy.Fuzzy_compare.op;
      agg : Relational.Aggregate.t;
      z : int;
      corr : corr list;
    }  (** type JA *)
  | Exists_link of { negated : bool; corr : corr list }
      (** [EXISTS] / [NOT EXISTS] with correlation: fuzzy semi/anti-join *)

type two_level = {
  select : int list;  (** outer attribute positions to project *)
  outer : Relational.Relation.t;
  inner : Relational.Relation.t;
  p1 : Fuzzysql.Bound.pred list;  (** subquery-free preds of the outer block *)
  p2 : Fuzzysql.Bound.pred list;  (** subquery-free preds of the inner block *)
  link : link;
  threshold : Fuzzysql.Ast.threshold option;
}

type chain_block = {
  rel : Relational.Relation.t;
  p_local : Fuzzysql.Bound.pred list;
  out_attr : int;  (** X_k: attribute exported to the parent block *)
  link_attr : int option;  (** Y_k: compared with the child's X_{k+1} *)
  corr : corr list;  (** correlation predicates to enclosing blocks *)
}

type chain = {
  blocks : chain_block list;  (** outermost first; length >= 2 *)
  top_select : int list;
  chain_threshold : Fuzzysql.Ast.threshold option;
}

type sweep = {
  two : two_level;
  outer_key : int;  (** the sweep equality's outer attribute (R.Y or R.U) *)
  inner_key : int;  (** its inner attribute (S.Z or S.V) *)
  residual : corr list;  (** every correlation predicate but the sweep's *)
}
(** A merge step: the two-level shape with its sweep equality and residual
    correlation predicates split once, by the rule that fired. *)

(** Why a rule declined; {!decline_to_string} words each one. *)
type reason =
  | Several_subqueries
  | Outer_product
  | Grouped_outer
  | Outer_select
  | Operand_not_outer
  | Inner_product
  | Inner_grouped
  | Inner_select
  | Inner_nested
  | Inner_pred
  | Chain_link
  | Duplicate_alias
  | No_equality of string  (** "quantified", "aggregate" or "EXISTS" *)
  | After_flatten of decline list
      (** the remapped query would still run naive, for these reasons *)

and decline = { rule : string; reason : reason }

type flattened = {
  product : (string * Relational.Relation.t) list;
      (** the outer FROM, materialised by the planner at execution *)
  locals : Fuzzysql.Bound.pred list;
      (** the outer block's local predicates, folded into product degrees *)
  schema : Relational.Schema.t;  (** the product's schema *)
  inner : plan;
      (** the remapped query's plan; its outer relation is an empty
          stand-in until {!with_outer} *)
  inner_declines : decline list;
}

and plan =
  | Flat  (** no subqueries: direct evaluation *)
  | Constant_inner of two_level
      (** uncorrelated quantifier / aggregate / EXISTS: evaluated once *)
  | Merge of sweep  (** Theorems 4.1-7.1 and EXISTS: one sorted sweep *)
  | Chain of chain  (** Theorem 8.1: a cascade of merge-joins *)
  | Flattened of flattened
  | Nested_loop of two_level  (** no equality to sweep on *)
  | Naive  (** no rule applies: the naive interpreter *)

val plan : Fuzzysql.Bound.query -> plan * decline list
(** The plan and every decline met on the way to it, in rule order. Pure:
    no I/O, no histogram, no join-order search, and no page allocated.
    A rule that skips is not a decline. *)

val rule_of : plan -> string
(** The rule that produced a plan: "flat", "constant-inner", "N/J", "JX",
    "JA/COUNT", "JALL/JSOME", "EXISTS", "chain", "flatten-outer",
    "nested-loop" or "naive". *)

val with_outer : plan -> Relational.Relation.t -> plan
(** The plan over a different outer relation of the same schema: the
    planner's swap of a {!flattened} stand-in for the materialised
    product. *)

val to_string : plan -> string
(** The shape: "flat", "type J", "chain of 3 blocks", "general nested", ... *)

val decline_to_string : decline -> string
(** "JALL/JSOME declined: quantified subquery without an equality
    correlation predicate". *)

val corr_degree :
  Storage.Iostats.t -> corr list -> Relational.Ftuple.t ->
  Relational.Ftuple.t -> Fuzzy.Degree.t
(** [corr_degree stats corr r s]: min of the predicates' degrees for outer
    tuple [r] and inner tuple [s]; one fuzzy op each. *)

val fallback : plan * decline list -> (string * decline list) option
(** [Some (method, declines)] iff the plan runs on the nested-loop method
    or the naive interpreter (also below a flatten), with every decline
    that led there. *)

val unnest_warning : Fuzzysql.Bound.query -> string option
(** [Some desc] iff the plan is nested-loop or naive (also below a
    flatten), naming the method and every decline. Passed to
    [Fuzzysql.Check.check_string ?classify] for FSQL033 (the fuzzysql
    library cannot depend on this one). *)
