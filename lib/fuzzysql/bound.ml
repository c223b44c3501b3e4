(** Name-resolved (bound) Fuzzy SQL queries.

    The analyzer turns the textual AST into this form: every attribute
    reference carries the number of query-block levels to climb ([up] = 0 for
    the local block — a nonzero [up] is a correlation reference to an outer
    relation), the index of the FROM entry within that block, and the
    attribute position within that relation's schema. The executors
    (naive nested evaluation, blocked nested loop, and the unnesting
    merge-join pipelines) all interpret this single representation. *)

open Relational

type attr_ref = {
  up : int;  (** 0 = this block, k = k levels out (correlation) *)
  from_idx : int;  (** which FROM entry of that block *)
  attr_idx : int;  (** attribute position in the relation's schema *)
  display : string;  (** name for result schemas and error messages *)
}

type operand = Ref of attr_ref | Lit of Value.t

type select_item =
  | Col of attr_ref
  | Agg of Aggregate.t * attr_ref

type quant = Ast.quant

type query = {
  distinct : bool;
  select : select_item list;
  from : (string * Relation.t) list;  (** alias, bound relation *)
  where : pred list;
  group_by : attr_ref list;
  having : having list;
  threshold : Ast.threshold option;
  order_by_d : Ast.order option;
  limit : int option;
}

and pred =
  | Cmp of operand * Fuzzy.Fuzzy_compare.op * operand
  | Cmp_sub of operand * Fuzzy.Fuzzy_compare.op * query
  | In of operand * query
  | Not_in of operand * query
  | Quant of operand * Fuzzy.Fuzzy_compare.op * quant * query
  | Exists of query
  | Not_exists of query

and having = {
  h_agg : Aggregate.t;
  h_attr : attr_ref;
  h_op : Fuzzy.Fuzzy_compare.op;
  h_value : Value.t;
}

(** Whether a predicate contains a nested query block. *)
let has_subquery = function
  | Cmp _ -> false
  | Cmp_sub _ | In _ | Not_in _ | Quant _ | Exists _ | Not_exists _ -> true

(** Number of nested blocks: 1 for a flat query. *)
let rec depth q =
  let pred_depth = function
    | Cmp _ -> 0
    | Cmp_sub (_, _, sub) | In (_, sub) | Not_in (_, sub)
    | Quant (_, _, _, sub) | Exists sub | Not_exists sub ->
        depth sub
  in
  1 + List.fold_left (fun acc p -> Int.max acc (pred_depth p)) 0 q.where
