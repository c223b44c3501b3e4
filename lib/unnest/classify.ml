(** The planning decision: the paper's theorems as an ordered list of
    guarded rules, each of which fires with a plan or declines with a typed
    reason, in the style of DSH's [tryAntijoinR <+ trySemijoinR <+
    tryThetajoinR]. See the interface for the rule order. *)

open Fuzzysql

type corr = {
  local_attr : int;
  op : Fuzzy.Fuzzy_compare.op;
  up : int;
  outer_attr : int;
}

type link =
  | In_link of { y : int; z : int; corr : corr list }
  | Not_in_link of { y : int; z : int; corr : corr list }
  | Quant_link of {
      y : int;
      op : Fuzzy.Fuzzy_compare.op;
      quant : Ast.quant;
      z : int;
      corr : corr list;
    }
  | Agg_link of {
      y : int;
      op1 : Fuzzy.Fuzzy_compare.op;
      agg : Relational.Aggregate.t;
      z : int;
      corr : corr list;
    }
  | Exists_link of { negated : bool; corr : corr list }

type two_level = {
  select : int list;
  outer : Relational.Relation.t;
  inner : Relational.Relation.t;
  p1 : Bound.pred list;
  p2 : Bound.pred list;
  link : link;
  threshold : Ast.threshold option;
}

type chain_block = {
  rel : Relational.Relation.t;
  p_local : Bound.pred list;
  out_attr : int;
  link_attr : int option;
  corr : corr list;
}

type chain = {
  blocks : chain_block list;
  top_select : int list;
  chain_threshold : Ast.threshold option;
}

type sweep = {
  two : two_level;
  outer_key : int;
  inner_key : int;
  residual : corr list;
}

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
  | No_equality of string
  | After_flatten of decline list

and decline = { rule : string; reason : reason }

type flattened = {
  product : (string * Relational.Relation.t) list;
  locals : Bound.pred list;
  schema : Relational.Schema.t;
  inner : plan;
  inner_declines : decline list;
}

and plan =
  | Flat
  | Constant_inner of two_level
  | Merge of sweep
  | Chain of chain
  | Flattened of flattened
  | Nested_loop of two_level
  | Naive

let link_name = function
  | In_link { corr = []; _ } -> "N"
  | In_link _ -> "J"
  | Not_in_link { corr = []; _ } -> "NX"
  | Not_in_link _ -> "JX"
  | Quant_link { quant = Ast.All; _ } -> "JALL"
  | Quant_link { quant = Ast.Some_; _ } -> "JSOME"
  | Agg_link { corr = []; _ } -> "NA"
  | Agg_link _ -> "JA"
  | Exists_link { negated = false; _ } -> "JEXISTS"
  | Exists_link { negated = true; _ } -> "JNOTEXISTS"

let rec to_string = function
  | Flat -> "flat"
  | Constant_inner t | Nested_loop t | Merge { two = t; _ } ->
      "type " ^ link_name t.link
  | Chain c -> Printf.sprintf "chain of %d blocks" (List.length c.blocks)
  | Flattened f ->
      Printf.sprintf "%s over the flattened outer FROM (%s)" (to_string f.inner)
        (String.concat ", " (List.map fst f.product))
  | Naive -> "general nested"

let rec reason_to_string = function
  | Several_subqueries -> "two subquery predicates in one WHERE"
  | Outer_product -> "the outer block reads several relations"
  | Grouped_outer -> "the outer block is grouped (GROUPBY / HAVING)"
  | Outer_select -> "the SELECT list is not a projection of the outer relation"
  | Operand_not_outer -> "the compared operand is not an outer attribute"
  | Inner_product -> "the subquery reads several relations"
  | Inner_grouped -> "the subquery is grouped or has a WITH threshold"
  | Inner_select -> "the subquery does not select the one column it compares"
  | Inner_nested -> "the subquery is itself nested"
  | Inner_pred ->
      "a subquery predicate is neither local nor a correlation predicate"
  | Chain_link -> "a nested block is linked by something other than IN"
  | Duplicate_alias -> "two FROM entries share an alias"
  | No_equality kind ->
      kind ^ " subquery without an equality correlation predicate"
  | After_flatten declines ->
      "after flattening, "
      ^ String.concat "; " (List.map decline_to_string declines)

and decline_to_string d = d.rule ^ " declined: " ^ reason_to_string d.reason

let corr_degree stats corr r s =
  List.fold_left
    (fun acc c ->
      Storage.Iostats.record_fuzzy_op stats;
      Fuzzy.Degree.conj acc
        (Relational.Value.compare_degree c.op
           (Relational.Ftuple.value s c.local_attr)
           (Relational.Ftuple.value r c.outer_attr)))
    Fuzzy.Degree.one corr

(* A Cmp predicate of an inner block is a correlation predicate if one side
   is a local attribute and the other an outer attribute; normalise so the
   local attribute is on the left. Returns [None] for purely local or
   otherwise-shaped predicates. *)
let as_corr = function
  | Bound.Cmp (Bound.Ref l, op, Bound.Ref r) when l.up = 0 && r.up > 0 ->
      Some { local_attr = l.attr_idx; op; up = r.up; outer_attr = r.attr_idx }
  | Bound.Cmp (Bound.Ref l, op, Bound.Ref r) when r.up = 0 && l.up > 0 ->
      let op = Fuzzy.Fuzzy_compare.flip op in
      Some { local_attr = r.attr_idx; op; up = l.up; outer_attr = l.attr_idx }
  | _ -> None

let is_local_pred = function
  | Bound.Cmp (l, _, r) ->
      let local_operand = function
        | Bound.Lit _ -> true
        | Bound.Ref a -> a.Bound.up = 0
      in
      local_operand l && local_operand r
  | _ -> false

let grouped (q : Bound.query) = q.Bound.group_by <> [] || q.Bound.having <> []

let ( let* ) = Result.bind

(* Split a nested block's WHERE into local predicates and correlation
   predicates reaching at most [max_up] levels out; [subqueries] are left
   to the caller. *)
let split_preds preds ~max_up =
  let subqueries, rest = List.partition Bound.has_subquery preds in
  let corr = List.filter_map as_corr rest in
  if
    List.for_all
      (fun p ->
        is_local_pred p
        || match as_corr p with Some c -> c.up <= max_up | None -> false)
      rest
  then Ok (subqueries, List.filter is_local_pred rest, corr)
  else Error Inner_pred

(* A nested block of one relation, ungrouped and without a threshold. *)
let plain_inner (q : Bound.query) =
  match q.Bound.from with
  | [ (_, rel) ] ->
      if grouped q || q.Bound.threshold <> None then Error Inner_grouped
      else Ok rel
  | _ -> Error Inner_product

(* Projection of outer-block attributes only (true for every query shape
   the paper unnests). *)
let select_positions (q : Bound.query) =
  let rec go = function
    | [] -> Ok []
    | Bound.Col r :: rest when r.Bound.up = 0 && r.Bound.from_idx = 0 ->
        let* ps = go rest in
        Ok (r.Bound.attr_idx :: ps)
    | _ -> Error Outer_select
  in
  go q.Bound.select

(* The two-level view of [q]: one subquery predicate over a plain
   single-relation inner block whose predicates are local or correlate one
   level out, under an ungrouped single-relation outer block. *)
let two_level_of (q : Bound.query) =
  let* link_pred =
    match List.filter Bound.has_subquery q.Bound.where with
    | [ p ] -> Ok p
    | _ -> Error Several_subqueries
  in
  let* outer =
    match q.Bound.from with [ (_, r) ] -> Ok r | _ -> Error Outer_product
  in
  let* () = if grouped q then Error Grouped_outer else Ok () in
  let* select = select_positions q in
  let operand = function
    | Bound.Ref y when y.Bound.up = 0 -> Ok y.Bound.attr_idx
    | _ -> Error Operand_not_outer
  in
  let column (sub : Bound.query) =
    match sub.Bound.select with
    | [ Bound.Col z ] when z.Bound.up = 0 -> Ok z.Bound.attr_idx
    | _ -> Error Inner_select
  in
  let compared l sub mk =
    let* y = operand l in
    let* z = column sub in
    Ok (sub, mk y z)
  in
  let* sub, link =
    match link_pred with
    | Bound.In (l, sub) -> compared l sub (fun y z corr -> In_link { y; z; corr })
    | Bound.Not_in (l, sub) ->
        compared l sub (fun y z corr -> Not_in_link { y; z; corr })
    | Bound.Quant (l, op, quant, sub) ->
        compared l sub (fun y z corr -> Quant_link { y; op; quant; z; corr })
    | Bound.Cmp_sub (l, op1, sub) -> (
        let* y = operand l in
        match sub.Bound.select with
        | [ Bound.Agg (agg, z) ] when z.Bound.up = 0 ->
            let z = z.Bound.attr_idx in
            Ok (sub, fun corr -> Agg_link { y; op1; agg; z; corr })
        | _ -> Error Inner_select)
    | Bound.Exists sub ->
        Ok (sub, fun corr -> Exists_link { negated = false; corr })
    | Bound.Not_exists sub ->
        Ok (sub, fun corr -> Exists_link { negated = true; corr })
    | Bound.Cmp _ -> assert false
  in
  let* inner = plain_inner sub in
  let* subqueries, p2, corr = split_preds sub.Bound.where ~max_up:1 in
  if subqueries <> [] then Error Inner_nested
  else
    Ok
      {
        select;
        outer;
        inner;
        p1 = List.filter (fun p -> not (Bound.has_subquery p)) q.Bound.where;
        p2;
        link = link corr;
        threshold = q.Bound.threshold;
      }

(* The one place the sweep equality is chosen. IN and NOT IN sweep on their
   own pair R.Y = S.Z; quantified, aggregate and EXISTS links sweep on their
   first equality correlation predicate, and decline without one. Every
   other correlation predicate stays residual. *)
let sweep_of two =
  let merge ~outer_key ~inner_key residual =
    Ok (Merge { two; outer_key; inner_key; residual })
  in
  let on_equality kind corr =
    let rec go acc = function
      | [] -> Error (No_equality kind)
      | c :: rest when c.op = Fuzzy.Fuzzy_compare.Eq ->
          merge ~outer_key:c.outer_attr ~inner_key:c.local_attr
            (List.rev_append acc rest)
      | c :: rest -> go (c :: acc) rest
    in
    go [] corr
  in
  match two.link with
  | In_link { y; z; corr } | Not_in_link { y; z; corr } ->
      merge ~outer_key:y ~inner_key:z corr
  | Quant_link { corr; _ } -> on_equality "quantified" corr
  | Agg_link { corr; _ } -> on_equality "aggregate" corr
  | Exists_link { corr; _ } -> on_equality "EXISTS" corr

(* The blocks of a chain query (Section 8): every block has one relation,
   local predicates, correlation predicates to enclosing blocks, and at most
   one IN-subquery linking it to the next block. *)
let rec chain_blocks (q : Bound.query) ~level =
  let* rel =
    if level = 0 then
      match q.Bound.from with [ (_, r) ] -> Ok r | _ -> Error Outer_product
    else plain_inner q
  in
  let* subqueries, p_local, corr = split_preds q.Bound.where ~max_up:level in
  let* out_attr =
    match q.Bound.select with
    | [ Bound.Col r ] when r.Bound.up = 0 -> Ok r.Bound.attr_idx
    (* Block 0 exports nothing: its select list is the chain's
       [top_select], which may name several columns. *)
    | _ when level = 0 -> Ok 0
    | _ -> Error Inner_select
  in
  let block link_attr = { rel; p_local; out_attr; link_attr; corr } in
  match subqueries with
  | [] -> Ok [ block None ]
  | [ Bound.In (Bound.Ref y, sub) ] when y.Bound.up = 0 ->
      let* blocks = chain_blocks sub ~level:(level + 1) in
      Ok (block (Some y.Bound.attr_idx) :: blocks)
  | [ _ ] -> Error Chain_link
  | _ -> Error Several_subqueries

(* ---- the rules ---- *)

type outcome = Fires of plan | Declines of reason | Skips

let flat (q : Bound.query) =
  if List.exists Bound.has_subquery q.Bound.where then Skips else Fires Flat

(* "If no join predicate exists in the inner block, the inner block produces
   the same single value for every tuple of R and no unnesting is needed"
   (Section 6): uncorrelated quantifier, aggregate and EXISTS blocks. *)
let constant_inner q =
  match two_level_of q with
  | Ok
      ({
         link =
           ( Quant_link { corr = []; _ }
           | Agg_link { corr = []; _ }
           | Exists_link { corr = []; _ } );
         _;
       } as two) ->
      Fires (Constant_inner two)
  | Ok _ | Error _ -> Skips

(* Theorems 4.1-7.1 and the EXISTS semi-/anti-join: the rule for the link
   predicate [accepts] applies when the WHERE holds such a predicate. *)
let theorem accepts (q : Bound.query) =
  if not (List.exists accepts q.Bound.where) then Skips
  else
    match Result.bind (two_level_of q) sweep_of with
    | Ok p -> Fires p
    | Error r -> Declines r

let chain (q : Bound.query) =
  if Bound.depth q <= 2 then Skips
  else
    match
      let* () = if grouped q then Error Grouped_outer else Ok () in
      let* top_select = select_positions q in
      let* blocks = chain_blocks q ~level:0 in
      Ok (Chain { blocks; top_select; chain_threshold = q.Bound.threshold })
    with
    | Ok p -> Fires p
    | Error r -> Declines r

(* The Section 3 baseline, for a two-level shape whose theorem declined. *)
let nested_loop q =
  match two_level_of q with Ok two -> Fires (Nested_loop two) | Error _ -> Skips

let rec plan (q : Bound.query) =
  let rec walk declines = function
    | [] -> (Naive, List.rev declines)
    | (rule, try_rule) :: rest -> (
        match try_rule q with
        | Fires p -> (p, List.rev declines)
        | Declines reason -> walk ({ rule; reason } :: declines) rest
        | Skips -> walk declines rest)
  in
  walk [] (rules ())

and rules () =
  [
    ("flat", flat);
    ("constant-inner", constant_inner);
    ("N/J", theorem (function Bound.In _ -> true | _ -> false));
    ("JX", theorem (function Bound.Not_in _ -> true | _ -> false));
    ("JA/COUNT", theorem (function Bound.Cmp_sub _ -> true | _ -> false));
    ("JALL/JSOME", theorem (function Bound.Quant _ -> true | _ -> false));
    ( "EXISTS",
      theorem (function Bound.Exists _ | Bound.Not_exists _ -> true | _ -> false)
    );
    ("chain", chain);
    ("flatten-outer", flatten_outer);
    ("nested-loop", nested_loop);
    ("naive", fun _ -> Fires Naive);
  ]

(* A multi-relation outer block with one subquery predicate is re-planned
   over its FROM product. The product is not built here: the remapped query
   reads an empty stand-in with the product's schema (no page is allocated,
   nothing is written), and the planner swaps in the materialised product
   when it executes the plan ({!with_outer}). *)
and flatten_outer (q : Bound.query) =
  match q.Bound.from with
  | [] | [ _ ] -> Skips
  | (_, first) :: _ as from -> (
      let subqueries, locals =
        List.partition Bound.has_subquery q.Bound.where
      in
      match (subqueries, Flatten.product_schema from) with
      | [ _ ], _ when grouped q -> Declines Grouped_outer
      | [ _ ], None -> Declines Duplicate_alias
      | [ _ ], Some schema -> (
          let stand_in =
            Relational.Relation.create (Relational.Relation.env first) schema
          in
          let remapped = { q with Bound.where = subqueries } in
          match plan (Flatten.remap from remapped stand_in) with
          | Naive, inner_declines -> Declines (After_flatten inner_declines)
          | inner, inner_declines ->
              Fires
                (Flattened
                   { product = from; locals; schema; inner; inner_declines }))
      | _ -> Skips)

let rule_of = function
  | Flat -> "flat"
  | Constant_inner _ -> "constant-inner"
  | Merge { two; _ } -> (
      match two.link with
      | In_link _ -> "N/J"
      | Not_in_link _ -> "JX"
      | Agg_link _ -> "JA/COUNT"
      | Quant_link _ -> "JALL/JSOME"
      | Exists_link _ -> "EXISTS")
  | Chain _ -> "chain"
  | Flattened _ -> "flatten-outer"
  | Nested_loop _ -> "nested-loop"
  | Naive -> "naive"

let with_outer plan rel =
  match plan with
  | Constant_inner two -> Constant_inner { two with outer = rel }
  | Nested_loop two -> Nested_loop { two with outer = rel }
  | Merge m -> Merge { m with two = { m.two with outer = rel } }
  | Chain ({ blocks = b0 :: rest; _ } as c) ->
      Chain { c with blocks = { b0 with rel } :: rest }
  | Flat | Chain _ | Flattened _ | Naive -> plan

let rec fallback (plan, declines) =
  match plan with
  | Nested_loop _ -> Some ("nested-loop method", declines)
  | Naive -> Some ("naive interpreter", declines)
  | Flattened f -> (
      match fallback (f.inner, f.inner_declines) with
      | Some (m, ds) -> Some (m, declines @ ds)
      | None -> None)
  | Flat | Constant_inner _ | Merge _ | Chain _ -> None

let unnest_warning q =
  match fallback (plan q) with
  | None -> None
  | Some (method_, declines) ->
      Some
        (Printf.sprintf "runs on the %s (%s)" method_
           (String.concat "; " (List.map decline_to_string declines)))
