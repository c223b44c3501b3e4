(** EXPLAIN: a textual account of the plan {!Classify.plan} chose — the
    shape, every rule that declined and why, the rule that fired, its
    method, the sort/sweep attributes, the residual correlation predicates,
    and histogram-based cardinality estimates. *)

open Relational

let attr_name rel i = Schema.attr_name (Relation.schema rel) i

let corr_to_string ~outer ~inner (c : Classify.corr) =
  Printf.sprintf "%s %s %s"
    (attr_name inner c.Classify.local_attr)
    (Fuzzy.Fuzzy_compare.op_to_string c.Classify.op)
    (attr_name outer c.Classify.outer_attr)

(* The expected matching pairs of the sweep, from histograms on its keys. *)
let sweep_estimate (m : Classify.sweep) =
  Histogram.estimate_eq_join
    (Histogram.build m.Classify.two.Classify.outer ~attr:m.Classify.outer_key)
    (Histogram.build m.Classify.two.Classify.inner ~attr:m.Classify.inner_key)

let link_text ~outer ~inner = function
  | Classify.In_link { y; z; _ } ->
      Printf.sprintf "d(%s = %s)" (attr_name outer y) (attr_name inner z)
  | Classify.Not_in_link { y; z; _ } ->
      Printf.sprintf "group-min over 1 - min(.., d(%s = %s), ..)"
        (attr_name outer y) (attr_name inner z)
  | Classify.Quant_link { y; op; quant; z; _ } ->
      Printf.sprintf "quantified %s: d(%s %s %s)"
        (match quant with Fuzzysql.Ast.All -> "ALL" | Fuzzysql.Ast.Some_ -> "SOME")
        (attr_name outer y)
        (Fuzzy.Fuzzy_compare.op_to_string op)
        (attr_name inner z)
  | Classify.Agg_link { y; op1; agg; z; _ } ->
      Printf.sprintf "pipelined %s(%s) compared as d(%s %s AGG)"
        (Aggregate.to_string agg) (attr_name inner z) (attr_name outer y)
        (Fuzzy.Fuzzy_compare.op_to_string op1)
  | Classify.Exists_link { negated; _ } ->
      if negated then "fuzzy anti-join (NOT EXISTS)"
      else "fuzzy semi-join (EXISTS)"

let link_corr = function
  | Classify.In_link { corr; _ } | Classify.Not_in_link { corr; _ }
  | Classify.Quant_link { corr; _ } | Classify.Agg_link { corr; _ }
  | Classify.Exists_link { corr; _ } ->
      corr

(* The lines every two-level method shares: the reductions before, and
   the projection and threshold after its own lines ([middle]). *)
let two_level_text buf (t : Classify.two_level) ~reduce ~middle ~rewrite =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let { Classify.outer; inner; p1; p2; link; threshold; select } = t in
  let preds n =
    Printf.sprintf "%d local predicate%s" n (if n = 1 then "" else "s")
  in
  if reduce then begin
    add "  reduce %s by p1 (%s)\n" (Schema.name (Relation.schema outer))
      (preds (List.length p1));
    add "  reduce %s by p2 (%s)\n" (Schema.name (Relation.schema inner))
      (preds (List.length p2))
  end;
  middle ();
  add "  project %s, duplicate-eliminate keeping max degree\n"
    (String.concat ", " (List.map (attr_name outer) select));
  rewrite ();
  match threshold with
  | Some { Fuzzysql.Ast.strict; value } ->
      add "  threshold WITH D %s %g (pushed down%s)\n"
        (if strict then ">" else ">=") value
        (if Pushdown.inner_prunable link then " on both sides"
         else " on the outer side only")
  | None -> ()

let residual_line buf ~outer ~inner label = function
  | [] -> ()
  | corr ->
      Printf.bprintf buf "  %s: %s\n" label
        (String.concat ", " (List.map (corr_to_string ~outer ~inner) corr))

let merge_text buf ~estimates (m : Classify.sweep) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let { Classify.two; outer_key; inner_key; residual } = m in
  let { Classify.outer; inner; link; _ } = two in
  add "method: unnest + extended merge-join (Sections 4-7)\n";
  two_level_text buf two ~reduce:true ~middle:(fun () ->
      add "  sort both on the Definition 3.1 interval order of (%s, %s)\n"
        (attr_name outer outer_key) (attr_name inner inner_key);
      add "  single sweep; per outer tuple examine Rng(r): %s\n"
        (link_text ~outer ~inner link);
      if estimates then
        add "  estimates: |%s| = %d, |%s| = %d, expected matching pairs ~ %.0f\n"
          (Schema.name (Relation.schema outer))
          (Relation.cardinality outer)
          (Schema.name (Relation.schema inner))
          (Relation.cardinality inner)
          (sweep_estimate m);
      residual_line buf ~outer ~inner "residual correlation predicates" residual)
    ~rewrite:(fun () ->
      add "  rewritten flat query (paper notation):\n    %s\n"
        (Rewrite_sql.merge m))

let chain_text buf ~estimates (c : Classify.chain) =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let blocks = Array.of_list c.Classify.blocks in
  let name i = Schema.name (Relation.schema blocks.(i).Classify.rel) in
  add "method: unnest to a K-way flat join (Theorem 8.1), merge-joins only\n";
  add "  blocks: %s\n"
    (String.concat " -> " (List.map (fun (b : Classify.chain_block) ->
         Schema.name (Relation.schema b.Classify.rel)) c.Classify.blocks));
  if estimates then begin
    let order = Chain_order.plan c in
    add "  join order (interval DP over estimated intermediate sizes):\n";
    add "    start with %s" (name order.Chain_order.start);
    List.iter (fun b -> add ", then join %s" (name b)) order.Chain_order.steps;
    add "\n    estimated total intermediate tuples: %.0f\n"
      order.Chain_order.estimated_cost;
    let names bs = String.concat ", " (List.map name bs) in
    add "  after each join keep only the blocks later steps read:\n";
    List.iter
      (fun (b, kept, dropped) ->
        add "    join %s: keep %s" (name b) (names kept);
        if dropped <> [] then
          add "; drop %s with max-dedup" (names dropped);
        add "\n")
      (Merge_exec.cascade_plan c order)
  end
  else add "  join order: interval DP over the materialised product\n";
  add "  rewritten flat query (Theorem 8.1):\n    %s\n" (Rewrite_sql.chain c)

(* [estimates] is false below a flatten: the product the histograms would
   read exists only while the plan executes. *)
let rec plan_text buf ~estimates (plan : Classify.plan) declines =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter (fun d -> add "%s\n" (Classify.decline_to_string d)) declines;
  add "rule: %s\n" (Classify.rule_of plan);
  match plan with
  | Classify.Flat ->
      add
        "method: direct evaluation (nested loops over the FROM relations,\n\
        \  grouped aggregation if requested, dedup-max, threshold)\n"
  | Classify.Merge m -> merge_text buf ~estimates m
  | Classify.Constant_inner t ->
      let { Classify.outer; inner; link; _ } = t in
      add "method: constant inner block, evaluated once (Section 6: no \
           unnesting needed)\n";
      two_level_text buf t ~reduce:true ~middle:(fun () ->
          add "  one pass of %s against the reduced %s: %s\n"
            (Schema.name (Relation.schema outer))
            (Schema.name (Relation.schema inner))
            (link_text ~outer ~inner link))
        ~rewrite:ignore
  | Classify.Nested_loop t ->
      let { Classify.outer; inner; link; _ } = t in
      add "method: blocked nested loop (Section 3), no equality to sweep on\n";
      two_level_text buf t ~reduce:false ~middle:(fun () ->
          add "  per block of %s, scan %s once: %s\n"
            (Schema.name (Relation.schema outer))
            (Schema.name (Relation.schema inner))
            (link_text ~outer ~inner link);
          residual_line buf ~outer ~inner "correlation predicates"
            (link_corr link))
        ~rewrite:ignore
  | Classify.Chain c -> chain_text buf ~estimates c
  | Classify.Flattened f ->
      add "method: materialise the outer FROM product (%s) with %d local \
           predicate%s folded into its degrees, then plan it:\n"
        (String.concat " x " (List.map fst f.Classify.product))
        (List.length f.Classify.locals)
        (if List.length f.Classify.locals = 1 then "" else "s");
      plan_text buf ~estimates:false f.Classify.inner f.Classify.inner_declines
  | Classify.Naive ->
      add
        "method: naive interpreter (inner blocks re-evaluated per outer\n\
        \  binding) - no unnesting rule applies\n"

let explain_text buf (plan, declines) =
  Printf.bprintf buf "shape: %s\n" (Classify.to_string plan);
  plan_text buf ~estimates:true plan declines

let explain (q : Fuzzysql.Bound.query) : string =
  let buf = Buffer.create 512 in
  explain_text buf (Classify.plan q);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE: run the query under a trace collector, then annotate
   the recorded operator spans with the planner's cardinality estimates.
   The estimates are computed AFTER the run, on the base relations — the
   histogram build scans must not pollute the traced I/O counters. *)

type analysis = {
  answer : Relation.t;
  trace : Storage.Trace.t;
  text : string;
}

let annotate_estimates trace (plan : Classify.plan) =
  let module Trace = Storage.Trace in
  let set_on name est =
    Trace.iter_spans trace (fun sp ->
        if Trace.span_name sp = name then Trace.span_set_est_rows sp est)
  in
  match plan with
  | Classify.Merge m ->
      (* The sweep emits one callback per outer tuple; the estimated
         matching pairs bound what the callbacks fold over. In the
         parallel plan each partition's sweep span gets the global
         estimate (partition-local estimates are not computed). *)
      set_on "sweep" (sweep_estimate m);
      set_on "query"
        (float_of_int (Relation.cardinality m.Classify.two.Classify.outer))
  | Classify.Chain c ->
      let order = Chain_order.plan c in
      set_on "query" order.Chain_order.estimated_cost
  | Classify.Flat | Classify.Constant_inner _ | Classify.Flattened _
  | Classify.Nested_loop _ | Classify.Naive ->
      ()

let analyze ?name ?strategy ?mem_pages ?chain_dp ?domains
    (q : Fuzzysql.Bound.query) : analysis =
  let module Trace = Storage.Trace in
  let trace = Trace.create () in
  let answer =
    Planner.run ?name ?strategy ?mem_pages ?chain_dp ?domains ~trace q
  in
  let planned = Classify.plan q in
  annotate_estimates trace (fst planned);
  let buf = Buffer.create 1024 in
  explain_text buf planned;
  Buffer.add_string buf "analyze:\n";
  Buffer.add_string buf (Format.asprintf "%a" Trace.pp_tree trace);
  Printf.ksprintf (Buffer.add_string buf) "actual answer rows: %d\n"
    (Relation.cardinality answer);
  { answer; trace; text = Buffer.contents buf }
