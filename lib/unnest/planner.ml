(** Entry point of the query processor: plan with {!Classify.plan}, then
    execute the plan. [Naive], [Nested_loop] and [Unnest_merge] override the
    plan's executor; [Auto] runs it as the rules chose it, mirroring the
    paper's conclusion that unnested evaluation dominates whenever it
    applies. *)

open Relational

type strategy = Auto | Naive | Nested_loop | Unnest_merge

let strategy_to_string = function
  | Auto -> "auto"
  | Naive -> "naive"
  | Nested_loop -> "nested-loop"
  | Unnest_merge -> "unnest+merge-join"

exception Unsupported of string

let default_mem_pages = 256 (* 2 MB of 8 KB pages, the paper's buffer *)

(* ORDER BY D [DESC|ASC] and LIMIT k: rank the answer by membership degree
   and keep the top k. Ties break on the value vectors so results are
   deterministic. The unranked answer is destroyed once copied. *)
let rank_and_limit answer ~order ~limit =
  match (order, limit) with
  | None, None -> answer
  | _ ->
      let tuples = Relation.to_list answer in
      let sorted =
        match order with
        | None -> tuples
        | Some dir ->
            List.sort
              (fun a b ->
                let c =
                  Float.compare (Ftuple.degree b) (Ftuple.degree a)
                in
                let c = match dir with Fuzzysql.Ast.Desc -> c | Fuzzysql.Ast.Asc -> -c in
                if c <> 0 then c else Ftuple.compare_values a b)
              tuples
      in
      let truncated =
        match limit with
        | None -> sorted
        | Some k -> List.filteri (fun i _ -> i < k) sorted
      in
      let ranked =
        Relation.of_list (Relation.env answer) (Relation.schema answer)
          truncated
      in
      Relation.destroy answer;
      ranked

let run_unranked ?(name = "answer") ?(strategy = Auto)
    ?(mem_pages = default_mem_pages) ?(chain_dp = true) ?(domains = 1) ?trace
    ?cancel (q : Fuzzysql.Bound.query) : Relation.t =
  if domains < 1 then invalid_arg "Planner.run: domains < 1";
  Storage.Cancel.check cancel;
  let naive () = Naive_eval.query ~name ?trace q in
  (* One match on the plan: the rule that fired decides the executor, and a
     strategy only overrides it. *)
  let rec exec pool (plan : Classify.plan) =
    match (strategy, plan) with
    | Naive, _
    | _, Classify.Flat
    | Nested_loop, (Classify.Chain _ | Classify.Flattened _ | Classify.Naive)
    | _, Classify.Naive ->
        naive ()
    | ( Nested_loop,
        ( Classify.Constant_inner two | Classify.Nested_loop two
        | Classify.Merge { two; _ } ) )
    | _, Classify.Nested_loop two ->
        Nl_exec.run ~name ?trace ?cancel two ~mem_pages
    | _, Classify.Constant_inner two ->
        Merge_exec.run_constant ~name ?trace ?cancel two
    | _, Classify.Merge step ->
        Merge_exec.run ~name ?pool ?trace ?cancel step ~mem_pages
    | _, Classify.Chain chain ->
        let order = if chain_dp then Some (Chain_order.plan chain) else None in
        Merge_exec.run_chain ~name ?order ?pool ?trace ?cancel chain ~mem_pages
    | _, Classify.Flattened f ->
        let product = Flatten.materialise ?cancel f.product f.locals f.schema in
        Fun.protect ~finally:(fun () -> Relation.destroy product) (fun () ->
            exec pool (Classify.with_outer f.inner product))
  in
  let ((plan, _) as planned) = Classify.plan q in
  (match (strategy, Classify.fallback planned) with
  | Unnest_merge, Some (_, declines) ->
      raise
        (Unsupported
           (Printf.sprintf "no merge-join plan (%s); use Auto or Naive"
              (String.concat "; "
                 (List.map Classify.decline_to_string declines))))
  | _ -> ());
  let exec pool =
    (* One root span per query, carrying the whole run's Iostats delta and
       the answer cardinality; the executors' operator spans nest inside. *)
    match q.Fuzzysql.Bound.from with
    | (_, rel) :: _ ->
        let stats = (Relation.env rel).Storage.Env.stats in
        Storage.Trace.with_span trace ~stats "query" (fun () ->
            let answer = exec pool plan in
            Storage.Trace.set_rows trace (Relation.cardinality answer);
            answer)
    | [] -> exec pool plan
  in
  (* [domains = 1] never constructs a pool: it is exactly the sequential
     engine. The pool lives for one query — spawn cost is amortised across
     all the sorts and sweeps of the plan. *)
  if domains = 1 then exec None
  else
    Storage.Task_pool.with_pool ~domains (fun pool -> exec (Some pool))

let run ?name ?strategy ?mem_pages ?chain_dp ?domains ?trace ?cancel
    (q : Fuzzysql.Bound.query) : Relation.t =
  let answer =
    run_unranked ?name ?strategy ?mem_pages ?chain_dp ?domains ?trace ?cancel
      q
  in
  rank_and_limit answer ~order:q.Fuzzysql.Bound.order_by_d
    ~limit:q.Fuzzysql.Bound.limit

let run_string ?name ?strategy ?mem_pages ?chain_dp ?domains ?trace
    ?cancel ~catalog ~terms sql =
  run ?name ?strategy ?mem_pages ?chain_dp ?domains ?trace ?cancel
    (Fuzzysql.Analyzer.bind_string ~catalog ~terms sql)
