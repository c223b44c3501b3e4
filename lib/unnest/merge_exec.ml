(** Unnested evaluation with the extended merge-join: the paper's
    contribution (Sections 4-8).

    Each nested-query type is rewritten to its flat equivalent and evaluated
    as one sorted sweep:
    - type N / J   (Theorems 4.1, 4.2): merge-join on [R.Y = S.Z] with the
      correlation predicates as residuals, then max-dedup projection;
    - type JX      (Theorem 5.1): the grouped MIN(D) of Query JX' evaluated
      per outer tuple over its window [Rng(r)] — tuples outside the window
      contribute the neutral value, so one sweep suffices;
    - type JALL    (Theorem 7.1, and its SOME dual): same grouped sweep with
      the quantifier folded into [1 - min(..., 1 - d(y op z))];
    - type JA      (Theorem 6.1): the pipelined T1 / T2 / JA' cascade —
      aggregate each outer tuple's window group, compare, project, including
      the COUNT left-outer-join branch;
    - chain queries (Theorem 8.1): a cascade of merge-joins, outermost block
      first, correlation predicates evaluated as residuals on the
      accumulated intermediate tuples.

    The sweep equality and the residual correlation predicates come split
    from the plan ({!Classify.sweep}); a shape with no equality to sweep on
    never reaches this module. *)

open Relational
open Fuzzy
open Fuzzysql
module Trace = Storage.Trace

module Vmap = Semantics.Vmap

let negate_if b d = if b then Degree.neg d else d

(* "Notice that if no join predicate exists in the inner block, the inner
   block produces the same single value for every tuple of R and no
   unnesting is needed" (Section 6). For uncorrelated quantifier, aggregate,
   and EXISTS subqueries the temporary relation T is computed once: the
   aggregate / EXISTS link degree is then a constant, and quantifiers only
   need one pass of R' against the duplicate-eliminated T. [emit r d_link]
   answers [r] at min(mu_r, d_link). *)
let run_constant_inner ~stats ~emit ~outer' ~inner' link =
  (* T: the fuzzy value set of the whole (reduced) inner relation. *)
  let collect z =
    Relation.fold inner' ~init:Vmap.empty ~f:(fun m s ->
        Semantics.vmap_add (Ftuple.value s z) (Ftuple.degree s) m)
  in
  match link with
  | Classify.Exists_link { negated; corr = [] } ->
      let m =
        Relation.fold inner' ~init:Degree.zero ~f:(fun acc s ->
            Degree.disj acc (Ftuple.degree s))
      in
      Relation.iter outer' (fun r -> emit r (negate_if negated m))
  | Classify.Agg_link { y; op1; agg; z; corr = [] } -> (
      match Semantics.aggregate agg (collect z) with
      | None -> () (* NULL aggregate: no answers *)
      | Some a ->
          Relation.iter outer' (fun r ->
              Storage.Iostats.record_fuzzy_op stats;
              emit r (Value.compare_degree op1 (Ftuple.value r y) a)))
  | Classify.Quant_link { y; op; quant; z; corr = [] } ->
      (* ALL folds 1 - d(y op z) into the max and negates it. *)
      let all = quant = Ast.All in
      let t = Vmap.bindings (collect z) in
      Relation.iter outer' (fun r ->
          let m =
            List.fold_left
              (fun acc (zv, dz) ->
                Storage.Iostats.record_fuzzy_op stats;
                let d_cmp = Value.compare_degree op (Ftuple.value r y) zv in
                Degree.disj acc (Degree.conj dz (negate_if all d_cmp)))
              Degree.zero t
          in
          emit r (negate_if all m))
  | Classify.In_link _ | Classify.Not_in_link _ | Classify.Exists_link _
  | Classify.Agg_link _ | Classify.Quant_link _ ->
      invalid_arg "run_constant_inner: link is not constant-inner"

(* The frame both two-level executors share: reduce R and S by p1 / p2
   (only tuples satisfying them positively are kept, their satisfaction
   degrees folded into the tuple degrees; with no local predicates the base
   relation is used directly, no copy), let [body] fill the pre-dedup
   answer through [emit r d_link] (the projection of [r] at min(mu_r,
   d_link)), then max-dedup and apply the WITH threshold. The threshold is
   pushed into the reductions where sound (see {!Pushdown}). The pre-dedup
   answer, the reductions and whatever [body] registers in [temps] are
   destroyed on every exit, so a cancellation raised anywhere in the
   pipeline (reduce, sort, sweep) still frees them: a server worker's
   environment outlives the query. *)
let two_level_frame ~name ?trace ?cancel (shape : Classify.two_level) body =
  let { Classify.select; outer; inner; p1; p2; link; threshold } = shape in
  let env = Relation.env outer in
  let stats = env.Storage.Env.stats in
  let out_schema =
    Schema.make ~name
      (List.map (fun i -> (Schema.attrs (Relation.schema outer)).(i)) select)
  in
  let out = Relation.create env out_schema in
  let temps = ref [ out ] in
  Fun.protect ~finally:(fun () -> List.iter Relation.destroy !temps)
  @@ fun () ->
  let reduce which rel preds ~prune =
    if preds = [] && not prune then rel
    else
      Trace.with_span trace ~stats ("reduce " ^ which) (fun () ->
          let r =
            Algebra.select rel ~pred:(fun tup ->
                Storage.Cancel.check cancel;
                let d = Semantics.local_degree stats tup preds in
                if
                  prune
                  && Pushdown.cannot_pass threshold
                       (Degree.conj (Ftuple.degree tup) d)
                then Degree.zero
                else d)
          in
          temps := r :: !temps;
          Trace.set_rows trace (Relation.cardinality r);
          r)
  in
  let prune = threshold <> None in
  let outer' = reduce "outer" outer p1 ~prune in
  let inner' =
    reduce "inner" inner p2 ~prune:(prune && Pushdown.inner_prunable link)
  in
  let emit r d_link =
    let d = Degree.conj (Ftuple.degree r) d_link in
    if Degree.positive d then
      Relation.insert out
        (Ftuple.make (Array.of_list (List.map (Ftuple.value r) select)) d)
  in
  body ~stats ~temps ~out ~emit outer' inner';
  let deduped =
    Trace.with_span trace ~stats "dedup" (fun () ->
        let deduped = Algebra.dedup_max ~name out in
        Trace.set_rows trace (Relation.cardinality deduped);
        deduped)
  in
  Semantics.apply_threshold deduped threshold

let run_constant ?(name = "answer") ?trace ?cancel (shape : Classify.two_level)
    : Relation.t =
  two_level_frame ~name ?trace ?cancel shape
    (fun ~stats ~temps:_ ~out ~emit outer' inner' ->
      Trace.with_span trace ~stats "constant-inner" (fun () ->
          run_constant_inner ~stats ~emit ~outer' ~inner' shape.Classify.link;
          Trace.set_rows trace (Relation.cardinality out)))

let run ?(name = "answer") ?pool ?trace ?cancel (step : Classify.sweep)
    ~mem_pages : Relation.t =
  let { Classify.two; outer_key; inner_key; residual } = step in
  two_level_frame ~name ?trace ?cancel two
    (fun ~stats ~temps ~out:_ ~emit outer' inner' ->
      let residual_degree = Classify.corr_degree stats residual in
      (* max over the window Rng(r) of min(mu_s, d_eq, d_residual, term);
         a pair outside the window has d_eq = 0 and cannot raise the max,
         so it is skipped — except for NOT IN, whose fold has always
         evaluated every pair of the window. *)
      let window_max ?(every_pair = false) ?(term = fun _ _ -> Degree.one)
          (r : Ftuple.t) rng =
        List.fold_left
          (fun acc (s, d_eq) ->
            if every_pair || Degree.positive d_eq then
              Degree.disj acc
                (Degree.conj_list
                   [ Ftuple.degree s; d_eq; residual_degree r s; term r s ])
            else acc)
          Degree.zero rng
      in
      (* The per-outer-tuple term evaluation over its window. *)
      let handle_r =
        match two.Classify.link with
        | Classify.In_link _ -> fun r rng -> emit r (window_max r rng)
        | Classify.Not_in_link _ ->
            (* min over all s of 1 - min(mu_s, d_eq, d_corr): the neutral 1
               for every s outside the window. *)
            fun r rng ->
              emit r (Degree.neg (window_max ~every_pair:true r rng))
        | Classify.Exists_link { negated; _ } ->
            (* Fuzzy semi-join (anti-join when negated). *)
            fun r rng -> emit r (negate_if negated (window_max r rng))
        | Classify.Quant_link { y; op; quant; z; _ } ->
            (* ALL folds 1 - d(y op z) into the max and negates it. *)
            let all = quant = Ast.All in
            let term r s =
              Storage.Iostats.record_fuzzy_op stats;
              negate_if all
                (Value.compare_degree op (Ftuple.value r y) (Ftuple.value s z))
            in
            fun r rng -> emit r (negate_if all (window_max ~term r rng))
        | Classify.Agg_link { y; op1; agg; z; _ } -> (
            fun r rng ->
              (* T'(u): the fuzzy value set of the group for u = r.U. *)
              let set =
                List.fold_left
                  (fun m (s, d_eq) ->
                    let d =
                      Degree.conj_list
                        [ Ftuple.degree s; d_eq; residual_degree r s ]
                    in
                    Semantics.vmap_add (Ftuple.value s z) d m)
                  Vmap.empty rng
              in
              match Semantics.aggregate agg set with
              | None -> ()
              | Some a ->
                  Storage.Iostats.record_fuzzy_op stats;
                  emit r (Value.compare_degree op1 (Ftuple.value r y) a))
      in
      let sorted_r =
        Join_merge.sort_by ?pool ?trace ?cancel outer' ~attr:outer_key
          ~mem_pages
      in
      temps := sorted_r :: !temps;
      let sorted_s =
        Join_merge.sort_by ?pool ?trace ?cancel inner' ~attr:inner_key
          ~mem_pages
      in
      temps := sorted_s :: !temps;
      Join_merge.sweep_sorted ?pool ?trace ?cancel ~outer:sorted_r
        ~inner:sorted_s ~outer_attr:outer_key ~inner_attr:inner_key
        ~mem_pages ~f:handle_r ())

(* After the cascade has joined the block interval [lo, hi], flags the
   blocks whose columns a later step or the answer still reads: block 0 (the
   answer columns), an interval end linked to a block not yet joined, and
   an endpoint of a correlation predicate whose other endpoint has not
   joined yet. Every other block can be projected away, max-deduplicating
   on the kept columns: its predicates are all applied, and min distributes
   over max, so the final degrees come out unchanged, bit for bit. *)
let live_blocks (chain : Classify.chain) ~lo ~hi =
  let blocks = Array.of_list chain.Classify.blocks in
  let k = Array.length blocks in
  let joined b = lo <= b && b <= hi in
  let live = Array.make k false in
  live.(0) <- true;
  if lo > 0 then live.(lo) <- true;
  if hi < k - 1 then live.(hi) <- true;
  Array.iteri
    (fun b (blk : Classify.chain_block) ->
      List.iter
        (fun (c : Classify.corr) ->
          let target = b - c.Classify.up in
          if joined b && not (joined target) then live.(b) <- true;
          if joined target && not (joined b) then live.(target) <- true)
        blk.Classify.corr)
    blocks;
  live

let cascade_plan chain (order : Chain_order.order) =
  let lo = ref order.Chain_order.start and hi = ref order.Chain_order.start in
  let held = ref [ order.Chain_order.start ] in
  List.map
    (fun b ->
      lo := Int.min !lo b;
      hi := Int.max !hi b;
      let live = live_blocks chain ~lo:!lo ~hi:!hi in
      let kept, dropped =
        List.partition (fun blk -> live.(blk)) (!held @ [ b ])
      in
      held := kept;
      (b, kept, dropped))
    order.Chain_order.steps

let run_chain ?(name = "answer") ?order ?pool ?trace ?cancel
    (chain : Classify.chain) ~mem_pages : Relation.t =
  let { Classify.blocks; top_select; chain_threshold } = chain in
  let blocks_arr = Array.of_list blocks in
  let k = Array.length blocks_arr in
  if k = 0 then invalid_arg "Merge_exec.run_chain: no blocks";
  let stats_of rel = (Relation.env rel).Storage.Env.stats in
  let stats = stats_of blocks_arr.(0).Classify.rel in
  (* Every owned intermediate (block reductions, join cascade steps) goes
     through [temps] so a cancellation at any point of the cascade frees
     them all; cascade steps that are superseded are destroyed early to
     bound disk usage, the rest on exit. *)
  let temps = ref [] in
  Fun.protect ~finally:(fun () -> List.iter Relation.destroy !temps)
  @@ fun () ->
  (* Pre-select each block's relation with its local predicates. *)
  let reduced =
    Array.mapi
      (fun i (b : Classify.chain_block) ->
        if b.Classify.p_local = [] then b.Classify.rel
        else
          Trace.with_span trace ~stats
            (Printf.sprintf "reduce block-%d" i)
            (fun () ->
              let r =
                Algebra.select b.Classify.rel ~pred:(fun tup ->
                    Storage.Cancel.check cancel;
                    Semantics.local_degree stats tup b.Classify.p_local)
              in
              Trace.set_rows trace (Relation.cardinality r);
              temps := r :: !temps;
              r))
      blocks_arr
  in
  let order =
    match order with Some o -> o | None -> Chain_order.left_to_right k
  in
  let start = order.Chain_order.start in
  (* Grow a contiguous interval [lo, hi] of blocks with merge-joins,
     applying each correlation predicate as soon as both of its endpoints
     have joined, and keeping after each step only the blocks
     {!cascade_plan} keeps. [offsets.(b)] is block [b]'s attribute offset
     in the intermediate while [b] is kept. *)
  let offsets = Array.make k (-1) in
  offsets.(start) <- 0;
  let lo = ref start and hi = ref start in
  let arity b = Schema.arity (Relation.schema blocks_arr.(b).Classify.rel) in
  let acc = ref reduced.(start) in
  let acc_owned = ref false in
  let in_set b = !lo <= b && b <= !hi in
  let add_block (b, kept, dropped) =
    Storage.Cancel.check cancel;
    if b <> !lo - 1 && b <> !hi + 1 then
      invalid_arg "Merge_exec.run_chain: order step not adjacent to the set";
    let new_rel = reduced.(b) in
    (* The equality linking block [b] to the set: the link between b and
       b+1 when extending left, between b-1 and b when extending right. *)
    let outer_attr, inner_attr =
      if b = !hi + 1 then
        match blocks_arr.(b - 1).Classify.link_attr with
        | Some y -> (offsets.(b - 1) + y, blocks_arr.(b).Classify.out_attr)
        | None -> invalid_arg "Merge_exec.run_chain: missing link attribute"
      else
        match blocks_arr.(b).Classify.link_attr with
        | Some y -> (offsets.(b + 1) + blocks_arr.(b + 1).Classify.out_attr, y)
        | None -> invalid_arg "Merge_exec.run_chain: missing link attribute"
    in
    (* Correlation predicates that become applicable now: those of block [b]
       whose target is already present, and those of present blocks whose
       target is [b]. *)
    let of_new =
      List.filter
        (fun (c : Classify.corr) -> in_set (b - c.Classify.up))
        blocks_arr.(b).Classify.corr
    in
    let onto_new =
      List.concat
        (List.init k (fun blk ->
             if in_set blk then
               List.filter_map
                 (fun (c : Classify.corr) ->
                   if blk - c.Classify.up = b then Some (blk, c) else None)
                 blocks_arr.(blk).Classify.corr
             else []))
    in
    let residual r s =
      let d1 =
        List.fold_left
          (fun acc (c : Classify.corr) ->
            Storage.Iostats.record_fuzzy_op stats;
            Degree.conj acc
              (Value.compare_degree c.Classify.op
                 (Ftuple.value s c.Classify.local_attr)
                 (Ftuple.value r (offsets.(b - c.Classify.up) + c.Classify.outer_attr))))
          Degree.one of_new
      in
      List.fold_left
        (fun acc (blk, (c : Classify.corr)) ->
          Storage.Iostats.record_fuzzy_op stats;
          Degree.conj acc
            (Value.compare_degree c.Classify.op
               (Ftuple.value r (offsets.(blk) + c.Classify.local_attr))
               (Ftuple.value s c.Classify.outer_attr)))
        d1 onto_new
    in
    (* The joined row is the intermediate's columns followed by block [b]'s;
       [kept] lists the blocks to keep in that column order. *)
    offsets.(b) <- Schema.arity (Relation.schema !acc);
    let project =
      if dropped = [] then None
      else
        Some
          (List.concat_map
             (fun blk -> List.init (arity blk) (fun i -> offsets.(blk) + i))
             kept)
    in
    let joined =
      Join_merge.join_eq ?pool ?trace ?cancel ?project ~outer:!acc
        ~inner:new_rel ~outer_attr ~inner_attr ~mem_pages ~residual ()
    in
    temps := joined :: !temps;
    if !acc_owned then begin
      let old = !acc in
      temps := List.filter (fun r -> r != old) !temps;
      Relation.destroy old
    end;
    acc := joined;
    acc_owned := true;
    if b < !lo then lo := b;
    if b > !hi then hi := b;
    ignore
      (List.fold_left
         (fun off blk ->
           offsets.(blk) <- off;
           off + arity blk)
         0 kept)
  in
  List.iter add_block (cascade_plan chain order);
  let out =
    Trace.with_span trace ~stats "project" (fun () ->
        let out =
          Algebra.project_positions ~name !acc
            (List.map (fun p -> offsets.(0) + p) top_select)
        in
        Trace.set_rows trace (Relation.cardinality out);
        out)
  in
  Semantics.apply_threshold out chain_threshold
