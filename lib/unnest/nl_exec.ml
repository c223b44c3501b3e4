(** The nested-loop method: the only way a *nested* fuzzy query can be
    evaluated (Section 3), and the baseline of every experiment in Section 9.

    Buffer allocation follows the paper: one page for the inner relation, the
    rest for outer blocks. For each outer block the inner relation is scanned
    once while per-outer-tuple accumulators absorb each inner tuple's
    contribution to the linking predicate; this is semantically identical to
    re-evaluating the inner block per outer tuple (max / min of mins commute
    with the scan order) but has the paper's measured I/O pattern
    [b_R + ceil(b_R / (M-1)) * b_S]. *)

open Relational
open Fuzzy
open Fuzzysql

module Vmap = Semantics.Vmap

let run ?(name = "answer") ?trace ?cancel (shape : Classify.two_level)
    ~mem_pages : Relation.t =
  let module Trace = Storage.Trace in
  let { Classify.select; outer; inner; p1; p2; link; threshold } = shape in
  let env = Relation.env outer in
  let stats = env.Storage.Env.stats in
  let out_schema =
    Schema.make ~name
      (List.map (fun i -> (Schema.attrs (Relation.schema outer)).(i)) select)
  in
  let out = Relation.create env out_schema in
  (* The pre-dedup answer is freed on every exit, cancellation included. *)
  Fun.protect ~finally:(fun () -> Relation.destroy out) @@ fun () ->
  let emit r d =
    if Degree.positive d then
      Relation.insert out
        (Ftuple.make
           (Array.of_list (List.map (fun p -> Ftuple.value r p) select))
           d)
  in
  Trace.with_span trace ~stats ~pool:env.Storage.Env.pool "nested-loop"
    (fun () ->
  Join_nested_loop.iter_blocks ~outer ~inner ~mem_pages
    ~f:(fun block scan_inner ->
      Storage.Cancel.check cancel;
      (* d1.(i): degree of membership and p1 for the i-th block tuple. *)
      let d1 =
        Array.map
          (fun r ->
            let d =
              Degree.conj (Ftuple.degree r) (Semantics.local_degree stats r p1)
            in
            (* Threshold pushdown: a failing outer tuple can never produce a
               passing answer (the answer degree is min(d, ...)). *)
            if Pushdown.cannot_pass threshold d then Degree.zero else d)
          block
      in
      let n = Array.length block in
      (* Per-link accumulation, with the link dispatch hoisted out of the
         per-pair loop. [absorb s d2] folds one inner tuple into every block
         tuple's accumulator; [finalize i r] turns the accumulator into the
         linking predicate's satisfaction degree. *)
      let absorb, finalize =
        match link with
        | Classify.Agg_link { y; op1; agg; z; corr } ->
            let sets = Array.make n Vmap.empty in
            ( (fun s d2 ->
                for i = 0 to n - 1 do
                  if Degree.positive d1.(i) then begin
                    let r = block.(i) in
                    let d = Degree.conj d2 (Classify.corr_degree stats corr r s) in
                    sets.(i) <- Semantics.vmap_add (Ftuple.value s z) d sets.(i)
                  end
                done),
              fun i r ->
                match Semantics.aggregate agg sets.(i) with
                | None -> Degree.zero
                | Some a ->
                    Storage.Iostats.record_fuzzy_op stats;
                    Value.compare_degree op1 (Ftuple.value r y) a )
        | Classify.In_link _ | Classify.Not_in_link _ | Classify.Quant_link _
        | Classify.Exists_link _ ->
            (* The max-combining links: per block tuple, the max over inner
               tuples of min(d2, d(y op z), d_corr), negated for NOT IN,
               ALL (whose comparison is negated too) and NOT EXISTS. *)
            let cmp, corr, negated =
              match link with
              | Classify.In_link { y; z; corr } ->
                  (Some (Fuzzy_compare.Eq, y, z, false), corr, false)
              | Classify.Not_in_link { y; z; corr } ->
                  (Some (Fuzzy_compare.Eq, y, z, false), corr, true)
              | Classify.Quant_link { y; op; quant; z; corr } ->
                  let all = quant = Ast.All in
                  (Some (op, y, z, all), corr, all)
              | Classify.Exists_link { negated; corr } -> (None, corr, negated)
              | Classify.Agg_link _ -> assert false
            in
            let m = Array.make n Degree.zero in
            ( (fun s d2 ->
                for i = 0 to n - 1 do
                  if Degree.positive d1.(i) then begin
                    let r = block.(i) in
                    let d_cmp =
                      match cmp with
                      | Some (op, y, z, negate_cmp) ->
                          Storage.Iostats.record_fuzzy_op stats;
                          let d =
                            Value.compare_degree op (Ftuple.value r y)
                              (Ftuple.value s z)
                          in
                          if negate_cmp then Degree.neg d else d
                      | None -> Degree.one
                    in
                    let d_corr = Classify.corr_degree stats corr r s in
                    let term = Degree.conj d2 (Degree.conj d_cmp d_corr) in
                    if term > m.(i) then m.(i) <- term
                  end
                done),
              fun i _ -> if negated then Degree.neg m.(i) else m.(i) )
      in
      let inner_prune = Pushdown.inner_prunable link in
      scan_inner (fun s ->
          Storage.Cancel.check cancel;
          let d2 =
            Degree.conj (Ftuple.degree s) (Semantics.local_degree stats s p2)
          in
          if
            Degree.positive d2
            && not (inner_prune && Pushdown.cannot_pass threshold d2)
          then absorb s d2);
      Array.iteri
        (fun i r ->
          if Degree.positive d1.(i) then
            emit r (Degree.conj d1.(i) (finalize i r)))
        block);
      Trace.set_rows trace (Relation.cardinality out));
  let deduped =
    Trace.with_span trace ~stats "dedup" (fun () ->
        let deduped = Algebra.dedup_max ~name out in
        Trace.set_rows trace (Relation.cardinality deduped);
        deduped)
  in
  Semantics.apply_threshold deduped threshold
