(** Render the unnesting rewrites as Fuzzy SQL text, in the notation the
    paper itself uses: a planned merge step is shown as its flat
    equivalent — Query N' / J' (Theorems 4.1/4.2), the grouped-MIN Query JX'
    (Theorem 5.1), the T1/T2 cascade of Query JA' and Query COUNT'
    (Theorem 6.1), Query JALL' (Theorem 7.1), and the K-way join Query Q'_K
    (Theorem 8.1). Purely presentational — the executors do not interpret
    this text — but invaluable for understanding and teaching the
    transformation (EXPLAIN prints it). *)

open Relational

let attr rel i =
  Printf.sprintf "%s.%s"
    (Schema.name (Relation.schema rel))
    (Schema.attr_name (Relation.schema rel) i)

let op_str = Fuzzy.Fuzzy_compare.op_to_string

let corr_str ~outer ~inner (c : Classify.corr) =
  Printf.sprintf "%s %s %s" (attr inner c.Classify.local_attr)
    (op_str c.Classify.op)
    (attr outer c.Classify.outer_attr)

let conj parts = String.concat " AND " (List.filter (fun s -> s <> "") parts)

let names rel select = String.concat ", " (List.map (attr rel) select)

let p_str label preds = if preds = [] then "" else label

let threshold_str = function
  | None -> ""
  | Some { Fuzzysql.Ast.strict; value } ->
      Printf.sprintf " WITH D %s %g" (if strict then ">" else ">=") value

let merge (m : Classify.sweep) : string =
  let { Classify.two; outer_key; inner_key; residual } = m in
  let { Classify.select; outer; inner; p1; p2; link; threshold; _ } = two in
  let r = Schema.name (Relation.schema outer)
  and s = Schema.name (Relation.schema inner) in
  let p1s = p_str "p1" p1 and p2s = p_str "p2" p2 in
  let w = threshold_str threshold in
  (* IN / NOT IN print their own pair as R.Y = S.Z; a swept correlation
     predicate keeps its S.V = R.U orientation. *)
  let sweep_eq =
    let o = attr outer outer_key and i = attr inner inner_key in
    match link with
    | Classify.In_link _ | Classify.Not_in_link _ -> o ^ " = " ^ i
    | Classify.Quant_link _ | Classify.Agg_link _ | Classify.Exists_link _ ->
        i ^ " = " ^ o
  in
  let residuals = List.map (corr_str ~outer ~inner) residual in
  match link with
  | Classify.In_link _ ->
      (* Query N' / J' *)
      Printf.sprintf "SELECT %s FROM %s, %s WHERE %s%s"
        (names outer select) r s
        (conj (p1s :: p2s :: sweep_eq :: residuals))
        w
  | Classify.Not_in_link _ ->
      (* Query JX': grouped MIN(D) over the negated join *)
      Printf.sprintf
        "JXT(K, X) = (SELECT %s.K, %s, MIN(D) FROM %s, %s WHERE %s.D AND \
         NOT(%s.D AND %s) WITH D >= 0 GROUPBY %s.K);  SELECT X FROM JXT%s"
        r (names outer select) r s r s
        (conj (p2s :: sweep_eq :: residuals))
        r w
  | Classify.Quant_link { y; op; quant; z; _ } -> (
      (* Query JALL' (and the SOME dual, which unnests like J') *)
      let cmp = Printf.sprintf "%s %s %s" (attr outer y) (op_str op) (attr inner z) in
      match quant with
      | Fuzzysql.Ast.All ->
          Printf.sprintf
            "T1(K, X, D) = (SELECT %s.K, %s, MIN(D) FROM %s, %s WHERE %s.D \
             AND NOT(%s.D AND %s AND NOT(%s)) WITH D >= 0 GROUPBY %s.K);  \
             SELECT X FROM T1%s"
            r (names outer select) r s r s
            (conj (p2s :: sweep_eq :: residuals))
            cmp r w
      | Fuzzysql.Ast.Some_ ->
          Printf.sprintf "SELECT %s FROM %s, %s WHERE %s%s"
            (names outer select) r s
            (conj (p1s :: p2s :: cmp :: sweep_eq :: residuals))
            w)
  | Classify.Agg_link { y; op1; agg; z; _ } ->
      (* Query JA' (or Query COUNT' with the left outer join): T1 projects
         the sweep attribute U and every outer attribute a residual
         correlation predicate reads; T2 groups on all of them. *)
      let keys =
        outer_key
        :: List.sort_uniq Int.compare
             (List.filter_map
                (fun (c : Classify.corr) ->
                  if c.Classify.outer_attr = outer_key then None
                  else Some c.Classify.outer_attr)
                residual)
      in
      let col i =
        if i = outer_key then "U" else Schema.attr_name (Relation.schema outer) i
      in
      let cols = String.concat ", " (List.map col keys) in
      let t1_cols = String.concat ", " (List.map (fun i -> "T1." ^ col i) keys) in
      let t1 =
        Printf.sprintf "T1(%s) = (SELECT %s FROM %s%s)" cols
          (String.concat ", " (List.map (attr outer) keys))
          r
          (if p1 = [] then "" else " WHERE p1")
      in
      let t2 =
        Printf.sprintf
          "T2(%s, A) = (SELECT %s, %s(%s) FROM T1, %s WHERE %s GROUPBY %s)"
          cols t1_cols (Aggregate.to_string agg) (attr inner z) s
          (conj
             (p2s
              :: Printf.sprintf "%s = T1.U" (attr inner inner_key)
              :: List.map
                   (fun (c : Classify.corr) ->
                     Printf.sprintf "%s %s T1.%s" (attr inner c.Classify.local_attr)
                       (op_str c.Classify.op) (col c.Classify.outer_attr))
                   residual))
          t1_cols
      in
      let joins op =
        List.map
          (fun i -> Printf.sprintf "%s %s T2.%s" (attr outer i) op (col i))
          keys
      in
      let final =
        if agg = Aggregate.Count then
          Printf.sprintf "SELECT %s FROM %s, T2 WHERE %s [%s %s T2.A : %s %s 0]%s"
            (names outer select) r
            (String.concat " AND " (joins "+="))
            (attr outer y) (op_str op1) (attr outer y) (op_str op1) w
        else
          Printf.sprintf "SELECT %s FROM %s, T2 WHERE %s%s"
            (names outer select) r
            (conj
               (((if p1 = [] then "TRUE" else "p1") :: joins "=")
               @ [ Printf.sprintf "%s %s T2.A" (attr outer y) (op_str op1) ]))
            w
      in
      String.concat ";  " [ t1; t2; final ]
  | Classify.Exists_link { negated; _ } ->
      Printf.sprintf "SELECT %s FROM %s, %s WHERE %s%s  -- fuzzy %s-join"
        (names outer select) r s
        (conj (p1s :: p2s :: sweep_eq :: residuals))
        w
        (if negated then "anti" else "semi")

let chain (c : Classify.chain) : string =
  (* Query Q'_K of Theorem 8.1. *)
  let blocks = Array.of_list c.Classify.blocks in
  let k = Array.length blocks in
  let rel i = blocks.(i).Classify.rel in
  let froms =
    String.concat ", "
      (Array.to_list (Array.map (fun (b : Classify.chain_block) ->
           Schema.name (Relation.schema b.Classify.rel)) blocks))
  in
  let link_preds =
    List.concat
      (List.init (k - 1) (fun i ->
           match blocks.(i).Classify.link_attr with
           | Some y ->
               [ Printf.sprintf "%s = %s" (attr (rel i) y)
                   (attr (rel (i + 1)) blocks.(i + 1).Classify.out_attr) ]
           | None -> []))
  in
  let corr_preds =
    List.concat
      (List.init k (fun i ->
           List.map
             (fun (cr : Classify.corr) ->
               Printf.sprintf "%s %s %s"
                 (attr (rel i) cr.Classify.local_attr)
                 (op_str cr.Classify.op)
                 (attr (rel (i - cr.Classify.up)) cr.Classify.outer_attr))
             blocks.(i).Classify.corr))
  in
  let locals =
    List.concat
      (List.init k (fun i ->
           if blocks.(i).Classify.p_local = [] then []
           else [ Printf.sprintf "p%d" (i + 1) ]))
  in
  Printf.sprintf "SELECT %s FROM %s WHERE %s%s"
    (names (rel 0) c.Classify.top_select)
    froms
    (conj (locals @ link_preds @ corr_preds))
    (threshold_str c.Classify.chain_threshold)
