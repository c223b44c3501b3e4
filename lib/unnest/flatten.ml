(** Multi-relation outer blocks.

    The paper's nested-query types have one relation per block. A query such
    as [SELECT R.X FROM R, S WHERE R.W <= S.W AND R.Y IN (SELECT ...)] is
    outside that class, but becomes unnestable after the outer block's FROM
    product (with its local predicates folded into tuple degrees) is
    materialised as a single relation and every attribute reference is
    remapped into the concatenated schema. The rewrite is pure, so
    {!Classify.plan}'s flatten-outer rule can re-plan the remapped query;
    the planner materialises the product only when it executes that plan,
    and destroys it afterwards. *)

open Relational
open Fuzzysql

(* Offsets of each FROM entry's attributes inside the concatenated tuples. *)
let offsets_of from =
  let rec go acc off = function
    | [] -> List.rev acc
    | (_, rel) :: rest ->
        go (off :: acc) (off + Schema.arity (Relation.schema rel)) rest
  in
  go [] 0 from

let remap_ref offsets (r : Bound.attr_ref) ~depth =
  (* References to the flattened block sit [depth] levels out from where the
     reference occurs; their from_idx collapses to 0 with a shifted
     attribute index. *)
  if r.Bound.up = depth then
    {
      r with
      Bound.from_idx = 0;
      attr_idx = List.nth offsets r.Bound.from_idx + r.Bound.attr_idx;
    }
  else r

let remap_operand offsets ~depth = function
  | Bound.Ref r -> Bound.Ref (remap_ref offsets r ~depth)
  | Bound.Lit _ as l -> l

let rec remap_pred offsets ~depth p =
  let op = remap_operand offsets ~depth
  and sub = remap_query offsets ~depth:(depth + 1) in
  match p with
  | Bound.Cmp (l, c, r) -> Bound.Cmp (op l, c, op r)
  | Bound.Cmp_sub (l, c, q) -> Bound.Cmp_sub (op l, c, sub q)
  | Bound.In (l, q) -> Bound.In (op l, sub q)
  | Bound.Not_in (l, q) -> Bound.Not_in (op l, sub q)
  | Bound.Quant (l, c, quant, q) -> Bound.Quant (op l, c, quant, sub q)
  | Bound.Exists q -> Bound.Exists (sub q)
  | Bound.Not_exists q -> Bound.Not_exists (sub q)

and remap_query offsets ~depth (q : Bound.query) =
  {
    q with
    Bound.select =
      List.map
        (function
          | Bound.Col r -> Bound.Col (remap_ref offsets r ~depth)
          | Bound.Agg (a, r) -> Bound.Agg (a, remap_ref offsets r ~depth))
        q.Bound.select;
    where = List.map (remap_pred offsets ~depth) q.Bound.where;
    group_by = List.map (fun r -> remap_ref offsets r ~depth) q.Bound.group_by;
  }

(** The product's schema: the FROM entries' attributes concatenated, named
    [flattened] (FROM holds two entries or more); [None] when two entries'
    qualified attribute names collide (duplicate aliases). *)
let product_schema = function
  | [] -> None
  | (_, first) :: rest -> (
      let concat s (_, rel) =
        Schema.concat ~name:"flattened" s (Relation.schema rel)
      in
      try Some (List.fold_left concat (Relation.schema first) rest)
      with Invalid_argument _ -> None)

(** [remap from q product]: [q], whose WHERE holds only its subquery
    predicate, rewritten over [product], a relation of [from]'s concatenated
    tuples: every reference to the outer block moves to FROM entry 0 at its
    shifted attribute position. Pure: [product] is only named in the
    result. *)
let remap from (q : Bound.query) product =
  { (remap_query (offsets_of from) ~depth:0 q) with
    Bound.from = [ ("flattened", product) ] }

(** Materialise the FROM product of [from] as one relation of [schema]
    (see {!product_schema}): every combination's degree is the min of its
    tuples' degrees and of the local predicates [locals]; combinations of
    degree 0 are not members. The caller destroys the result; a
    cancellation ([?cancel] is polled per tuple) or a storage fault frees
    the partial product before it escapes. *)
let materialise ?cancel from locals schema =
  let env = Relation.env (snd (List.hd from)) in
  let stats = env.Storage.Env.stats in
  let out = Relation.create env schema in
  let rec product frame_rev degree = function
    | [] ->
        let stack = [ Array.of_list (List.rev frame_rev) ] in
        let d =
          List.fold_left
            (fun acc p ->
              if Fuzzy.Degree.positive acc then
                match p with
                | Bound.Cmp (l, op, r) ->
                    Fuzzy.Degree.conj acc (Semantics.cmp_degree stats stack l op r)
                | _ -> invalid_arg "Flatten.materialise: predicate has a subquery"
              else acc)
            degree locals
        in
        if Fuzzy.Degree.positive d then
          Relation.insert out
            (Ftuple.make
               (Array.concat
                  (List.map (fun t -> t.Ftuple.values) (List.rev frame_rev)))
               d)
    | rel :: rest ->
        Relation.iter rel (fun tup ->
            Storage.Cancel.check cancel;
            let d = Fuzzy.Degree.conj degree (Ftuple.degree tup) in
            if Fuzzy.Degree.positive d then product (tup :: frame_rev) d rest)
  in
  (try product [] Fuzzy.Degree.one (List.map snd from)
   with e -> Relation.destroy out; raise e);
  out
