(** Shared helpers for the test suites. *)

open Frepro
open Relational

let degree = Alcotest.testable Fuzzy.Degree.pp (fun a b -> Fuzzy.Degree.equal a b)

let check_degree msg expected actual = Alcotest.check degree msg expected actual

let interval =
  Alcotest.testable Fuzzy.Interval.pp (fun a b -> Fuzzy.Interval.equal a b)

let value = Alcotest.testable Value.pp Value.equal

(* Answers as sorted (values, degree) lists, compared up to 1e-9 on
   degrees — the equivalence notion of the paper's theorems. *)
let answer_of_relation rel =
  Relation.to_list rel
  |> List.map (fun t -> (t.Ftuple.values, Ftuple.degree t))
  |> List.sort (fun (v1, _) (v2, _) ->
         let c = Int.compare (Array.length v1) (Array.length v2) in
         if c <> 0 then c
         else
           let rec go i =
             if i >= Array.length v1 then 0
             else
               match Value.compare_structural v1.(i) v2.(i) with
               | 0 -> go (i + 1)
               | c -> c
           in
           go 0)

let answers_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (v1, d1) (v2, d2) ->
         Array.length v1 = Array.length v2
         && Array.for_all2 Value.equal v1 v2
         && Fuzzy.Degree.equal d1 d2)
       a b

let pp_answer ppf ans =
  List.iter
    (fun (vs, d) ->
      Format.fprintf ppf "(%s | %.6f)@ "
        (String.concat ", " (Array.to_list (Array.map Value.to_string vs)))
        d)
    ans

let check_same_answer msg rel1 rel2 =
  let a1 = answer_of_relation rel1 and a2 = answer_of_relation rel2 in
  if not (answers_equal a1 a2) then
    Alcotest.failf "%s:@.left:@ %a@.right:@ %a" msg pp_answer a1 pp_answer a2

(* Exact answers: printed values plus raw degree bits, as a sorted multiset
   (engines may emit tie rows in different orders after their sorts). *)
let answer_bits rel =
  Relation.to_list rel
  |> List.map (fun t ->
         ( Array.to_list (Array.map Value.to_string t.Ftuple.values),
           Int64.bits_of_float (Ftuple.degree t) ))
  |> List.sort compare

let pp_bits ppf ans =
  List.iter
    (fun (vs, d) ->
      Format.fprintf ppf "(%s | %Lx)@ " (String.concat ", " vs) d)
    ans

let fresh_env ?(pool_pages = 256) () = Storage.Env.create ~pool_pages ()

let tuple vs d = Ftuple.make (Array.of_list vs) d

let term name =
  match Fuzzy.Term.lookup Fuzzy.Term.paper name with
  | Some p -> Value.Fuzzy p
  | None -> Alcotest.failf "unknown paper term %s" name

(* The dating-service database of Example 4.1. *)
let paper_db env =
  let catalog = Catalog.create env in
  let person_schema name =
    Schema.make ~name
      [
        ("ID", Schema.TNum); ("NAME", Schema.TStr); ("AGE", Schema.TNum);
        ("INCOME", Schema.TNum);
      ]
  in
  let f =
    Relation.of_list env (person_schema "F")
      [
        tuple [ Value.Int 101; Value.Str "Ann"; term "about 35"; term "about 60K" ] 1.0;
        tuple [ Value.Int 102; Value.Str "Ann"; term "medium young"; term "medium high" ] 1.0;
        tuple [ Value.Int 103; Value.Str "Betty"; term "middle age"; term "high" ] 1.0;
        tuple [ Value.Int 104; Value.Str "Cathy"; term "about 50"; term "low" ] 1.0;
      ]
  in
  let m =
    Relation.of_list env (person_schema "M")
      [
        tuple [ Value.Int 201; Value.Str "Allen"; Value.crisp_num 24.0; term "about 25K" ] 1.0;
        tuple [ Value.Int 202; Value.Str "Allen"; term "about 50"; term "about 40K" ] 1.0;
        tuple [ Value.Int 203; Value.Str "Bill"; term "middle age"; term "high" ] 1.0;
        tuple [ Value.Int 204; Value.Str "Carl"; term "about 29"; term "medium low" ] 1.0;
      ]
  in
  Catalog.add catalog f;
  Catalog.add catalog m;
  catalog

let bind_paper_query env sql =
  Fuzzysql.Analyzer.bind_string ~catalog:(paper_db env) ~terms:Fuzzy.Term.paper sql

let run_all_strategies q =
  ( Unnest.Naive_eval.query q,
    Unnest.Planner.run ~strategy:Unnest.Planner.Nested_loop q,
    Unnest.Planner.run ~strategy:Unnest.Planner.Auto q )
