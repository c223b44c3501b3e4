(** The paper's Query 4: "the name of employees of the Sales department who
    do not have an income of any employee of the Research department with
    his/her age" — a type JX query (NOT IN with correlation), unnested via
    the grouped MIN(D) of Theorem 5.1.

    Run with: [dune exec examples/employee_antijoin.exe] *)

open Frepro
open Frepro.Relational

let emp_schema name =
  Schema.make ~name
    [ ("NAME", Schema.TStr); ("AGE", Schema.TNum); ("INCOME", Schema.TNum) ]

let term name = Value.Fuzzy (Option.get (Fuzzy.Term.lookup Fuzzy.Term.paper name))
let about v s = Value.Fuzzy (Fuzzy.Possibility.about v ~spread:s)

let emp name age income = Ftuple.make [| Value.Str name; age; income |] 1.0

let () =
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  Catalog.add catalog
    (Relation.of_list env (emp_schema "EMP_SALES")
       [
         emp "Smith" (about 28. 3.) (term "about 40K");
         emp "Jones" (term "middle age") (term "high");
         emp "Lopez" (about 52. 4.) (term "medium low");
         emp "Chen" (term "medium young") (term "about 60K");
       ]);
  Catalog.add catalog
    (Relation.of_list env (emp_schema "EMP_RESEARCH")
       [
         emp "Adams" (about 29. 3.) (term "about 40K");
         emp "Baker" (term "middle age") (term "medium high");
         emp "Costa" (about 50. 5.) (term "low");
       ]);
  let sql =
    "SELECT R.NAME FROM EMP_SALES R WHERE R.INCOME NOT IN (SELECT S.INCOME \
     FROM EMP_RESEARCH S WHERE S.AGE = R.AGE)"
  in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  Format.printf "Query 4 of the paper:@.%s@.@." sql;
  Format.printf "classified as: %s@.@."
    (Unnest.Classify.to_string (fst (Unnest.Classify.plan q)));
  Format.printf "unnested (merge-join over the antijoin group-min):@.%a@."
    Relation.pp
    (Unnest.Planner.run ~strategy:Unnest.Planner.Unnest_merge q);
  Format.printf "naive evaluation agrees (Theorem 5.1):@.%a@." Relation.pp
    (Unnest.Planner.run ~strategy:Unnest.Planner.Naive q);
  (* Smith's degree is low: Adams has about his age AND about his income.
     Jones avoids Baker's income band more strongly. Thresholding keeps the
     confident answers only. *)
  let strict =
    Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
      (sql ^ " WITH D >= 0.5")
  in
  Format.printf "with WITH D >= 0.5:@.%a@." Relation.pp (Unnest.Planner.run strict)
