(** Quickstart: build a tiny fuzzy database, run the paper's nested Query 2,
    and watch the unnesting planner at work.

    Run with: [dune exec examples/quickstart.exe] *)

open Frepro
open Frepro.Relational

let () =
  (* 1. A storage environment: simulated 8 KB-page disk + 2 MB buffer pool. *)
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in

  (* 2. Two fuzzy relations. Attribute values may be crisp numbers, strings,
     or possibility distributions; every tuple carries a membership degree
     D in (0, 1]. *)
  let term name = Value.Fuzzy (Option.get (Fuzzy.Term.lookup Fuzzy.Term.paper name)) in
  let tuple vs d = Ftuple.make (Array.of_list vs) d in
  let person name =
    Schema.make ~name
      [ ("ID", Schema.TNum); ("NAME", Schema.TStr); ("AGE", Schema.TNum);
        ("INCOME", Schema.TNum) ]
  in
  let f =
    Relation.of_list env (person "F")
      [
        tuple [ Value.Int 101; Value.Str "Ann"; term "about 35"; term "about 60K" ] 1.0;
        tuple [ Value.Int 102; Value.Str "Ann"; term "medium young"; term "medium high" ] 1.0;
        tuple [ Value.Int 103; Value.Str "Betty"; term "middle age"; term "high" ] 1.0;
        tuple [ Value.Int 104; Value.Str "Cathy"; term "about 50"; term "low" ] 1.0;
      ]
  in
  let m =
    Relation.of_list env (person "M")
      [
        tuple [ Value.Int 201; Value.Str "Allen"; Value.crisp_num 24.0; term "about 25K" ] 1.0;
        tuple [ Value.Int 202; Value.Str "Allen"; term "about 50"; term "about 40K" ] 1.0;
        tuple [ Value.Int 203; Value.Str "Bill"; term "middle age"; term "high" ] 1.0;
        tuple [ Value.Int 204; Value.Str "Carl"; term "about 29"; term "medium low" ] 1.0;
      ]
  in
  Catalog.add catalog f;
  Catalog.add catalog m;

  (* 3. A nested Fuzzy SQL query (the paper's Query 2): medium young women
     with a middle-aged man's income. *)
  let sql =
    "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
     (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')"
  in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in

  (* 4. The classifier recognises the nesting type; the planner unnests it
     and evaluates the flat equivalent with the extended merge-join. *)
  Format.printf "query shape : %s@."
    (Unnest.Classify.to_string (fst (Unnest.Classify.plan q)));
  let answer = Unnest.Planner.run q in
  Format.printf "answer      : %a@." Relation.pp answer;

  (* 5. The same answer comes out of the naive nested evaluation — that is
     Theorem 4.1 — just slower on anything bigger than this demo. *)
  let naive = Unnest.Planner.run ~strategy:Unnest.Planner.Naive q in
  Format.printf "naive check : %a@." Relation.pp naive
