(** Fixtures straight from the paper: Example 4.1's intermediate and final
    tables, the running example queries (Queries 1-5), and the Appendix
    discussion of discrete distributions. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

let q2_sql =
  "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN (SELECT \
   M.INCOME FROM M WHERE M.AGE = 'middle age')"

let example_4_1_T =
  tc "temporary relation T = {about 40K: 0.4, high: 1}" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let catalog = Test_util.paper_db env in
      let q =
        Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
          "SELECT M.INCOME FROM M WHERE M.AGE = 'middle age'"
      in
      let t = Unnest.Naive_eval.query q in
      let ans = Test_util.answer_of_relation t in
      Alcotest.(check int) "two tuples" 2 (List.length ans);
      List.iter
        (fun (vs, d) ->
          if Value.equal vs.(0) (Test_util.term "about 40K") then
            Test_util.check_degree "about 40K" 0.4 d
          else if Value.equal vs.(0) (Test_util.term "high") then
            Test_util.check_degree "high" 1.0 d
          else Alcotest.failf "unexpected value %s" (Value.to_string vs.(0)))
        ans)

let example_4_1_answer =
  tc "answer = {Ann: 0.7, Betty: 0.7} under every strategy" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let catalog = Test_util.paper_db env in
      let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper q2_sql in
      let naive, nl, merged = Test_util.run_all_strategies q in
      List.iter
        (fun (label, rel) ->
          let ans = Test_util.answer_of_relation rel in
          Alcotest.(check int) (label ^ ": two rows") 2 (List.length ans);
          List.iter
            (fun (vs, d) ->
              match vs.(0) with
              | Value.Str ("Ann" | "Betty") ->
                  Test_util.check_degree (label ^ " degree") 0.7 d
              | v -> Alcotest.failf "unexpected name %s" (Value.to_string v))
            ans)
        [ ("naive", naive); ("nested-loop", nl); ("merge", merged) ])

let example_4_1_with_clause =
  tc "WITH D > 0.7 empties Example 4.1's answer; WITH D >= 0.7 keeps it" `Quick
    (fun () ->
      let env = Test_util.fresh_env () in
      let catalog = Test_util.paper_db env in
      let run sql =
        Unnest.Planner.run
          (Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql)
      in
      Alcotest.(check int) "strict above" 0
        (Relation.cardinality (run (q2_sql ^ " WITH D > 0.75")));
      Alcotest.(check int) "non-strict below" 2
        (Relation.cardinality (run (q2_sql ^ " WITH D >= 0.65")));
      Alcotest.(check int) "cut between the 0.3 and 0.7 candidates" 2
        (Relation.cardinality (run (q2_sql ^ " WITH D >= 0.5"))))

let query_1_flat =
  tc "Query 1: flat fuzzy join on AGE with income filter" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let catalog = Test_util.paper_db env in
      let q =
        Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
          "SELECT F.NAME, M.NAME FROM F, M WHERE F.AGE = M.AGE AND M.INCOME > \
           'medium high'"
      in
      Alcotest.(check string) "flat" "flat"
        (Unnest.Classify.to_string (fst (Unnest.Classify.plan q)));
      let ans = Test_util.answer_of_relation (Unnest.Naive_eval.query q) in
      Alcotest.(check bool) "nonempty" true (List.length ans > 0);
      List.iter
        (fun (_, d) -> Alcotest.(check bool) "degree in (0,1]" true (d > 0.0 && d <= 1.0))
        ans;
      let degree_of f m =
        List.find_map
          (fun (vs, d) ->
            match (vs.(0), vs.(1)) with
            | Value.Str f', Value.Str m' when f' = f && m' = m -> Some d
            | _ -> None)
          ans
      in
      (* Betty is "middle age" like Bill, whose income "high" certainly
         exceeds "medium high": possibility 1. *)
      (match degree_of "Betty" "Bill" with
      | Some d -> Test_util.check_degree "(Betty, Bill)" 1.0 d
      | None -> Alcotest.fail "missing (Betty, Bill)");
      (* Cathy ("about 50") matches Allen(202) on age, but "about 40K" cannot
         exceed "medium high" (disjoint supports): pair excluded. *)
      Alcotest.(check bool) "no (Cathy, Allen)" true
        (degree_of "Cathy" "Allen" = None))

let query_4_antijoin =
  tc "Query 4 shape: employees whose income avoids the other dept" `Quick
    (fun () ->
      let env = Test_util.fresh_env () in
      let catalog = Test_util.paper_db env in
      let sql =
        "SELECT F.NAME FROM F WHERE F.INCOME NOT IN (SELECT M.INCOME FROM M \
         WHERE M.AGE = F.AGE)"
      in
      let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
      let naive, nl, merged = Test_util.run_all_strategies q in
      Test_util.check_same_answer "naive vs nl" naive nl;
      Test_util.check_same_answer "naive vs merge" naive merged)

let query_5_aggregate =
  tc "Query 5 shape: income above MAX of matching group" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let catalog = Test_util.paper_db env in
      let sql =
        "SELECT F.NAME FROM F WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M \
         WHERE M.AGE = F.AGE)"
      in
      let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
      let naive, nl, merged = Test_util.run_all_strategies q in
      Test_util.check_same_answer "naive vs nl" naive nl;
      Test_util.check_same_answer "naive vs merge" naive merged)

let appendix_example =
  tc "Appendix: discrete join yields x1/1 and x2/0.8" `Quick (fun () ->
      (* R = {(x1,y1), (x2,y2)}, S.Y = 1/y1 + 0.8/y2; both x1 and x2 are
         possible answers with possibilities 1 and 0.8. *)
      let env = Test_util.fresh_env () in
      let catalog = Catalog.create env in
      let r_schema =
        Schema.make ~name:"R" [ ("X", Schema.TStr); ("Y", Schema.TNum) ]
      in
      let s_schema = Schema.make ~name:"S" [ ("Y", Schema.TNum); ("Z", Schema.TStr) ] in
      let r =
        Relation.of_list env r_schema
          [
            Test_util.tuple [ Value.Str "x1"; Value.crisp_num 1.0 ] 1.0;
            Test_util.tuple [ Value.Str "x2"; Value.crisp_num 2.0 ] 1.0;
          ]
      in
      let s =
        Relation.of_list env s_schema
          [
            Test_util.tuple
              [ Value.Fuzzy (Fuzzy.Possibility.discrete [ (1.0, 1.0); (2.0, 0.8) ]);
                Value.Str "z1" ]
              1.0;
          ]
      in
      Catalog.add catalog r;
      Catalog.add catalog s;
      let q =
        Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
          "SELECT R.X FROM R, S WHERE R.Y = S.Y"
      in
      let ans = Test_util.answer_of_relation (Unnest.Naive_eval.query q) in
      Alcotest.(check int) "two possible answers" 2 (List.length ans);
      List.iter
        (fun (vs, d) ->
          match vs.(0) with
          | Value.Str "x1" -> Test_util.check_degree "x1" 1.0 d
          | Value.Str "x2" -> Test_util.check_degree "x2" 0.8 d
          | v -> Alcotest.failf "unexpected %s" (Value.to_string v))
        ans)

let jall_paper_semantics =
  tc "d(v <= ALL F) formula on a hand case" `Quick (fun () ->
      (* F = {10: 1, 20: 0.5}; v = 15 crisp.
         d(15 <= ALL F) = 1 - max(min(1, 1 - d(15<=10)), min(0.5, 1 - d(15<=20)))
                       = 1 - max(min(1,1), min(0.5,0)) = 0. *)
      let env = Test_util.fresh_env () in
      let catalog = Catalog.create env in
      let r_schema = Schema.make ~name:"R" [ ("ID", Schema.TNum); ("Y", Schema.TNum) ] in
      let s_schema = Schema.make ~name:"S" [ ("Z", Schema.TNum) ] in
      Catalog.add catalog
        (Relation.of_list env r_schema
           [ Test_util.tuple [ Value.Int 1; Value.crisp_num 15.0 ] 1.0 ]);
      Catalog.add catalog
        (Relation.of_list env s_schema
           [
             Test_util.tuple [ Value.crisp_num 10.0 ] 1.0;
             Test_util.tuple [ Value.crisp_num 20.0 ] 0.5;
           ]);
      let run sql =
        Test_util.answer_of_relation
          (Unnest.Naive_eval.query
             (Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql))
      in
      (match run "SELECT R.ID FROM R WHERE R.Y <= ALL (SELECT S.Z FROM S)" with
      | [] -> ()
      | ans -> Alcotest.failf "expected empty, got %a" Test_util.pp_answer ans);
      match run "SELECT R.ID FROM R WHERE R.Y >= ALL (SELECT S.Z FROM S)" with
      | [ (_, d) ] -> Test_util.check_degree "1 - 0.5" 0.5 d
      | ans -> Alcotest.failf "expected one row, got %a" Test_util.pp_answer ans)

let suites =
  [
    ( "paper.examples",
      [
        example_4_1_T; example_4_1_answer; example_4_1_with_clause; query_1_flat;
        query_4_antijoin; query_5_aggregate; appendix_example;
        jall_paper_semantics;
      ] );
  ]
