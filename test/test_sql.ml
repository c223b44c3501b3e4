(** Tests of the Fuzzy SQL front-end: lexer, parser, pretty-printer
    round-trips, analyzer binding and errors, and the plan chosen for the
    paper's example queries. *)

open Frepro
open Fuzzysql

let tc = Alcotest.test_case

(* ---------- parser ---------- *)

let parses sql = ignore (Parser.parse sql)

let parser_tests =
  [
    tc "paper Query 1 (flat, two relations)" `Quick (fun () ->
        parses
          "SELECT F.NAME, M.NAME FROM F, M WHERE F.AGE = M.AGE AND M.INCOME > \
           'medium high'");
    tc "paper Query 2 (nested IN)" `Quick (fun () ->
        let q =
          Parser.parse
            "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME \
             IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')"
        in
        Alcotest.(check int) "two where preds" 2 (List.length q.Ast.where));
    tc "IS IN / IS NOT IN spellings" `Quick (fun () ->
        parses "SELECT R.X FROM R WHERE R.Y is in (SELECT S.Z FROM S)";
        parses "SELECT R.X FROM R WHERE R.Y is not in (SELECT S.Z FROM S)");
    tc "quantifiers, EXISTS, scalar subquery" `Quick (fun () ->
        parses "SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U)";
        parses "SELECT R.X FROM R WHERE R.Y >= SOME (SELECT S.Z FROM S)";
        parses "SELECT R.X FROM R WHERE EXISTS (SELECT S.Z FROM S WHERE S.V = R.U)";
        parses "SELECT R.X FROM R WHERE NOT EXISTS (SELECT S.Z FROM S)";
        parses
          "SELECT R.NAME FROM CITIES_REGION_A R WHERE R.AVE_HOME_INCOME > \
           (SELECT MAX(S.AVE_HOME_INCOME) FROM CITIES_REGION_B S WHERE \
           S.POPULATION = R.POPULATION)");
    tc "WITH, GROUPBY, HAVING, DISTINCT, aliases" `Quick (fun () ->
        let q =
          Parser.parse
            "SELECT DISTINCT R.X, COUNT(R.Y) FROM Rel R GROUP BY R.X HAVING \
             COUNT(R.Y) > 2 WITH D >= 0.5"
        in
        Alcotest.(check bool) "distinct" true q.Ast.distinct;
        Alcotest.(check int) "groupby" 1 (List.length q.Ast.group_by);
        Alcotest.(check int) "having" 1 (List.length q.Ast.having);
        (match q.Ast.with_d with
        | Some { Ast.strict = false; value } ->
            Alcotest.(check (float 0.)) "threshold" 0.5 value
        | _ -> Alcotest.fail "WITH clause");
        parses "SELECT R.X FROM Rel R GROUPBY R.X WITH D > 0");
    tc "fuzzy literals" `Quick (fun () ->
        parses "SELECT R.X FROM R WHERE R.Y = TRAP(1, 2, 3, 4)";
        parses "SELECT R.X FROM R WHERE R.Y = TRI(1, 2, 3)";
        parses "SELECT R.X FROM R WHERE R.Y = ABOUT(35)";
        parses "SELECT R.X FROM R WHERE R.Y = ABOUT(35, 5)";
        parses "SELECT R.X FROM R WHERE R.Y = DIST(1:1, 2:0.8)");
    tc "operators" `Quick (fun () ->
        parses "SELECT R.X FROM R WHERE R.A = 1 AND R.B <> 2 AND R.C != 2 AND \
                R.D < 3 AND R.E <= 4 AND R.F > 5 AND R.G >= 6");
    tc "comments and case-insensitive keywords" `Quick (fun () ->
        parses "select r.x -- comment\nfrom R r where r.x = 1");
    tc "syntax errors are reported" `Quick (fun () ->
        let bad sql =
          try
            parses sql;
            Alcotest.failf "should not parse: %s" sql
          with Parser.Error _ | Lexer.Error _ -> ()
        in
        bad "SELECT FROM R";
        bad "SELECT R.X R.Y FROM R";
        bad "SELECT R.X FROM R WHERE";
        bad "SELECT R.X FROM R WITH D = 0.5";
        bad "SELECT R.X FROM R WHERE R.Y = 'unterminated";
        bad "SELECT R.X FROM R WHERE R.Y IN SELECT S.Z FROM S";
        bad "SELECT R.X FROM R trailing garbage");
  ]

let roundtrip_tests =
  [
    tc "pretty-print / parse round trip" `Quick (fun () ->
        List.iter
          (fun sql ->
            let q = Parser.parse sql in
            let printed = Pretty.query_to_string q in
            let q2 = Parser.parse printed in
            Alcotest.(check string) ("roundtrip: " ^ sql) printed
              (Pretty.query_to_string q2))
          [
            "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME \
             IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')";
            "SELECT R.X FROM R WHERE R.Y < ALL (SELECT S.Z FROM S WHERE S.V = R.U)";
            "SELECT R.X FROM R WHERE R.Y > (SELECT MAX(S.Z) FROM S WHERE S.V = R.U)";
            "SELECT R.X FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S) WITH D >= 0.25";
            "SELECT DISTINCT R.X, COUNT(R.Y) FROM Rel R GROUPBY R.X HAVING \
             COUNT(R.Y) > 2";
            "SELECT R.X FROM R WHERE R.Y = DIST(1:1, 2:0.8) AND R.Z = TRAP(0, 1, 2, 3)";
          ]);
  ]

(* ---------- analyzer ---------- *)

let bind env sql = Test_util.bind_paper_query env sql

let analyzer_tests =
  [
    tc "binds paper Query 2 with correct shapes" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q =
          bind env
            "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME \
             IN (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')"
        in
        Alcotest.(check int) "depth 2" 2 (Bound.depth q);
        Alcotest.(check int) "one FROM" 1 (List.length q.Bound.from));
    tc "terms resolve against numeric attributes only" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        (* NAME is a string attribute: 'medium young' stays a string. *)
        let q = bind env "SELECT F.NAME FROM F WHERE F.NAME = 'medium young'" in
        (match q.Bound.where with
        | [ Bound.Cmp (_, _, Bound.Lit (Relational.Value.Str _)) ] -> ()
        | _ -> Alcotest.fail "expected crisp string literal");
        (* AGE is numeric: 'medium young' must resolve to the term. *)
        let q2 = bind env "SELECT F.NAME FROM F WHERE F.AGE = 'medium young'" in
        match q2.Bound.where with
        | [ Bound.Cmp (_, _, Bound.Lit (Relational.Value.Fuzzy _)) ] -> ()
        | _ -> Alcotest.fail "expected fuzzy term");
    tc "correlation references get up = 1" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q =
          bind env
            "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M \
             WHERE M.AGE = F.AGE)"
        in
        match q.Bound.where with
        | [ Bound.In (_, sub) ] -> (
            match sub.Bound.where with
            | [ Bound.Cmp (Bound.Ref a, _, Bound.Ref b) ] ->
                Alcotest.(check int) "local up" 0 a.Bound.up;
                Alcotest.(check int) "outer up" 1 b.Bound.up
            | _ -> Alcotest.fail "expected one correlation predicate")
        | _ -> Alcotest.fail "expected IN");
    tc "analyzer errors" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let bad sql =
          try
            ignore (bind env sql);
            Alcotest.failf "should not bind: %s" sql
          with Analyzer.Error _ -> ()
        in
        bad "SELECT F.NAME FROM NOSUCH";
        bad "SELECT F.NOPE FROM F";
        bad "SELECT F.NAME FROM F WHERE F.AGE = 'no such term'";
        bad "SELECT F.NAME FROM F WHERE F.AGE IN (SELECT M.AGE, M.INCOME FROM M)";
        bad "SELECT F.NAME FROM F WHERE F.AGE > (SELECT M.AGE FROM M)";
        bad "SELECT F.NAME FROM F, M WHERE NAME = 'x'" (* ambiguous *);
        bad "SELECT F.NAME FROM F WITH D >= 1.5";
        bad "SELECT COUNT(ID) FROM F HAVING AGE > 3" (* non-agg having *));
    tc "alias shadows relation name" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let q = bind env "SELECT G.NAME FROM F G WHERE G.AGE = 30" in
        Alcotest.(check int) "bound" 1 (List.length q.Bound.from));
  ]

(* ---------- planning ---------- *)

(* One row per query: its shape, the rule that fired, and every decline
   met on the way (below a flatten too). *)
let plan_rows =
  [
    ("SELECT F.NAME, F.AGE FROM F WHERE F.AGE = 'medium young'", "flat",
     "flat", []);
    ( "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
       (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')",
      "type N", "N/J", [] );
    ( "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M \
       WHERE M.AGE = F.AGE)",
      "type J", "N/J", [] );
    (* Query 4 of the paper *)
    ( "SELECT F.NAME FROM F WHERE F.INCOME NOT IN (SELECT M.INCOME FROM M \
       WHERE M.AGE = F.AGE)",
      "type JX", "JX", [] );
    (* Query 5 of the paper *)
    ( "SELECT F.NAME FROM F WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M \
       WHERE M.AGE = F.AGE)",
      "type JA", "JA/COUNT", [] );
    ( "SELECT F.NAME FROM F WHERE F.INCOME < ALL (SELECT M.INCOME FROM M \
       WHERE M.AGE = F.AGE)",
      "type JALL", "JALL/JSOME", [] );
    ( "SELECT F.NAME FROM F WHERE F.INCOME > SOME (SELECT M.INCOME FROM M \
       WHERE M.AGE = F.AGE)",
      "type JSOME", "JALL/JSOME", [] );
    (* Query 6 of the paper: a 3-block chain. *)
    ( "SELECT F.ID FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
       (SELECT M.INCOME FROM M WHERE M.AGE = F.AGE AND M.ID IN (SELECT G.ID \
       FROM F G WHERE G.AGE = M.AGE AND G.INCOME = F.INCOME))",
      "chain of 3 blocks", "chain",
      [ "N/J declined: the subquery is itself nested" ] );
    (* Two subqueries: not unnestable by the paper's rewrites. *)
    ( "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M) AND \
       F.AGE IN (SELECT M.AGE FROM M)",
      "general nested", "naive",
      [ "N/J declined: two subquery predicates in one WHERE" ] );
    (* EXISTS / NOT EXISTS: fuzzy semi / anti joins. *)
    ( "SELECT F.NAME FROM F WHERE EXISTS (SELECT M.ID FROM M WHERE M.AGE = \
       F.AGE)",
      "type JEXISTS", "EXISTS", [] );
    ( "SELECT F.NAME FROM F WHERE NOT EXISTS (SELECT M.ID FROM M WHERE \
       M.AGE = F.AGE)",
      "type JNOTEXISTS", "EXISTS", [] );
    (* ... but EXISTS over a two-relation inner block stays general. *)
    ( "SELECT F.NAME FROM F WHERE EXISTS (SELECT M.ID FROM M, F G WHERE \
       M.AGE = F.AGE)",
      "general nested", "naive",
      [ "EXISTS declined: the subquery reads several relations" ] );
    (* A multi-relation outer block is re-planned over its FROM product. *)
    ( "SELECT F.NAME, M.NAME FROM F, M WHERE F.AGE = M.AGE AND F.INCOME IN \
       (SELECT G.INCOME FROM M G WHERE G.AGE = M.AGE)",
      "type J over the flattened outer FROM (F, M)", "flatten-outer",
      [ "N/J declined: the outer block reads several relations" ] );
    (* Order-only correlation: no equality to sweep on. *)
    ( "SELECT F.NAME FROM F WHERE F.INCOME < ALL (SELECT M.INCOME FROM M \
       WHERE M.AGE <= F.AGE)",
      "type JALL", "nested-loop",
      [
        "JALL/JSOME declined: quantified subquery without an equality \
         correlation predicate";
      ] );
    ( "SELECT F.NAME FROM F WHERE F.INCOME > (SELECT MAX(M.INCOME) FROM M \
       WHERE M.AGE <= F.AGE)",
      "type JA", "nested-loop",
      [
        "JA/COUNT declined: aggregate subquery without an equality \
         correlation predicate";
      ] );
    ( "SELECT F.NAME FROM F WHERE EXISTS (SELECT M.ID FROM M WHERE M.AGE <= \
       F.AGE)",
      "type JEXISTS", "nested-loop",
      [
        "EXISTS declined: EXISTS subquery without an equality correlation \
         predicate";
      ] );
    (* An uncorrelated inner block: no unnesting is needed (Section 6). *)
    ( "SELECT F.NAME FROM F WHERE F.INCOME >= ALL (SELECT M.INCOME FROM M \
       WHERE M.AGE = 'middle age')",
      "type JALL", "constant-inner", [] );
  ]

(* The rule whose executor runs: below a flatten, the re-planned one. *)
let rec executed = function
  | Unnest.Classify.Flattened f -> executed f.Unnest.Classify.inner
  | p -> Unnest.Classify.rule_of p

let method_prefix = function
  | "flat" -> "method: direct evaluation"
  | "constant-inner" -> "method: constant inner block"
  | "chain" -> "method: unnest to a K-way flat join"
  | "flatten-outer" -> "method: materialise the outer FROM product"
  | "nested-loop" -> "method: blocked nested loop"
  | "naive" -> "method: naive interpreter"
  | _ -> "method: unnest + extended merge-join"

(* A span every Auto run of the executed rule records. *)
let signature_span = function
  | "flat" | "naive" -> "naive-bindings"
  | "constant-inner" -> "constant-inner"
  | "nested-loop" -> "nested-loop"
  | _ -> "sweep"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let plan_tests =
  [
    tc "paper query shapes classify as in the taxonomy" `Quick (fun () ->
        List.iter
          (fun (sql, shape, rule, declines) ->
            let env = Test_util.fresh_env () in
            let q = bind env sql in
            let plan, top = Unnest.Classify.plan q in
            Alcotest.(check string) (sql ^ ": shape") shape
              (Unnest.Classify.to_string plan);
            Alcotest.(check string) (sql ^ ": rule") rule
              (Unnest.Classify.rule_of plan);
            let below =
              match plan with
              | Unnest.Classify.Flattened f -> f.Unnest.Classify.inner_declines
              | _ -> []
            in
            Alcotest.(check (list string)) (sql ^ ": declines") declines
              (List.map Unnest.Classify.decline_to_string (top @ below));
            let method_line =
              List.find
                (starts_with ~prefix:"method: ")
                (String.split_on_char '\n' (Unnest.Explain.explain q))
            in
            Alcotest.(check bool)
              (sql ^ ": EXPLAIN says " ^ method_line)
              true
              (starts_with ~prefix:(method_prefix rule) method_line);
            let runs = executed plan in
            let fsql033 =
              List.exists
                (fun d -> d.Diagnostic.code = "FSQL033")
                (snd
                   (Check.check_string
                      ~classify:Unnest.Classify.unnest_warning
                      (Check.ctx ~catalog:(Test_util.paper_db env)
                         ~terms:Fuzzy.Term.paper)
                      sql))
            in
            Alcotest.(check bool) (sql ^ ": FSQL033") 
              (runs = "nested-loop" || runs = "naive")
              fsql033;
            let trace = Storage.Trace.create () in
            Relational.Relation.destroy (Unnest.Planner.run ~trace q);
            let spans = ref [] in
            Storage.Trace.iter_spans trace (fun sp ->
                spans := Storage.Trace.span_name sp :: !spans);
            Alcotest.(check bool)
              (Printf.sprintf "%s: Auto records %s among [%s]" sql
                 (signature_span runs) (String.concat "; " !spans))
              true
              (List.mem (signature_span runs) !spans);
            if runs = "nested-loop" then
              Alcotest.(check bool) (sql ^ ": no discarded reductions") false
                (List.exists (starts_with ~prefix:"reduce") !spans))
          plan_rows);
    tc "planning is pure: no page access, no fuzzy op, no page" `Quick
      (fun () ->
        let env = Test_util.fresh_env () in
        let stats = env.Storage.Env.stats in
        let qs = List.map (fun (sql, _, _, _) -> bind env sql) plan_rows in
        Storage.Env.flush env;
        let counters () =
          let hits, misses = Storage.Buffer_pool.counters env.Storage.Env.pool in
          ( Storage.Iostats.
              [ page_reads stats; page_writes stats; fuzzy_ops stats;
                comparisons stats; hits; misses ],
            Storage.Disk.live_pages env.Storage.Env.disk )
        in
        let before = counters () in
        List.iter (fun q -> ignore (Unnest.Classify.plan q)) qs;
        Alcotest.(check (pair (list int) int)) "unchanged" before (counters ()));
  ]

let suites =
  [
    ("sql.parser", parser_tests);
    ("sql.roundtrip", roundtrip_tests);
    ("sql.analyzer", analyzer_tests);
    ("sql.classify", plan_tests);
  ]
