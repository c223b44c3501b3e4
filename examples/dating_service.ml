(** The paper's motivating scenario at a realistic size: a dating-service
    database with hundreds of fuzzy profiles, exercising all nested-query
    types (N, J, JX, JALL, JA) and comparing evaluation strategies.

    Run with: [dune exec examples/dating_service.exe] *)

open Frepro
open Frepro.Relational

let rng = Random.State.make [| 2024 |]

let age_terms = [ "young"; "medium young"; "about 29"; "middle age"; "about 50" ]
let income_terms =
  [ "low"; "medium low"; "about 25K"; "about 40K"; "about 60K"; "medium high"; "high" ]

let first_names =
  [| "Ann"; "Betty"; "Cathy"; "Dana"; "Eve"; "Fay"; "Gwen"; "Hana"; "Iris";
     "Jane"; "Allen"; "Bill"; "Carl"; "Dave"; "Ed"; "Fred"; "Glen"; "Hugo";
     "Ian"; "Jack" |]

let term name = Value.Fuzzy (Option.get (Fuzzy.Term.lookup Fuzzy.Term.paper name))

let pick l = List.nth l (Random.State.int rng (List.length l))

let random_age () =
  if Random.State.bool rng then Value.crisp_num (float_of_int (18 + Random.State.int rng 45))
  else term (pick age_terms)

let random_income () =
  if Random.State.bool rng then
    Value.crisp_num (float_of_int (15 + Random.State.int rng 120))
  else term (pick income_terms)

let person_schema name =
  Schema.make ~name
    [ ("ID", Schema.TNum); ("NAME", Schema.TStr); ("AGE", Schema.TNum);
      ("INCOME", Schema.TNum) ]

let make_people env name n id0 =
  Relation.of_list env (person_schema name)
    (List.init n (fun i ->
         Ftuple.make
           [| Value.Int (id0 + i);
              Value.Str first_names.(Random.State.int rng (Array.length first_names));
              random_age (); random_income () |]
           (* How well the profile fits the service's target group. *)
           (0.5 +. Random.State.float rng 0.5)))

let () =
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  Catalog.add catalog (make_people env "F" 300 1000);
  Catalog.add catalog (make_people env "M" 300 5000);
  let terms = Fuzzy.Term.paper in
  let run title sql =
    let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms sql in
    let shape = Unnest.Classify.to_string (fst (Unnest.Classify.plan q)) in
    let t0 = Unix.gettimeofday () in
    let answer = Unnest.Planner.run q in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "@.--- %s (%s, %.1f ms, %d answers) ---@.%s@." title shape
      (1000.0 *. dt)
      (Relation.cardinality answer) sql;
    (* show the strongest few answers *)
    let best =
      List.sort
        (fun a b -> Float.compare (Ftuple.degree b) (Ftuple.degree a))
        (Relation.to_list answer)
    in
    List.iteri
      (fun i t -> if i < 5 then Format.printf "  %a@." Ftuple.pp t)
      best
  in
  run "couples about the same age, he earns more than medium high (flat join)"
    "SELECT F.NAME, M.NAME FROM F, M WHERE F.AGE = M.AGE AND M.INCOME > \
     'medium high' WITH D >= 0.6";
  run "women with a middle-aged man's income (type N)"
    "SELECT F.NAME FROM F WHERE F.AGE = 'medium young' AND F.INCOME IN \
     (SELECT M.INCOME FROM M WHERE M.AGE = 'middle age')";
  run "women whose income matches some man of their age (type J)"
    "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M WHERE \
     M.AGE = F.AGE) WITH D >= 0.5";
  run "women whose income avoids every man of their age (type JX)"
    "SELECT F.NAME FROM F WHERE F.INCOME NOT IN (SELECT M.INCOME FROM M \
     WHERE M.AGE = F.AGE) WITH D >= 0.9";
  run "women out-earning all men of their age (type JALL)"
    "SELECT F.NAME FROM F WHERE F.INCOME > ALL (SELECT M.INCOME FROM M \
     WHERE M.AGE = F.AGE) WITH D >= 0.8";
  run "women above the average income of men their age (type JA)"
    "SELECT F.NAME FROM F WHERE F.INCOME > (SELECT AVG(M.INCOME) FROM M \
     WHERE M.AGE = F.AGE) WITH D >= 0.8";
  (* Strategy comparison on the type J query. *)
  let sql =
    "SELECT F.NAME FROM F WHERE F.INCOME IN (SELECT M.INCOME FROM M WHERE \
     M.AGE = F.AGE)"
  in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms sql in
  Format.printf "@.--- strategy comparison on the type J query ---@.";
  List.iter
    (fun strat ->
      let t0 = Unix.gettimeofday () in
      let answer = Unnest.Planner.run ~strategy:strat q in
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "  %-18s %8.1f ms  (%d answers)@."
        (Unnest.Planner.strategy_to_string strat)
        (1000.0 *. dt)
        (Relation.cardinality answer))
    [ Unnest.Planner.Naive; Unnest.Planner.Nested_loop; Unnest.Planner.Unnest_merge ]
