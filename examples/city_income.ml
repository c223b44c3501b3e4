(** The paper's Query 5: "names of cities in region A, each of which has an
    average household-income greater than the maximum average
    household-income of cities in region B with similar population" — a type
    JA nested query whose unnesting pipelines T1 / T2 / JA' (Section 6).

    Census-style data is inherently imprecise: populations and mean incomes
    are published as ranges, which is exactly what trapezoidal possibility
    distributions model.

    Run with: [dune exec examples/city_income.exe] *)

open Frepro
open Frepro.Relational

let city_schema name =
  Schema.make ~name
    [ ("NAME", Schema.TStr); ("POPULATION", Schema.TNum);
      ("AVE_HOME_INCOME", Schema.TNum) ]

(* population in thousands, as "roughly p (+/- spread)" *)
let about v spread = Value.Fuzzy (Fuzzy.Possibility.about v ~spread)

let city name pop pop_spread income income_spread =
  Ftuple.make
    [| Value.Str name; about pop pop_spread; about income income_spread |]
    1.0

let () =
  let env = Storage.Env.create () in
  let catalog = Catalog.create env in
  Catalog.add catalog
    (Relation.of_list env (city_schema "CITIES_REGION_A")
       [
         city "Avalon" 120. 15. 58. 6.;
         city "Brookfield" 480. 40. 72. 8.;
         city "Carson" 95. 10. 41. 5.;
         city "Dunmore" 300. 25. 66. 7.;
         city "Eastvale" 210. 20. 49. 5.;
       ]);
  Catalog.add catalog
    (Relation.of_list env (city_schema "CITIES_REGION_B")
       [
         city "Fairport" 110. 12. 52. 6.;
         city "Glenn" 450. 35. 69. 7.;
         city "Harmony" 100. 10. 45. 4.;
         city "Ironton" 320. 30. 61. 6.;
         city "Jasper" 205. 18. 50. 5.;
         city "Kent" 90. 8. 39. 4.;
       ]);
  let sql =
    "SELECT R.NAME FROM CITIES_REGION_A R WHERE R.AVE_HOME_INCOME > (SELECT \
     MAX(S.AVE_HOME_INCOME) FROM CITIES_REGION_B S WHERE S.POPULATION = \
     R.POPULATION)"
  in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.empty sql in
  Format.printf "Query 5 of the paper:@.%s@.@." sql;
  Format.printf "classified as: %s@.@."
    (Unnest.Classify.to_string (fst (Unnest.Classify.plan q)));
  let answer = Unnest.Planner.run q in
  Format.printf "answer (possibility that the city out-earns every \
                 similarly-sized region-B city):@.%a@."
    Relation.pp answer;
  (* Compare against COUNT semantics: cities with at least two comparably
     sized region-B peers (COUNT over an empty group compares with 0 via the
     left outer join of Query COUNT'). *)
  let count_sql =
    "SELECT R.NAME FROM CITIES_REGION_A R WHERE 2 <= (SELECT \
     COUNT(S.AVE_HOME_INCOME) FROM CITIES_REGION_B S WHERE S.POPULATION = \
     R.POPULATION)"
  in
  let qc = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.empty count_sql in
  Format.printf "@.cities with >= 2 similarly-populated region-B peers:@.%a@."
    Relation.pp (Unnest.Planner.run qc)
