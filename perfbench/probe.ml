(* In-process probes of the front-end layers: [Analyzer.bind_string],
   [Check.check_string] and, when [exec], [Planner.run], each timed from
   the benchmark's own code. Every repetition is one "probe" op of the
   span file. Returns the per-rep times in ms. *)

open Frepro

let run ?(exec = true) ~catalog ~reps sql =
  let terms = Fuzzy.Term.paper in
  let ctx = Fuzzysql.Check.ctx ~catalog ~terms in
  let binds = ref [] and checks = ref [] and execs = ref [] in
  for _ = 1 to reps do
    let op = Spans.fresh_op () in
    Spans.timed ~on:true ~op ~layer:"bench" "probe" (fun root ->
        let time layer call samples f =
          let t0 = Util.now () in
          let v = Spans.timed ~on:true ~parent:root ~op ~layer call (fun _ -> f ()) in
          samples := (1000.0 *. (Util.now () -. t0)) :: !samples;
          v
        in
        let q =
          time "fuzzysql" "Analyzer.bind_string" binds (fun () ->
              Fuzzysql.Analyzer.bind_string ~catalog ~terms sql)
        in
        ignore
          (time "fuzzysql" "Check.check_string" checks (fun () ->
               Fuzzysql.Check.check_string ctx sql));
        if exec then
          Relational.Relation.destroy
            (time "unnest" "Planner.run" execs (fun () -> Unnest.Planner.run q)))
  done;
  (!binds, !checks, !execs)
