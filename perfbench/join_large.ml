(* join-large: the paper's type J query ([Harness.bench_sql]) through
   [Unnest.Planner.run] at its defaults (one domain, default engine), one
   caller in a closed loop, over Section 9's 8 MB cell at the default 1/4
   scale: 16,384 tuples of 128 B per side, fan-out 7, against a 64-page
   (512 KB) buffer pool, so each relation is 4x the pool and every query
   sorts externally. Each repetition's answer checksum must equal the one
   the nested-loop strategy computes, outside the timed window. *)

open Frepro

let run ~seed ~seconds ~traced ~corrupt ~tiny =
  let cfg = { Harness.default_config with Harness.seed } in
  let pages = Harness.mem_pages cfg in
  let spec = Harness.spec_of ~paper_mb:8 ~tuple_bytes:128 ~fanout:7.0 cfg in
  let spec = if tiny then { spec with n = 512; groups = 73 } else spec in
  Util.note "join-large: %d tuples x %d B per side, fan-out 7, pool %d pages"
    spec.n spec.tuple_bytes pages;
  let setup_s, (env, catalog) =
    Util.setups
      ~setup:(fun () ->
        let env = Storage.Env.create ~pool_pages:pages () in
        let r, s = Workload.Gen.join_pair env ~seed ~outer:spec ~inner:spec in
        let catalog = Relational.Catalog.create env in
        Relational.Catalog.add catalog r;
        Relational.Catalog.add catalog s;
        (env, catalog))
      ~teardown:(fun _ -> Gc.full_major ())
  in
  let q =
    Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
      Harness.bench_sql
  in
  let stats = env.Storage.Env.stats in
  let lats = ref [] and checksums = ref [] in
  let sort_s = ref [] and sweep_s = ref [] in
  let counts = ref (0, 0, 0, 0) in
  let rss = Util.rss_probe 40 in
  let gc0 = Gc.quick_stat () in
  let start = Util.now () in
  let stop_at = start +. seconds in
  let i = ref 0 in
  while Util.now () < stop_at do
    let on = traced && !i mod 2 = 1 in
    incr i;
    (* Every repetition starts from a cold pool with zeroed counters. *)
    Storage.Env.reset_stats env;
    let op = Spans.fresh_op () in
    let t0 = Util.now () in
    let answer =
      Spans.timed ~on ~op ~layer:"bench" "op" (fun root ->
          Spans.timed ~on ~parent:root ~op ~layer:"unnest" "Planner.run"
            (fun run ->
              let answer = Unnest.Planner.run ~mem_pages:pages q in
              if on then begin
                (* The engine's own phase timers split the call. *)
                let sort = Storage.Iostats.phase_seconds stats Storage.Iostats.Sort in
                let merge = Storage.Iostats.phase_seconds stats Storage.Iostats.Merge in
                ignore
                  (Spans.add ~parent:run ~synth:true ~op ~layer:"storage"
                     "External_sort" ~start_s:t0 ~end_s:(t0 +. sort));
                ignore
                  (Spans.add ~parent:run ~synth:true ~op ~layer:"relational"
                     "Join_merge" ~start_s:(t0 +. sort)
                     ~end_s:(t0 +. sort +. merge));
                sort_s := sort :: !sort_s;
                sweep_s := merge :: !sweep_s
              end;
              answer))
    in
    let t1 = Util.now () in
    lats := (1000.0 *. (t1 -. t0), on) :: !lats;
    counts :=
      Storage.Iostats.
        (page_reads stats, page_writes stats, comparisons stats, fuzzy_ops stats);
    checksums := Harness.answer_checksum answer :: !checksums;
    Relational.Relation.destroy answer;
    Util.rss_tick rss ~ops:!i
  done;
  let wall = Util.now () -. start in
  let gc1 = Gc.quick_stat () in
  let rss = Util.rss_value rss in
  (* The reference: the nested-loop method on the same bound query. *)
  let t_ref = Util.now () in
  let reference =
    let answer =
      Unnest.Planner.run ~strategy:Unnest.Planner.Nested_loop ~mem_pages:pages q
    in
    let c = Harness.answer_checksum answer in
    Relational.Relation.destroy answer;
    if corrupt then "corrupted-" ^ c else c
  in
  Util.note "join-large: nested-loop reference %s in %.1f s" reference
    (Util.now () -. t_ref);
  let attempted = List.length !checksums in
  let failed = List.length (List.filter (( <> ) reference) !checksums) in
  let ok_lats =
    List.concat
      (List.map2
         (fun (l, _) c -> if c = reference then [ l ] else [])
         !lats !checksums)
  in
  let end_to_end =
    Util.end_to_end ~attempted ~failed ~wall ~lats:ok_lats ~setup_s ~rss
  in
  let per_layer =
    if not traced then []
    else begin
      let n = List.length !sort_s in
      let reads, writes, compares, fuzzy = !counts in
      let binds, checks, _ =
        Probe.run ~exec:false ~catalog ~reps:50 Harness.bench_sql
      in
      [
        Util.metric ~n "storage.sort_s" "s" (Util.median !sort_s);
        Util.metric ~n "relational.sweep_s" "s" (Util.median !sweep_s);
        Util.metric "storage.page_reads" "count" (float_of_int reads);
        Util.metric "storage.page_writes" "count" (float_of_int writes);
        Util.metric "relational.comparisons" "count" (float_of_int compares);
        Util.metric "fuzzy.ops" "count" (float_of_int fuzzy);
        Util.metric ~n:50 "fuzzysql.bind_ms" "ms" (Util.median binds);
        Util.metric ~n:50 "fuzzysql.check_ms" "ms" (Util.median checks);
      ]
      @ Util.gc_per_op ~ops:(float_of_int attempted) gc0 gc1
      @ Util.overhead !lats
      @ Spans.layer_metrics ~root:"op"
    end
  in
  { Util.attempted; failed; end_to_end; per_layer }
