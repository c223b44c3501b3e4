(** Tests of the two fuzzy join algorithms of Section 3: the extended
    merge-join must produce exactly the block-nested-loop answer, with
    strictly better asymptotic I/O. *)

open Frepro
open Frepro.Relational

let tc = Alcotest.test_case

let join_schema name =
  Schema.make ~name [ ("ID", Schema.TNum); ("X", Schema.TNum) ]

let rel_of_values env name values =
  Relation.of_list env (join_schema name)
    (List.mapi
       (fun i (v, d) -> Test_util.tuple [ Value.Int i; Value.Fuzzy v ] d)
       values)

(* Random relations over a small numeric domain so supports overlap often. *)
let arb_join_input =
  let open QCheck.Gen in
  let value =
    map2
      (fun seed crisp ->
        let rng = Random.State.make [| seed |] in
        if crisp then Fuzzy.Possibility.crisp (Random.State.float rng 50.0)
        else
          Fuzzy.Possibility.trap
            (Workload.Gen.random_trapezoid rng ~lo:0.0 ~hi:50.0))
      int bool
  in
  let entry = pair value (map (fun d -> 0.2 +. (0.8 *. d)) (float_bound_inclusive 1.0)) in
  pair (list_size (int_range 0 30) entry) (list_size (int_range 0 30) entry)

let arb_join = QCheck.make arb_join_input

let materialised_join join_fn =
  QCheck.Test.make ~count:100 ~name:"merge-join = nested-loop join" arb_join
    (fun (rs, ss) ->
      let env = Test_util.fresh_env () in
      let r = rel_of_values env "R" rs and s = rel_of_values env "S" ss in
      let nl =
        Join_nested_loop.join ~outer:r ~inner:s ~mem_pages:8
          ~on:[ (1, Fuzzy.Fuzzy_compare.Eq, 1) ] ()
      in
      let mj = join_fn ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1 ~mem_pages:8 () in
      Test_util.answers_equal
        (Test_util.answer_of_relation (Algebra.dedup_max nl))
        (Test_util.answer_of_relation (Algebra.dedup_max mj)))

let prop_merge_equals_nl =
  materialised_join (fun ~outer ~inner ~outer_attr ~inner_attr ~mem_pages () ->
      Join_merge.join_eq ~outer ~inner ~outer_attr ~inner_attr ~mem_pages ())

let prop_indicator_equals_plain =
  QCheck.Test.make ~count:100 ~name:"equality-indicator variant is identical"
    arb_join (fun (rs, ss) ->
      let env = Test_util.fresh_env () in
      let r = rel_of_values env "R" rs and s = rel_of_values env "S" ss in
      let plain =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      let fast =
        Join_merge.with_indicator ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      Test_util.answers_equal
        (Test_util.answer_of_relation (Algebra.dedup_max plain))
        (Test_util.answer_of_relation (Algebra.dedup_max fast)))

let hand_case =
  tc "hand-checked fuzzy equi-join degrees" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let tr = Fuzzy.Trapezoid.make in
      let r =
        rel_of_values env "R"
          [
            (Fuzzy.Possibility.trap (tr 30. 30. 35. 35.), 1.0);
            (Fuzzy.Possibility.trap (tr 20. 20. 28. 28.), 1.0);
          ]
      in
      let s =
        rel_of_values env "S"
          [
            (Fuzzy.Possibility.trap (tr 32. 32. 34. 34.), 1.0);
            (Fuzzy.Possibility.crisp 25.0, 0.6);
            (Fuzzy.Possibility.trap (tr 30. 30. 40. 40.), 1.0);
          ]
      in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      (* r0 (core 30-35) joins s0 (core 32-34, deg 1), s2 (core 30-40, deg 1);
         r1 (core 20-28) joins s1 (25, deg 0.6). *)
      Alcotest.(check int) "three matches" 3 (Relation.cardinality out);
      List.iter
        (fun t -> Alcotest.(check bool) "full or 0.6" true
            (Fuzzy.Degree.equal (Ftuple.degree t) 1.0
            || Fuzzy.Degree.equal (Ftuple.degree t) 0.6))
        (Relation.to_list out))

let dangling_window_case =
  tc "dangling tuples are examined but never matched" `Quick (fun () ->
      (* The paper's example: s.X = [10, 35] sits in Rng(r) for r.X = [30, 40]
         via sort order, while s'.X in (10, 30) never joins r. *)
      let env = Test_util.fresh_env () in
      let tr a b = Fuzzy.Possibility.trap (Fuzzy.Trapezoid.make a a b b) in
      let r = rel_of_values env "R" [ (tr 30. 40., 1.0) ] in
      let s =
        rel_of_values env "S"
          [ (tr 10. 35., 1.0); (tr 15. 20., 1.0); (tr 33. 34., 1.0) ]
      in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      Alcotest.(check int) "two real matches" 2 (Relation.cardinality out))

let residual_case =
  tc "residual predicate conjunct" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r = rel_of_values env "R" [ (Fuzzy.Possibility.crisp 10.0, 1.0) ] in
      let s = rel_of_values env "S" [ (Fuzzy.Possibility.crisp 10.0, 1.0) ] in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ~residual:(fun _ _ -> 0.25) ()
      in
      match Relation.to_list out with
      | [ t ] -> Alcotest.(check (float 1e-9)) "degree" 0.25 (Ftuple.degree t)
      | l -> Alcotest.failf "expected 1 tuple, got %d" (List.length l))

let empty_inputs =
  tc "empty inputs" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r = rel_of_values env "R" [] in
      let s = rel_of_values env "S" [ (Fuzzy.Possibility.crisp 1.0, 1.0) ] in
      let out =
        Join_merge.join_eq ~outer:r ~inner:s ~outer_attr:1 ~inner_attr:1
          ~mem_pages:8 ()
      in
      Alcotest.(check int) "empty" 0 (Relation.cardinality out);
      let out2 =
        Join_nested_loop.join ~outer:s ~inner:r ~mem_pages:8
          ~on:[ (1, Fuzzy.Fuzzy_compare.Eq, 1) ] ()
      in
      Alcotest.(check int) "empty nl" 0 (Relation.cardinality out2))

(* ---------- I/O accounting ---------- *)

let generated_pair env =
  let spec n = { Workload.Gen.default_spec with n; tuple_bytes = 128; groups = 50 } in
  Workload.Gen.join_pair env ~seed:11 ~outer:(spec 400) ~inner:(spec 400)

let nl_io_formula =
  tc "nested loop I/O follows b_R + ceil(b_R/(M-1)) * b_S" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r, s = generated_pair env in
      let br = Relation.num_pages r and bs = Relation.num_pages s in
      let m = 4 in
      Storage.Iostats.reset env.Storage.Env.stats;
      Join_nested_loop.iter_pairs ~outer:r ~inner:s ~mem_pages:m ~f:(fun _ _ -> ());
      let expected =
        br + (bs * ((br + (m - 1) - 1) / (m - 1)))
      in
      Alcotest.(check int) "reads" expected
        (Storage.Iostats.page_reads env.Storage.Env.stats))

let merge_io_linear =
  tc "merge sweep reads each sorted relation once" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r, s = generated_pair env in
      let sorted_r = Join_merge.sort_by r ~attr:1 ~mem_pages:16 in
      let sorted_s = Join_merge.sort_by s ~attr:1 ~mem_pages:16 in
      Storage.Buffer_pool.flush env.Storage.Env.pool;
      Storage.Iostats.reset env.Storage.Env.stats;
      Join_merge.sweep_sorted ~outer:sorted_r ~inner:sorted_s ~outer_attr:1
        ~inner_attr:1 ~mem_pages:16 ~f:(fun _ _ -> ()) ();
      let expected = Relation.num_pages sorted_r + Relation.num_pages sorted_s in
      Alcotest.(check int) "reads = b_R + b_S" expected
        (Storage.Iostats.page_reads env.Storage.Env.stats))

let sorted_order_check =
  tc "sort_by orders by Definition 3.1" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r, _ = generated_pair env in
      let sorted = Join_merge.sort_by r ~attr:1 ~mem_pages:8 in
      let prev = ref None in
      Relation.iter sorted (fun t ->
          let sup = Value.support (Ftuple.value t 1) in
          (match !prev with
          | Some p ->
              Alcotest.(check bool) "nondecreasing" true
                (Fuzzy.Interval.compare_lex p sup <= 0)
          | None -> ());
          prev := Some sup);
      Alcotest.(check int) "same cardinality" (Relation.cardinality r)
        (Relation.cardinality sorted))

(* The decorated sort is the merge-join's only interval sort. At one domain
   it must write exactly the file of the generic record-comparator sort,
   after the same comparisons; with more domains, the same key sequence
   and record multiset (equal-key ties may land in another order). *)
let sort_equivalence =
  tc "sort_by = record-comparator External_sort.sort" `Quick (fun () ->
      let records file =
        let acc = ref [] in
        Storage.Heap_file.iter file (fun b -> acc := Bytes.to_string b :: !acc);
        List.rev !acc
      in
      let support b = Value.support (Ftuple.value (Codec.decode b) 1) in
      let keys file =
        List.map (fun b -> support (Bytes.of_string b)) (records file)
      in
      let env = Test_util.fresh_env () in
      let catalog = Catalog.create env in
      Server.Demo.load_nested ~seed:11 env catalog;
      let demo_r = Option.get (Catalog.find catalog "R") in
      let r, _ = generated_pair env in
      (* mem_pages 3 on the generated relation forces several runs and an
         intermediate merge pass; demo R sorts in one run *)
      List.iter
        (fun (rel, mem_pages) ->
          let stats = env.Storage.Env.stats in
          let file = Relation.file rel in
          Storage.Buffer_pool.flush (Storage.Heap_file.pool file);
          let c0 = Storage.Iostats.comparisons stats in
          let reference =
            Storage.External_sort.sort file ~mem_pages
              ~compare:(fun a b ->
                Fuzzy.Interval.compare_lex (support a) (support b))
          in
          let c1 = Storage.Iostats.comparisons stats in
          let sorted = Join_merge.sort_by rel ~attr:1 ~mem_pages in
          let c2 = Storage.Iostats.comparisons stats in
          Alcotest.(check (list string)) "byte-identical records"
            (records reference) (records (Relation.file sorted));
          Alcotest.(check int) "same page count"
            (Storage.Heap_file.num_pages reference)
            (Relation.num_pages sorted);
          Alcotest.(check int) "same comparisons" (c1 - c0) (c2 - c1);
          List.iter
            (fun domains ->
              let par =
                Storage.Task_pool.with_pool ~domains (fun pool ->
                    Join_merge.sort_by ~pool rel ~attr:1 ~mem_pages)
              in
              let par_file = Relation.file par in
              Alcotest.(check (list Test_util.interval))
                (Printf.sprintf "key sequence (domains %d)" domains)
                (keys reference) (keys par_file);
              Alcotest.(check (list string))
                (Printf.sprintf "record multiset (domains %d)" domains)
                (List.sort compare (records reference))
                (List.sort compare (records par_file));
              Relation.destroy par)
            [ 2; 4 ];
          Storage.Heap_file.destroy reference;
          Relation.destroy sorted)
        [ (demo_r, 8); (r, 3) ])

let fanout_sanity =
  tc "workload fan-out is close to n_inner / groups" `Quick (fun () ->
      let env = Test_util.fresh_env () in
      let r, s = generated_pair env in
      let matches = ref 0 in
      Join_nested_loop.iter_pairs ~outer:r ~inner:s ~mem_pages:8 ~f:(fun rt st ->
          if
            Fuzzy.Degree.positive
              (Value.compare_degree Fuzzy.Fuzzy_compare.Eq (Ftuple.value rt 1)
                 (Ftuple.value st 1))
          then incr matches);
      let c = float_of_int !matches /. 400.0 in
      (* expected fan-out = 400 / 50 = 8 *)
      Alcotest.(check bool)
        (Printf.sprintf "fan-out %.2f within [5, 11]" c)
        true
        (c > 5.0 && c < 11.0))

(* ---------- parallel execution ---------- *)

(* The degree-equivalence contract of the multicore engine: for every query
   type the planner parallelises, running with domains in {1, 2, 4} must
   return the same answer tuples AND the same membership degrees (domains = 1
   is by construction the sequential engine). *)
let check_parallel kind spec =
  let catalog = Test_equivalence.make_db spec in
  let rng = Random.State.make [| spec.Test_equivalence.seed + 17 |] in
  let sql = Test_equivalence.template rng kind in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  let answer d =
    Test_util.answer_of_relation (Unnest.Planner.run ~mem_pages:8 ~domains:d q)
  in
  let seq = answer 1 in
  List.for_all
    (fun d ->
      let par = answer d in
      if not (Test_util.answers_equal seq par) then
        QCheck.Test.fail_reportf
          "domains=1 <> domains=%d for %s@.seq: %a@.par: %a" d sql
          Test_util.pp_answer seq Test_util.pp_answer par
      else true)
    [ 2; 4 ]

let parallel_props =
  List.map
    (fun (name, kind, discrete_ok) ->
      QCheck.Test.make ~count:25
        ~name:(Printf.sprintf "parallel degrees: %s with domains {1,2,4}" name)
        (Test_equivalence.arb_spec ~discrete_ok ())
        (check_parallel kind))
    [
      ("type N", `N, true); ("type J", `J, true); ("type JX", `JX, true);
      ("type JA", `JA, false); ("type JALL", `JALL, true);
      ("chain", `Chain, true);
    ]

let partition_replication =
  tc "partition_sweep replicates boundary-straddling windows" `Quick (fun () ->
      let iv = Fuzzy.Interval.make in
      (* Four outer tuples cut into two slices of two; the wide inner
         window [0, 100] overlaps every outer support and must appear in
         both partitions, the narrow ones only where they can join. *)
      let outs = [| (0, iv 0. 10.); (1, iv 5. 15.); (2, iv 20. 30.); (3, iv 25. 40.) |] in
      let ins =
        [| ("low", iv 0. 8.); ("wide", iv 0. 100.); ("cut", iv 12. 22.);
           ("high", iv 26. 35.) |]
      in
      let parts = Join_merge.partition_sweep ~domains:2 outs ins in
      Alcotest.(check int) "two partitions" 2 (Array.length parts);
      let names (_, slice) = List.map fst (Array.to_list slice) in
      let outer_ids (slice, _) = List.map fst (Array.to_list slice) in
      Alcotest.(check (list int)) "first outer slice" [ 0; 1 ] (outer_ids parts.(0));
      Alcotest.(check (list int)) "second outer slice" [ 2; 3 ] (outer_ids parts.(1));
      (* slice 0 covers supports up to hi = 15: "high" (lo 26) is excluded,
         "cut" straddles in via lo 12 <= 15. *)
      Alcotest.(check (list string)) "inner for slice 0"
        [ "low"; "wide"; "cut" ] (names parts.(0));
      (* slice 1 starts at lo = 20: "low" (hi 8) is excluded; "wide" and
         "cut" straddle the boundary and are replicated. *)
      Alcotest.(check (list string)) "inner for slice 1"
        [ "wide"; "cut"; "high" ] (names parts.(1));
      (* A sweep over each partition must find exactly the overlapping pairs
         of the sequential sweep: count them both ways. *)
      let seq_pairs =
        Array.fold_left
          (fun acc (_, ri) ->
            acc
            + Array.fold_left
                (fun a (_, si) -> if Fuzzy.Interval.overlaps ri si then a + 1 else a)
                0 ins)
          0 outs
      in
      let par_pairs =
        Array.fold_left
          (fun acc (o_slice, i_slice) ->
            acc
            + Array.fold_left
                (fun a (_, ri) ->
                  a
                  + Array.fold_left
                      (fun b (_, si) ->
                        if Fuzzy.Interval.overlaps ri si then b + 1 else b)
                      0 i_slice)
                0 o_slice)
          0 parts
      in
      Alcotest.(check int) "overlap pairs preserved" seq_pairs par_pairs)

let suites =
  [
    ( "joins.equivalence",
      List.map QCheck_alcotest.to_alcotest
        [ prop_merge_equals_nl; prop_indicator_equals_plain ]
      @ [ hand_case; dangling_window_case; residual_case; empty_inputs ] );
    ( "joins.io",
      [
        nl_io_formula; merge_io_linear; sorted_order_check; sort_equivalence;
        fanout_sanity;
      ] );
    ( "joins.parallel",
      List.map QCheck_alcotest.to_alcotest parallel_props
      @ [ partition_replication ] );
  ]
