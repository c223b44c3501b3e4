(** Bit-identity of the vectorized columnar executor.

    The batch engine's contract is exact: same answer tuples, same IEEE-754
    membership-degree bits as the scalar engine, for every query shape, at
    any domain count. These properties check the contract at both levels —
    the trapezoid kernels against the boxed [Value.compare_degree] path,
    and whole plans ([Planner.run ~batch:true]) against the scalar run
    across every unnestable shape, sequential and domain-parallel. *)

open Frepro
open Frepro.Relational

let bits = Int64.bits_of_float

(* ---------- kernel-level bit identity ---------- *)

let arb_trap =
  let gen st =
    let rng = Random.State.make [| QCheck.Gen.int_bound 1_000_000 st |] in
    Workload.Gen.random_trapezoid rng ~lo:0.0 ~hi:50.0
  in
  QCheck.make
    ~print:(fun t -> Format.asprintf "%a" Fuzzy.Trapezoid.pp t)
    gen

let arb_trap_pair = QCheck.pair arb_trap arb_trap

let all_ops =
  Fuzzy.Fuzzy_compare.
    [ (Eq, "="); (Ne, "<>"); (Ge, ">="); (Le, "<="); (Gt, ">"); (Lt, "<") ]

let cmp_of_traps op u v =
  let open Fuzzy.Trapezoid in
  Relational.Batch_kernels.cmp op u.a u.b u.c u.d v.a v.b v.c v.d

let kernel_cmp_prop =
  QCheck.Test.make ~count:500 ~name:"cmp kernels = Value.compare_degree bits"
    arb_trap_pair (fun (u, v) ->
      let vu = Value.Fuzzy (Fuzzy.Possibility.trap u)
      and vv = Value.Fuzzy (Fuzzy.Possibility.trap v) in
      List.for_all
        (fun (op, name) ->
          let scalar = Value.compare_degree op vu vv in
          let batch = cmp_of_traps op u v in
          if bits scalar <> bits batch then
            QCheck.Test.fail_reportf
              "op %s: scalar %.17g (%Lx) <> kernel %.17g (%Lx) for %a vs %a"
              name scalar (bits scalar) batch (bits batch)
              Fuzzy.Trapezoid.pp u Fuzzy.Trapezoid.pp v
          else true)
        all_ops)

(* Crisp numbers travel through the kernels as degenerate trapezoids; the
   crisp/crisp and crisp/trap cases must match the boxed dispatch too. *)
let kernel_crisp_prop =
  QCheck.Test.make ~count:500 ~name:"cmp kernels: crisp and mixed operands"
    QCheck.(triple (int_bound 50) (int_bound 50) arb_trap)
    (fun (a, b, t) ->
      let rows =
        [|
          Ftuple.make [| Value.Int a |] 1.0;
          Ftuple.make [| Value.Int b |] 1.0;
          Ftuple.make [| Value.Fuzzy (Fuzzy.Possibility.trap t) |] 1.0;
        |]
      in
      let batch = Batch.of_rows rows in
      let col = Batch.col batch 0 in
      List.for_all
        (fun (op, name) ->
          List.for_all
            (fun (i, j) ->
              if not (Batch.ok col i && Batch.ok col j) then true
              else
                let scalar =
                  Value.compare_degree op
                    (Ftuple.value rows.(i) 0)
                    (Ftuple.value rows.(j) 0)
                in
                let k = Batch_kernels.cmp_at op col i col j in
                if bits scalar <> bits k then
                  QCheck.Test.fail_reportf
                    "op %s rows (%d,%d): scalar %.17g <> kernel %.17g" name i
                    j scalar k
                else true)
            [ (0, 1); (1, 0); (0, 2); (2, 0); (0, 0) ])
        all_ops)

let mem_prop =
  QCheck.Test.make ~count:500 ~name:"mem_into = Trapezoid.mem bits"
    (QCheck.pair arb_trap (QCheck.list_of_size (QCheck.Gen.return 64)
                             (QCheck.float_range (-10.0) 60.0)))
    (fun (t, xs) ->
      let xs = Array.of_list xs in
      let n = Array.length xs in
      let dst = Array.make (Int.max 1 n) 0.0 in
      Batch_kernels.mem_into t ~xs ~n ~dst;
      Array.for_all
        (fun i -> bits dst.(i) = bits (Fuzzy.Trapezoid.mem t xs.(i)))
        (Array.init n Fun.id))

let tnorm_prop =
  QCheck.Test.make ~count:500 ~name:"conj_into / disj_reduce = Degree folds"
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.return 50) (QCheck.float_range 0.0 1.0))
       (QCheck.list_of_size (QCheck.Gen.return 50) (QCheck.float_range 0.0 1.0)))
    (fun (a, b) ->
      let src = Array.of_list a and acc = Array.of_list b in
      let n = Array.length src in
      let expect =
        Array.init n (fun i -> Fuzzy.Degree.conj acc.(i) src.(i))
      in
      let expect_max = Array.fold_left Fuzzy.Degree.disj 0.0 expect in
      Batch_kernels.conj_into ~src ~dst:acc ~n;
      Array.for_all (fun i -> bits acc.(i) = bits expect.(i))
        (Array.init n Fun.id)
      && bits (Batch_kernels.disj_reduce ~xs:acc ~n) = bits expect_max)

(* ---------- whole-plan bit identity across shapes ---------- *)

let check_engines kind spec =
  let catalog = Test_equivalence.make_db spec in
  let rng = Random.State.make [| spec.Test_equivalence.seed + 29 |] in
  let sql = Test_equivalence.template rng kind in
  let q = Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql in
  let scalar = Unnest.Planner.run ~mem_pages:8 q in
  let batch1 = Unnest.Planner.run ~mem_pages:8 ~batch:true q in
  let batch4 = Unnest.Planner.run ~mem_pages:8 ~batch:true ~domains:4 q in
  let a = Test_util.answer_bits scalar
  and b1 = Test_util.answer_bits batch1
  and b4 = Test_util.answer_bits batch4 in
  if a <> b1 then
    QCheck.Test.fail_reportf
      "scalar <> batch (domains 1) for %s@.scalar: %a@.batch: %a" sql
      Test_util.pp_bits a Test_util.pp_bits b1;
  if a <> b4 then
    QCheck.Test.fail_reportf
      "scalar <> batch (domains 4) for %s@.scalar: %a@.batch: %a" sql
      Test_util.pp_bits a Test_util.pp_bits b4;
  true

let engine_prop name kind ?discrete_ok () =
  QCheck.Test.make ~count:40 ~name
    (Test_equivalence.arb_spec ?discrete_ok ())
    (check_engines kind)

let engine_props =
  [
    engine_prop "batch = scalar bits: type N" `N ();
    engine_prop "batch = scalar bits: type J" `J ();
    engine_prop "batch = scalar bits: type JX" `JX ();
    engine_prop "batch = scalar bits: type JALL" `JALL ();
    engine_prop "batch = scalar bits: type JSOME" `JSOME ();
    engine_prop "batch = scalar bits: type JA" `JA ~discrete_ok:false ();
    engine_prop "batch = scalar bits: chain" `Chain ();
    engine_prop "batch = scalar bits: EXISTS" `Exists ();
  ]

(* ---------- deterministic regressions ---------- *)

let tc = Alcotest.test_case

let regression_cases =
  [
    tc "sweep_sorted ~batch bridges identical rng lists" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let spec = { Workload.Gen.default_spec with n = 500; groups = 70 } in
        let r, s =
          Workload.Gen.join_pair env ~seed:5 ~outer:spec ~inner:spec
        in
        let sorted_r = Join_merge.sort_by r ~attr:1 ~mem_pages:8 in
        let sorted_s = Join_merge.sort_by s ~attr:1 ~mem_pages:8 in
        let collect batch =
          let acc = ref [] in
          Join_merge.sweep_sorted ~batch ~outer:sorted_r ~inner:sorted_s
            ~outer_attr:1 ~inner_attr:1 ~mem_pages:8
            ~f:(fun t rng ->
              acc :=
                ( Value.to_string (Ftuple.value t 0),
                  List.map
                    (fun (s, d) ->
                      (Value.to_string (Ftuple.value s 0), bits d))
                    rng )
                :: !acc)
            ();
          List.sort compare !acc
        in
        let a = collect false and b = collect true in
        Alcotest.(check int) "same emission count" (List.length a)
          (List.length b);
        if a <> b then Alcotest.fail "scalar and batch rng lists differ");
    tc "sort_support: same key order as the scalar sort" `Quick (fun () ->
        let env = Test_util.fresh_env () in
        let spec = { Workload.Gen.default_spec with n = 700; groups = 50 } in
        let r =
          Workload.Gen.relation env ~seed:9 ~name:"R" spec
        in
        let keys rel =
          List.map
            (fun t -> Value.support (Ftuple.value t 1))
            (Relation.to_list rel)
        in
        let scalar = Join_merge.sort_by r ~attr:1 ~mem_pages:8 in
        let batch = Join_merge.sort_by ~batch:true r ~attr:1 ~mem_pages:8 in
        let ks = keys scalar and kb = keys batch in
        Alcotest.(check int) "same length" (List.length ks) (List.length kb);
        List.iter2
          (fun a b ->
            if Fuzzy.Interval.compare_lex a b <> 0 then
              Alcotest.failf "key order diverges: %a vs %a" Fuzzy.Interval.pp
                a Fuzzy.Interval.pp b)
          ks kb);
    tc "batch engine composes with cancellation" `Quick (fun () ->
        let spec =
          {
            Test_equivalence.seed = 3;
            n_r = 15;
            n_s = 15;
            n_t = 5;
            discrete_ok = false;
          }
        in
        let catalog = Test_equivalence.make_db spec in
        let q =
          Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper
            "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V \
             <= R.U)"
        in
        let cancel = Storage.Cancel.create () in
        Storage.Cancel.cancel cancel ~reason:"test";
        (match Unnest.Planner.run ~batch:true ~cancel q with
        | _ -> Alcotest.fail "expected Cancelled"
        | exception Storage.Cancel.Cancelled _ -> ());
        (* and a live token lets it complete *)
        let cancel = Storage.Cancel.create () in
        let a = Unnest.Planner.run ~batch:true ~cancel q in
        let b = Unnest.Planner.run q in
        Alcotest.(check int) "same cardinality" (Relation.cardinality b)
          (Relation.cardinality a));
  ]

let suites =
  [
    ( "batch.kernels",
      List.map QCheck_alcotest.to_alcotest
        [ kernel_cmp_prop; kernel_crisp_prop; mem_prop; tnorm_prop ] );
    ("batch.engines", List.map QCheck_alcotest.to_alcotest engine_props);
    ("batch.regressions", regression_cases);
  ]
