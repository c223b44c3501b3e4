open Storage
open Fuzzy

let sort_by ?pool ?trace ?cancel rel ~attr ~mem_pages =
  let env = Relation.env rel in
  Buffer_pool.flush (Heap_file.pool (Relation.file rel));
  let name = "sort " ^ Schema.name (Relation.schema rel) in
  Trace.with_span trace ~stats:env.Env.stats ~pool:env.Env.pool name
    (fun () ->
      (* Decorated sort: the support is decoded once per record per phase
         into unboxed floats instead of twice per comparison. *)
      let key r =
        let i = Value.support (Ftuple.value (Codec.decode r) attr) in
        (Interval.lo i, Interval.hi i)
      in
      let sorted =
        External_sort.sort_support ?pool ?trace ?cancel (Relation.file rel)
          ~key ~mem_pages
      in
      let out =
        Relation.of_file ?pad_to:(Relation.pad_to rel) env
          (Relation.schema rel) sorted
      in
      Trace.set_rows trace (Relation.cardinality out);
      out)

(* The window sweep of Section 3, abstracted over the tuple sources so the
   sequential (cursor-backed) and parallel (array-backed, one per partition)
   paths share the exact same comparison / fuzzy-op behaviour. *)
let sweep_core ?cancel ~stats ~next_outer ~peek_inner ~advance_inner
    ~outer_attr ~inner_attr ~f () =
  (* Window entries: inner tuple with the support of its join value. *)
  let window = ref [] in
  let rec next_r () =
    Cancel.check cancel;
    match next_outer () with
    | None -> ()
    | Some r ->
        let ri = Value.support (Ftuple.value r outer_attr) in
        let b_r = Interval.lo ri and e_r = Interval.hi ri in
        (* Drop window tuples ending before b(r.X): since outer support
           starts are non-decreasing, they cannot join this or any later
           outer tuple. *)
        window :=
          List.filter
            (fun (_, si) ->
              Iostats.record_comparison stats;
              Interval.hi si >= b_r)
            !window;
        (* Extend the window while the next inner tuple begins no later
           than e(r.X); later inner tuples begin after e(r.X) and
           terminate the scan for r. *)
        let rec extend () =
          match peek_inner () with
          | Some s ->
              let si = Value.support (Ftuple.value s inner_attr) in
              Iostats.record_comparison stats;
              if Interval.lo si <= e_r then begin
                advance_inner ();
                if Interval.hi si >= b_r then window := !window @ [ (s, si) ];
                extend ()
              end
          | None -> ()
        in
        extend ();
        let rng =
          List.map
            (fun (s, si) ->
              Iostats.record_comparison stats;
              if Interval.overlaps ri si then begin
                Iostats.record_fuzzy_op stats;
                ( s,
                  Value.compare_degree Fuzzy_compare.Eq
                    (Ftuple.value r outer_attr)
                    (Ftuple.value s inner_attr) )
              end
              else (s, Degree.zero))
            !window
        in
        f r rng;
        next_r ()
  in
  next_r ()

(* Cut the outer tuples into [domains] contiguous slices of the sorted order
   and pair each with the inner tuples that can reach it: s can join some r
   of a slice only if lo(s) <= max hi(r) and hi(s) >= min lo(r) over the
   slice (min lo is the first tuple's, the sort is lexicographic on
   (lo, hi); max hi needs a fold — hi is not monotone). Inner tuples whose
   support straddles a cut point are replicated into every slice they can
   reach, so no window is ever split: each slice's sweep sees a superset of
   its overlap pairs, and non-overlapping extras contribute degree 0 exactly
   like the dangling tuples of the sequential sweep. *)
let partition_sweep ~domains outs ins =
  let n = Array.length outs in
  let p = Int.max 1 (Int.min domains (Int.max 1 n)) in
  Array.init p (fun k ->
      let start = k * n / p and stop = (k + 1) * n / p in
      let o_slice = Array.sub outs start (stop - start) in
      if Array.length o_slice = 0 then (o_slice, [||])
      else begin
        let b_k = Interval.lo (snd o_slice.(0)) in
        let max_hi =
          Array.fold_left
            (fun acc (_, i) -> Float.max acc (Interval.hi i))
            Float.neg_infinity o_slice
        in
        let sel = ref [] in
        (try
           Array.iter
             (fun (s, si) ->
               if Interval.lo si > max_hi then raise Exit
               else if Interval.hi si >= b_k then sel := (s, si) :: !sel)
             ins
         with Exit -> ());
        (o_slice, Array.of_list (List.rev !sel))
      end)

let scan_decoded ?cancel rel ~pool ~attr =
  let acc = ref [] in
  let c = Relation.Cursor.of_relation ~pool rel in
  let rec go () =
    Cancel.check cancel;
    match Relation.Cursor.next c with
    | None -> ()
    | Some t ->
        acc := (t, Value.support (Ftuple.value t attr)) :: !acc;
        go ()
  in
  go ();
  Array.of_list (List.rev !acc)

let sweep_sorted ?pool ?trace ?cancel ~outer ~inner
    ~outer_attr ~inner_attr ~mem_pages ~f () =
  let env = Relation.env outer in
  let stats = env.Env.stats in
  Buffer_pool.flush (Heap_file.pool (Relation.file outer));
  Buffer_pool.flush (Heap_file.pool (Relation.file inner));
  (* Each relation is read strictly once in sorted order; the window of
     candidate inner tuples is kept decoded in memory, so the merge phase
     only needs scan buffers: the memory budget is split between the two
     scoped cursor pools, each over its own file's backend (durable
     relations and temporary intermediates may live on different disks). *)
  let capacity = Int.max 1 (mem_pages / 2) in
  Iostats.timed stats Iostats.Merge (fun () ->
      let outer_pool =
        Buffer_pool.create (Heap_file.disk (Relation.file outer)) ~capacity
      in
      let inner_pool =
        Buffer_pool.create (Heap_file.disk (Relation.file inner)) ~capacity
      in
      match pool with
      | Some p when Task_pool.domains p > 1 ->
          (* Partitioned parallel sweep: the coordinator materialises both
             sorted relations (decoding each tuple once and counting the
             same one-scan-each page reads as the sequential sweep), cuts
             them with {!partition_sweep}, and each pool job runs the
             sequential window algorithm on its own slice pair with private
             stats. [f] is then applied on the coordinator in global outer
             sort order — partition results concatenate in slice order —
             so answer tuples and degrees are identical to the sequential
             sweep. *)
          let outs =
            Trace.with_span trace ~stats ~pool:outer_pool "scan outer"
              (fun () ->
                let outs =
                  scan_decoded ?cancel outer ~pool:outer_pool ~attr:outer_attr
                in
                Trace.set_rows trace (Array.length outs);
                outs)
          in
          let ins =
            Trace.with_span trace ~stats ~pool:inner_pool "scan inner"
              (fun () ->
                let ins =
                  scan_decoded ?cancel inner ~pool:inner_pool ~attr:inner_attr
                in
                Trace.set_rows trace (Array.length ins);
                ins)
          in
          let parts = partition_sweep ~domains:(Task_pool.domains p) outs ins in
          let jobs =
            List.map
              (fun (o_slice, i_slice) jtrace ->
                let pstats = Iostats.create () in
                (* Sweep work must count as [Merge] in the merged totals,
                   matching the sequential sweep's phase attribution. *)
                Iostats.set_phase pstats (Some Iostats.Merge);
                Trace.with_span jtrace ~stats:pstats "sweep" (fun () ->
                    let results = ref [] in
                    let collect r rng = results := (r, rng) :: !results in
                    let oi = ref 0 and ii = ref 0 in
                    sweep_core ?cancel ~stats:pstats
                      ~next_outer:(fun () ->
                        if !oi < Array.length o_slice then begin
                          let t = fst o_slice.(!oi) in
                          incr oi;
                          Some t
                        end
                        else None)
                      ~peek_inner:(fun () ->
                        if !ii < Array.length i_slice then
                          Some (fst i_slice.(!ii))
                        else None)
                      ~advance_inner:(fun () -> incr ii)
                      ~outer_attr ~inner_attr ~f:collect ();
                    Trace.set_rows jtrace (Array.length o_slice);
                    (List.rev !results, pstats)))
              (Array.to_list parts)
          in
          let swept = Task_pool.run_list_traced ?trace ~label:"sweep" p jobs in
          Trace.with_span trace ~stats "emit" (fun () ->
              List.iter
                (fun (results, pstats) ->
                  Iostats.add_into stats pstats;
                  List.iter (fun (r, rng) -> f r rng) results)
                swept)
      | _ ->
          Trace.with_span trace ~stats ~pool:outer_pool "sweep" (fun () ->
              let rc = Relation.Cursor.of_relation ~pool:outer_pool outer in
              let sc = Relation.Cursor.of_relation ~pool:inner_pool inner in
              sweep_core ?cancel ~stats
                ~next_outer:(fun () -> Relation.Cursor.next rc)
                ~peek_inner:(fun () -> Relation.Cursor.peek sc)
                ~advance_inner:(fun () -> ignore (Relation.Cursor.next sc))
                ~outer_attr ~inner_attr ~f ()))

let join_with_rng ?name ?pool ?trace ?cancel ?project ~outer ~inner
    ~outer_attr ~inner_attr ~mem_pages ?residual ~rng_degree () =
  let env = Relation.env outer in
  let joined_schema =
    Schema.concat
      ~name:(Option.value name ~default:"join")
      (Relation.schema outer) (Relation.schema inner)
  in
  let out_schema =
    match project with
    | None -> joined_schema
    | Some ps ->
        Schema.make ~name:(Schema.name joined_schema)
          (List.map (fun p -> (Schema.attrs joined_schema).(p)) ps)
  in
  Trace.with_span trace ~stats:env.Env.stats
    ("join " ^ Schema.name out_schema)
    (fun () ->
      let out = Relation.create env out_schema in
      (* With [project], a match is cut down to the kept positions and
         folded into [kept] by max: the dropped columns are never written. *)
      let kept = ref Algebra.dedup_empty in
      let emit =
        match project with
        | None -> fun r s d -> Relation.insert out (Ftuple.concat r s d)
        | Some ps ->
            let n_r = Schema.arity (Relation.schema outer) in
            let ps = Array.of_list ps in
            fun r s d ->
              let vs =
                Array.map
                  (fun p ->
                    if p < n_r then Ftuple.value r p
                    else Ftuple.value s (p - n_r))
                  ps
              in
              kept := Algebra.dedup_add !kept (Ftuple.make vs d)
      in
      (* The sorted temporaries must not outlive the join even when the
         sweep unwinds with [Cancel.Cancelled]: a server worker's
         environment lives for many queries, and cancelled queries must not
         leak their intermediate files. *)
      let temps = ref [] in
      Fun.protect
        ~finally:(fun () -> List.iter Relation.destroy !temps)
        (fun () ->
          let sorted_r =
            sort_by ?pool ?trace ?cancel outer ~attr:outer_attr ~mem_pages
          in
          temps := sorted_r :: !temps;
          let sorted_s =
            sort_by ?pool ?trace ?cancel inner ~attr:inner_attr ~mem_pages
          in
          temps := sorted_s :: !temps;
          let pair r s d_eq =
            let d_eq = rng_degree r s d_eq in
            if Degree.positive d_eq then begin
              let d_res =
                match residual with None -> Degree.one | Some f -> f r s
              in
              let d =
                Degree.conj_list
                  [ Ftuple.degree r; Ftuple.degree s; d_eq; d_res ]
              in
              if Degree.positive d then emit r s d
            end
          in
          sweep_sorted ?pool ?trace ?cancel ~outer:sorted_r
            ~inner:sorted_s ~outer_attr ~inner_attr ~mem_pages ()
            ~f:(fun r rng -> List.iter (fun (s, d_eq) -> pair r s d_eq) rng));
      Algebra.dedup_iter !kept (Relation.insert out);
      Trace.set_rows trace (Relation.cardinality out);
      out)

let join_eq ?name ?pool ?trace ?cancel ?project ~outer ~inner
    ~outer_attr ~inner_attr ~mem_pages ?residual () =
  join_with_rng ?name ?pool ?trace ?cancel ?project ~outer ~inner
    ~outer_attr ~inner_attr ~mem_pages ?residual ~rng_degree:(fun _ _ d -> d) ()

let with_indicator ?name ?pool ?trace ?cancel ~outer ~inner ~outer_attr
    ~inner_attr ~mem_pages ?residual () =
  let indicator r s d_exact =
    (* Fuzzy-equality indicator (Zhang & Wang [42]): overlapping cores mean
       degree 1, disjoint supports mean degree 0; only the remaining pairs
       need the exact intersection height, which [sweep_sorted] already
       computed as [d_exact]. The classification is still performed here so
       the identical-result property is tested, while a production system
       would skip the exact computation. *)
    match
      ( Value.to_possibility (Ftuple.value r outer_attr),
        Value.to_possibility (Ftuple.value s inner_attr) )
    with
    | Some (Possibility.Trap a), Some (Possibility.Trap b) ->
        if Interval.overlaps (Trapezoid.core a) (Trapezoid.core b) then
          Degree.one
        else if not (Interval.overlaps (Trapezoid.support a) (Trapezoid.support b))
        then Degree.zero
        else d_exact
    | _ -> d_exact
  in
  join_with_rng ?name ?pool ?trace ?cancel ~outer ~inner ~outer_attr
    ~inner_attr ~mem_pages ?residual ~rng_degree:indicator ()
