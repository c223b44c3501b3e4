open Storage
open Fuzzy

let interval_key ~attr r = Value.support (Ftuple.value (Codec.decode r) attr)

let sort_by ?pool ?trace ?cancel ?(batch = false) rel ~attr ~mem_pages =
  let env = Relation.env rel in
  Buffer_pool.flush (Heap_file.pool (Relation.file rel));
  let name = "sort " ^ Schema.name (Relation.schema rel) in
  Trace.with_span trace ~stats:env.Env.stats ~pool:env.Env.pool name
    (fun () ->
      (* Cancellation rides the comparator: the external sorter calls it
         O(n log n) times spread across run formation and every merge pass,
         so a long spilling sort unwinds within a poll period of the deadline
         without the sorter itself knowing about tokens. *)
      let sorted =
        match pool with
        | Some p when Task_pool.domains p > 1 ->
            let compare_key a b =
              Cancel.check cancel;
              Interval.compare_lex a b
            in
            External_sort.sort_keyed ~pool:p ?trace (Relation.file rel)
              ~key:(interval_key ~attr) ~compare_key ~mem_pages
        | _ when batch ->
            (* Columnar decorated sort: the key is decoded once per record
               per phase into unboxed float columns instead of twice per
               comparison; cancellation is polled per batch inside the
               sorter. *)
            let key r =
              let i = interval_key ~attr r in
              (Interval.lo i, Interval.hi i)
            in
            External_sort.sort_support ?trace ?cancel (Relation.file rel)
              ~key ~mem_pages
        | _ ->
            let compare_records r1 r2 =
              Cancel.check cancel;
              let v1 = Ftuple.value (Codec.decode r1) attr
              and v2 = Ftuple.value (Codec.decode r2) attr in
              Interval.compare_lex (Value.support v1) (Value.support v2)
            in
            External_sort.sort ?trace (Relation.file rel)
              ~compare:compare_records ~mem_pages
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

(* The columnar window sweep: bit-identical to [sweep_core] — same window
   membership, same comparison / fuzzy-op accounting (bulk-charged per
   outer tuple), same per-pair degree arithmetic (the trapezoid fast path
   of [Batch_kernels.cmp_at] replicates the boxed float operations exactly;
   string / discrete operands fall back to [Value.compare_degree]) — but
   runs over unboxed support and parameter columns. The window is a
   selection vector of inner row indices reused across outer tuples, and
   cancellation is polled once per [Batch.batch_rows] outer rows instead of
   per tuple; with [?trace] each such chunk records a [batch] child span
   carrying its row count. [emit r_i ~idx ~n ~d_eq] is called once per
   outer row with the window indices [idx.(0 .. n-1)] (in the scalar
   window's insertion order) and their equality degrees; the arrays are
   reused, so handlers must not retain them. *)
let sweep_batch ?cancel ?trace ~stats ~outer_b ~inner_b ~outer_attr
    ~inner_attr ~emit () =
  let n_out = Batch.length outer_b and n_in = Batch.length inner_b in
  let ocol = Batch.col outer_b outer_attr
  and icol = Batch.col inner_b inner_attr in
  let o_lo = ocol.Batch.lo and o_hi = ocol.Batch.hi in
  let i_lo = icol.Batch.lo and i_hi = icol.Batch.hi in
  let cap = ref (Int.max 16 (Int.min 1024 (Int.max 1 n_in))) in
  let win = ref (Array.make !cap 0) in
  let deq = ref (Array.make !cap 0.0) in
  let win_n = ref 0 in
  let next_inner = ref 0 in
  let ensure n =
    if n > !cap then begin
      let cap' = Int.max n (2 * !cap) in
      let w = Array.make cap' 0 in
      Array.blit !win 0 w 0 !win_n;
      win := w;
      deq := Array.make cap' 0.0;
      cap := cap'
    end
  in
  let chunk_start = ref 0 in
  while !chunk_start < n_out do
    Cancel.check cancel;
    let chunk_end = Int.min n_out (!chunk_start + Batch.batch_rows) in
    Trace.with_span trace ~stats "batch" (fun () ->
        for i = !chunk_start to chunk_end - 1 do
          let b_r = Array.unsafe_get o_lo i
          and e_r = Array.unsafe_get o_hi i in
          (* 1. Evict window members ending before b(r.X); one comparison
             is charged per member, like the scalar filter. *)
          let w = !win in
          let wn = !win_n in
          let k = ref 0 in
          for j = 0 to wn - 1 do
            let s = Array.unsafe_get w j in
            if Array.unsafe_get i_hi s >= b_r then begin
              Array.unsafe_set w !k s;
              incr k
            end
          done;
          Iostats.record_comparisons stats wn;
          win_n := !k;
          (* 2. Extend while the next inner row begins no later than
             e(r.X); the terminating peek charges one comparison, matching
             the scalar extend loop. *)
          let continue = ref true in
          while !continue && !next_inner < n_in do
            Iostats.record_comparison stats;
            let s = !next_inner in
            if Array.unsafe_get i_lo s <= e_r then begin
              if Array.unsafe_get i_hi s >= b_r then begin
                ensure (!win_n + 1);
                !win.(!win_n) <- s;
                incr win_n
              end;
              incr next_inner
            end
            else continue := false
          done;
          (* 3. Per-pair equality degree over the window: one comparison
             per member, one fuzzy op per overlapping pair. *)
          let w = !win and dq = !deq in
          let wn = !win_n in
          let r_ok = Batch.ok ocol i in
          let fuzz = ref 0 in
          for j = 0 to wn - 1 do
            let s = Array.unsafe_get w j in
            if
              b_r <= Array.unsafe_get i_hi s
              && Array.unsafe_get i_lo s <= e_r
            then begin
              incr fuzz;
              Array.unsafe_set dq j
                (if r_ok && Batch.ok icol s then
                   Batch_kernels.cmp_at Fuzzy_compare.Eq ocol i icol s
                 else
                   Value.compare_degree Fuzzy_compare.Eq
                     (Ftuple.value (Batch.row outer_b i) outer_attr)
                     (Ftuple.value (Batch.row inner_b s) inner_attr))
            end
            else Array.unsafe_set dq j 0.0
          done;
          Iostats.record_comparisons stats wn;
          Iostats.record_fuzzy_ops stats !fuzz;
          emit i ~idx:w ~n:wn ~d_eq:dq
        done;
        Trace.set_rows trace (chunk_end - !chunk_start));
    chunk_start := chunk_end
  done

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

(* Bridge a [sweep_batch] emission to the scalar [f r rng] callback: the
   window's selection vector materialises as the same insertion-ordered
   [rng] list the scalar sweep builds. *)
let emit_to_f ~outer_b ~inner_b ~f i ~idx ~n ~d_eq =
  let rec build j =
    if j >= n then [] else (Batch.row inner_b idx.(j), d_eq.(j)) :: build (j + 1)
  in
  f (Batch.row outer_b i) (build 0)

let sweep_sorted ?pool ?trace ?cancel ?(batch = false) ?f_batch ~outer ~inner
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
                    (if batch then begin
                       (* Columnar partition sweep: each job builds one
                          batch per slice and bridges emissions to the same
                          (r, rng) lists as the scalar jobs, so the
                          coordinator's [f] pass is engine-independent. *)
                       let ob = Batch.of_rows (Array.map fst o_slice) in
                       let ib = Batch.of_rows (Array.map fst i_slice) in
                       sweep_batch ?cancel ?trace:jtrace ~stats:pstats
                         ~outer_b:ob ~inner_b:ib ~outer_attr ~inner_attr
                         ~emit:
                           (emit_to_f ~outer_b:ob ~inner_b:ib ~f:collect)
                         ()
                     end
                     else
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
                         ~outer_attr ~inner_attr ~f:collect ());
                    Trace.set_rows jtrace (Array.length o_slice);
                    (List.rev !results, pstats)))
              (Array.to_list parts)
          in
          let batches = Task_pool.run_list_traced ?trace ~label:"sweep" p jobs in
          Trace.with_span trace ~stats "emit" (fun () ->
              List.iter
                (fun (results, pstats) ->
                  Iostats.add_into stats pstats;
                  List.iter (fun (r, rng) -> f r rng) results)
                batches)
      | _ when batch ->
          (* Sequential columnar sweep: both sorted inputs are decoded once
             into batches (columns extracted lazily per attribute), then the
             window runs over unboxed support columns. Handlers with a
             vectorized form supply [f_batch]; others get the scalar [f]
             through the bridging emitter. *)
          let scan which rel spool =
            Trace.with_span trace ~stats ~pool:spool ("scan " ^ which)
              (fun () ->
                let b = Batch.of_relation ?cancel ~pool:spool rel in
                Trace.set_rows trace (Batch.length b);
                b)
          in
          let outer_b = scan "outer" outer outer_pool in
          let inner_b = scan "inner" inner inner_pool in
          Trace.with_span trace ~stats "sweep" (fun () ->
              let emit =
                match f_batch with
                | Some fb ->
                    fun i ~idx ~n ~d_eq ->
                      fb outer_b i ~inner:inner_b ~idx ~n ~d_eq
                | None -> emit_to_f ~outer_b ~inner_b ~f
              in
              sweep_batch ?cancel ?trace ~stats ~outer_b ~inner_b ~outer_attr
                ~inner_attr ~emit ();
              Trace.set_rows trace (Batch.length outer_b))
      | _ ->
          Trace.with_span trace ~stats ~pool:outer_pool "sweep" (fun () ->
              let rc = Relation.Cursor.of_relation ~pool:outer_pool outer in
              let sc = Relation.Cursor.of_relation ~pool:inner_pool inner in
              sweep_core ?cancel ~stats
                ~next_outer:(fun () -> Relation.Cursor.next rc)
                ~peek_inner:(fun () -> Relation.Cursor.peek sc)
                ~advance_inner:(fun () -> ignore (Relation.Cursor.next sc))
                ~outer_attr ~inner_attr ~f ()))

let join_with_rng ?name ?pool ?trace ?cancel ?(batch = false) ?project ~outer
    ~inner ~outer_attr ~inner_attr ~mem_pages ?residual ~rng_degree () =
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
            sort_by ?pool ?trace ?cancel ~batch outer ~attr:outer_attr
              ~mem_pages
          in
          temps := sorted_r :: !temps;
          let sorted_s =
            sort_by ?pool ?trace ?cancel ~batch inner ~attr:inner_attr
              ~mem_pages
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
          (* Batch fast path: same per-pair evaluation, but straight off the
             window's selection vector — no [rng] list is built. *)
          let f_batch ob i ~inner:ib ~idx ~n ~d_eq =
            let r = Batch.row ob i in
            for j = 0 to n - 1 do
              pair r (Batch.row ib idx.(j)) d_eq.(j)
            done
          in
          sweep_sorted ?pool ?trace ?cancel ~batch ~f_batch ~outer:sorted_r
            ~inner:sorted_s ~outer_attr ~inner_attr ~mem_pages ()
            ~f:(fun r rng -> List.iter (fun (s, d_eq) -> pair r s d_eq) rng));
      Algebra.dedup_iter !kept (Relation.insert out);
      Trace.set_rows trace (Relation.cardinality out);
      out)

let join_eq ?name ?pool ?trace ?cancel ?batch ?project ~outer ~inner
    ~outer_attr ~inner_attr ~mem_pages ?residual () =
  join_with_rng ?name ?pool ?trace ?cancel ?batch ?project ~outer ~inner
    ~outer_attr ~inner_attr ~mem_pages ?residual ~rng_degree:(fun _ _ d -> d) ()

let with_indicator ?name ?pool ?trace ?cancel ?batch ~outer ~inner ~outer_attr
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
  join_with_rng ?name ?pool ?trace ?cancel ?batch ~outer ~inner ~outer_attr
    ~inner_attr ~mem_pages ?residual ~rng_degree:indicator ()
