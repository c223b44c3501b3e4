(* Binary min-heap of cursor heads for the k-way merge. *)
module Heap = struct
  type 'a t = { mutable data : 'a array; mutable size : int; le : 'a -> 'a -> bool }

  let create le = { data = [||]; size = 0; le }
  let is_empty h = h.size = 0

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.le h.data.(i) h.data.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.size && h.le h.data.(l) h.data.(!smallest) then smallest := l;
    if r < h.size && h.le h.data.(r) h.data.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h x =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (Int.max 4 (2 * h.size)) x in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- x;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h 0
    end;
    top
end

(* Every run builder below frees its temporary pages back to the disk
   when an exception (injected fault, cancellation, ...) aborts the sort:
   partially-written runs are destroyed before the exception propagates,
   so [Sim_disk.live_pages] returns to its pre-sort baseline. *)
let write_run env records =
  let run = Heap_file.create env in
  try
    Array.iter (fun r -> Heap_file.append run r) records;
    run
  with e ->
    Heap_file.destroy run;
    raise e

(* Chop the input scan into slices of at least [bytes] bytes (record
   bytes plus the 2-byte slot entry) and hand each slice to [f]. *)
let iter_slices ?cancel input ~bytes f =
  let cur = ref [] and cur_bytes = ref 0 in
  let cut () =
    if !cur <> [] then begin
      let slice = Array.of_list (List.rev !cur) in
      cur := [];
      cur_bytes := 0;
      f slice
    end
  in
  Heap_file.iter input (fun r ->
      Cancel.check cancel;
      cur := r :: !cur;
      cur_bytes := !cur_bytes + Bytes.length r + 2;
      if !cur_bytes >= bytes then cut ());
  cut ()

(* Sequential run formation: [write_slice] sorts one slice and writes it as
   a run. Runs already written are destroyed if the scan or a write
   raises. *)
let form_runs ?cancel input ~bytes write_slice =
  let runs = ref [] in
  try
    iter_slices ?cancel input ~bytes (fun slice ->
        runs := write_slice slice :: !runs);
    List.rev !runs
  with e ->
    List.iter Heap_file.destroy !runs;
    raise e

let make_runs ?cancel env input ~compare ~mem_pages =
  let stats = env.Env.stats in
  let counted a b =
    Iostats.record_comparison stats;
    compare a b
  in
  form_runs ?cancel input ~bytes:(mem_pages * Env.page_size env) (fun arr ->
      Array.sort counted arr;
      write_run env arr)

(* Replacement selection: keep a heap of records; pop the smallest that is
   >= the last record written to the current run; records smaller than the
   last output are frozen for the next run. On random input this doubles the
   average run length (Knuth's snow-plough argument). *)
let make_runs_replacement ?cancel env input ~compare ~mem_pages =
  let stats = env.Env.stats in
  let budget = mem_pages * Env.page_size env in
  let counted_le a b =
    Iostats.record_comparison stats;
    compare a b <= 0
  in
  let heap = Heap.create counted_le in
  let frozen = ref [] in
  let frozen_bytes = ref 0 in
  let in_memory = ref 0 in
  let cursor = Heap_file.Cursor.of_file input in
  let refill () =
    let continue = ref true in
    while !in_memory + !frozen_bytes < budget && !continue do
      match Heap_file.Cursor.next cursor with
      | Some r ->
          Heap.push heap r;
          in_memory := !in_memory + Bytes.length r + 2
      | None -> continue := false
    done
  in
  let runs = ref [] in
  let current = ref None in
  try
    refill ();
    while not (Heap.is_empty heap) do
    let run = Heap_file.create env in
    current := Some run;
    let last = ref None in
    while not (Heap.is_empty heap) do
      Cancel.check cancel;
      let r = Heap.pop heap in
      in_memory := !in_memory - (Bytes.length r + 2);
      (match !last with
      | Some prev when compare r prev < 0 ->
          (* Should not happen: candidates below [last] are frozen before
             they are pushed. *)
          assert false
      | _ -> ());
      Heap_file.append run r;
      last := Some r;
      (* Admit the next input record: into the heap if it can still join
         this run, frozen otherwise. *)
      match Heap_file.Cursor.next cursor with
      | Some next ->
          Iostats.record_comparison stats;
          if compare next r >= 0 then begin
            Heap.push heap next;
            in_memory := !in_memory + Bytes.length next + 2
          end
          else begin
            frozen := next :: !frozen;
            frozen_bytes := !frozen_bytes + Bytes.length next + 2
          end
      | None -> ()
    done;
    runs := run :: !runs;
    current := None;
    (* Thaw the frozen records into the heap for the next run. *)
    List.iter
      (fun r ->
        Heap.push heap r;
        in_memory := !in_memory + Bytes.length r + 2)
      !frozen;
    frozen := [];
    frozen_bytes := 0;
    refill ()
    done;
    List.rev !runs
  with e ->
    Option.iter Heap_file.destroy !current;
    List.iter Heap_file.destroy !runs;
    raise e

type run_strategy = Load_sort | Replacement_selection

let initial_runs ?cancel strategy input ~compare ~mem_pages =
  let env = Heap_file.env input in
  match strategy with
  | Load_sort -> make_runs ?cancel env input ~compare ~mem_pages
  | Replacement_selection ->
      make_runs_replacement ?cancel env input ~compare ~mem_pages

(* The one k-way heap merge: each cursor head is decorated with [key]
   once per record pulled, and the heap compares decorations only. On
   exception the freshly-created output file is destroyed but the input
   runs are left alive: the caller owns them and cleans them up (see
   [merge_passes]). On success the input runs are destroyed. Comparisons
   are charged to [stats], the sort's own record. *)
let merge_keyed ?cancel ~stats ~key ~le env runs =
  let out = Heap_file.create env in
  try
    let heap =
      Heap.create (fun (k1, _, _) (k2, _, _) ->
          Iostats.record_comparison stats;
          le k1 k2)
    in
    let push_head c =
      match Heap_file.Cursor.next c with
      | Some r -> Heap.push heap (key r, r, c)
      | None -> ()
    in
    List.iter (fun run -> push_head (Heap_file.Cursor.of_file run)) runs;
    while not (Heap.is_empty heap) do
      Cancel.check cancel;
      let _, r, c = Heap.pop heap in
      Heap_file.append out r;
      push_head c
    done;
    List.iter Heap_file.destroy runs;
    out
  with e ->
    Heap_file.destroy out;
    raise e

let merge_runs ?cancel env runs ~compare =
  merge_keyed ?cancel ~stats:env.Env.stats ~key:Fun.id
    ~le:(fun a b -> compare a b <= 0)
    env runs

(* The multi-pass merge shared by both sorters: merge groups of up
   to [fan_in] runs, pass after pass, until one file remains in [env].
   Intermediate passes write into [pass_env env] ([env] itself by default);
   a lone run already in [env] is returned as is. Every run not yet
   consumed by a pass is destroyed if a pass raises, so an aborted sort
   frees its temporary pages. *)
let merge_passes ?(pass_env = Fun.id) ~fan_in ~merge env runs =
  let live = ref runs in
  let consumed group =
    live := List.filter (fun f -> not (List.memq f group)) !live
  in
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | r :: rest -> take (k - 1) (r :: acc) rest
  in
  let rec go = function
    | [ only ] when Heap_file.env only == env -> only
    | runs when List.length runs <= fan_in -> merge env runs
    | runs ->
        let penv = pass_env env in
        let rec pass acc = function
          | [] -> List.rev acc
          | runs ->
              let group, rest = take fan_in [] runs in
              let out = merge penv group in
              consumed group;
              live := out :: !live;
              pass (out :: acc) rest
        in
        go (pass [] runs)
  in
  try go runs
  with e ->
    List.iter Heap_file.destroy !live;
    raise e

let sort ?(run_strategy = Load_sort) ?trace ?cancel input ~compare ~mem_pages =
  if mem_pages < 3 then invalid_arg "External_sort.sort: mem_pages < 3";
  let env = Heap_file.env input in
  let stats = env.Env.stats in
  Iostats.timed stats Iostats.Sort (fun () ->
      let runs =
        Trace.with_span trace ~stats ~pool:env.Env.pool "run-formation"
          (fun () ->
            initial_runs ?cancel run_strategy input ~compare ~mem_pages)
      in
      Trace.with_span trace ~stats ~pool:env.Env.pool "k-way-merge" (fun () ->
          merge_passes ~fan_in:(mem_pages - 1)
            ~merge:(fun out_env group ->
              merge_runs ?cancel out_env group ~compare)
            env runs))

(* ------------------------------------------------------------------ *)
(* The decorated sort.

   The record sorter above decodes both records on every comparison — the
   dominant cost of the merge-join pipeline. Here run formation decodes
   each record's [(lo, hi)] key exactly once into two unboxed float
   columns and sorts an index permutation over them, so the comparator
   touches no bytes at all; the k-way merge decorates each cursor head the
   same way. The comparator's outcomes are those of the record comparator
   on the same records, so at one domain the sort performs the same
   comparisons and swaps and writes a byte-identical file.

   With a multi-domain pool, run formation is the part handed to the
   domains: the coordinator chops the input scan into slices of
   [budget / domains] bytes and each job sorts one slice and writes it as
   a run into a domain-private environment — its own simulated disk,
   buffer pool and stats record — so no storage structure is shared
   between domains. The runs are then combined by the same multi-pass merge,
   reading each run through its private pool; intermediate passes write to
   fresh private environments and the final pass writes into the
   caller's. Private stats are merged into the shared record with
   [Iostats.add_into] after the coordinator has joined the batch, so
   counter totals are exact; worker page transfers land in the [Sort]
   phase bucket but not in the coordinator's [Iostats.timed] clock,
   keeping the response-time model wall-clock-shaped. *)

let le_pair (l1, h1) (l2, h2) =
  let c = Float.compare l1 l2 in
  (if c <> 0 then c else Float.compare h1 h2) <= 0

let write_decorated_run ~stats ~key env records =
  let n = Array.length records in
  let klo = Array.make n 0.0 and khi = Array.make n 0.0 in
  Array.iteri
    (fun i r ->
      let lo, hi = key r in
      klo.(i) <- lo;
      khi.(i) <- hi)
    records;
  let idx = Array.init n Fun.id in
  Array.sort
    (fun i j ->
      Iostats.record_comparison stats;
      let c = Float.compare klo.(i) klo.(j) in
      if c <> 0 then c else Float.compare khi.(i) khi.(j))
    idx;
  write_run env (Array.map (fun i -> records.(i)) idx)

(* Parallel run formation: the scan stays on the coordinator (the shared
   buffer pool is not domain-safe); each pool job sorts one slice into a
   run on its own private environment. The jobs' I/O is folded into
   [stats] once the batch joins, and their records are reset, so what
   accumulates on them afterwards is exactly the merge's run reads. *)
let parallel_runs ~pool ?trace ?cancel ~stats ~key input ~mem_pages =
  let page_size = Env.page_size (Heap_file.env input) in
  let p = Task_pool.domains pool in
  let total_bytes = Int.max 1 (Heap_file.num_pages input * page_size) in
  let slice_bytes =
    Int.max page_size (Int.min (mem_pages * page_size) total_bytes / p)
  in
  let slices = ref [] in
  iter_slices ?cancel input ~bytes:slice_bytes (fun slice ->
      slices := slice :: !slices);
  let jobs =
    List.rev_map
      (fun slice jtrace ->
        let penv =
          Env.create ~page_size ~pool_pages:(Int.max 1 (mem_pages / p)) ()
        in
        let pstats = penv.Env.stats in
        (* Phase-tag the private record: the run-writing I/O must count as
           [Sort] in the merged totals, not [Other]. *)
        Iostats.set_phase pstats (Some Iostats.Sort);
        Trace.with_span jtrace ~stats:pstats "run-formation" (fun () ->
            Cancel.check cancel;
            let run = write_decorated_run ~stats:pstats ~key penv slice in
            Buffer_pool.flush penv.Env.pool;
            Trace.set_rows jtrace (Array.length slice);
            run))
      !slices
  in
  let runs = Task_pool.run_list_traced ?trace ~label:"sort" pool jobs in
  List.iter
    (fun run ->
      let ps = (Heap_file.env run).Env.stats in
      Iostats.add_into stats ps;
      Iostats.reset ps;
      Iostats.set_phase ps (Some Iostats.Sort))
    runs;
  runs

let sort_support ?pool ?trace ?cancel input ~key ~mem_pages =
  if mem_pages < 3 then invalid_arg "External_sort.sort_support: mem_pages < 3";
  let env = Heap_file.env input in
  let stats = env.Env.stats in
  let fan_in = mem_pages - 1 in
  let merge = merge_keyed ?cancel ~stats ~key ~le:le_pair in
  Iostats.timed stats Iostats.Sort (fun () ->
      match pool with
      | Some pool when Task_pool.domains pool > 1 ->
          let runs =
            parallel_runs ~pool ?trace ?cancel ~stats ~key input ~mem_pages
          in
          let private_envs = ref (List.map Heap_file.env runs) in
          let pass_env env =
            let s =
              Env.create ~page_size:(Env.page_size env)
                ~pool_pages:(Int.max 1 (mem_pages / 2))
                ()
            in
            (* Intermediate merge passes write through this private
               record: that I/O is sort work too. *)
            Iostats.set_phase s.Env.stats (Some Iostats.Sort);
            private_envs := s :: !private_envs;
            s
          in
          Trace.with_span trace ~stats "k-way-merge" (fun () ->
              let out = merge_passes ~pass_env ~fan_in ~merge env runs in
              List.iter
                (fun pe -> Iostats.add_into stats pe.Env.stats)
                !private_envs;
              out)
      | _ ->
          let runs =
            Trace.with_span trace ~stats ~pool:env.Env.pool "run-formation"
              (fun () ->
                form_runs ?cancel input ~bytes:(mem_pages * Env.page_size env)
                  (write_decorated_run ~stats ~key env))
          in
          Trace.with_span trace ~stats ~pool:env.Env.pool "k-way-merge"
            (fun () -> merge_passes ~fan_in ~merge env runs))
