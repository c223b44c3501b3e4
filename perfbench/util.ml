(* Shared plumbing: clocks, percentiles, process memory, temp directories,
   clean-up on every exit path, and the metric lines [run.py] parses. *)

let now = Unix.gettimeofday

(* Nearest-rank percentile of unsorted samples; nan when there are none. *)
let percentile p samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median = percentile 0.5

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> Float.nan
      in
      scan ())

(* Clean-up actions run on every exit path: normal return, an exception
   escaping [main], [exit], SIGINT and SIGTERM. Each action must be
   idempotent; a failing action does not stop the others. *)
let cleanups : (unit -> unit) list ref = ref []
let cleanup_lock = Mutex.create ()

let on_exit f =
  Mutex.lock cleanup_lock;
  cleanups := f :: !cleanups;
  Mutex.unlock cleanup_lock

let run_cleanups () =
  Mutex.lock cleanup_lock;
  let fs = !cleanups in
  cleanups := [];
  Mutex.unlock cleanup_lock;
  List.iter (fun f -> try f () with _ -> ()) fs

let () =
  at_exit run_cleanups;
  let die code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigint (die 130);
  Sys.set_signal Sys.sigterm (die 143);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let temp_counter = ref 0

(* A fresh directory under [parent], removed at exit whatever happens. *)
let temp_dir ~parent prefix =
  incr temp_counter;
  let dir =
    Filename.concat parent
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !temp_counter)
  in
  rm_rf dir;
  mkdir_p dir;
  on_exit (fun () -> rm_rf dir);
  dir

(* One measured metric. [n] is the number of samples behind the value. *)
type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

type outcome = {
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless the run was traced *)
}

let note fmt = Printf.printf ("note " ^^ fmt ^^ "\n%!")

(* The lines [run.py] reads: one per metric, then the verdict. Values are
   printed with every digit a double carries. *)
let report o =
  let line kind m =
    Printf.printf "%s %s %.17g %s n=%d\n" kind m.name m.value m.unit_ m.n
  in
  List.iter (line "metric") o.end_to_end;
  List.iter (line "layer") o.per_layer;
  Printf.printf "verdict attempted=%d failed=%d\n%!" o.attempted o.failed

(* The end-to-end metrics every workload reports. [lats] are the
   latencies (ms) of the verified ops; [setup_s] one entry per set-up. *)
let end_to_end ~attempted ~failed ~wall ~lats ~setup_s ~rss =
  let n = List.length lats in
  [
    metric ~n "ops_per_s" "1/s" (float_of_int n /. wall);
    metric ~n "p50_ms" "ms" (percentile 0.5 lats);
    metric ~n "p90_ms" "ms" (percentile 0.9 lats);
    metric ~n "p99_ms" "ms" (percentile 0.99 lats);
    metric ~n:attempted "failed_ratio" "1"
      (float_of_int failed /. float_of_int (Int.max 1 attempted));
    metric ~n:(List.length setup_s) "setup_s" "s" (median setup_s);
    metric "peak_rss_mb" "MB" rss;
  ]

(* Tracing overhead of a traced run that alternates traced and untraced
   ops: [lats] pairs each latency with whether its op was traced. *)
let overhead lats =
  let side b = List.filter_map (fun (l, t) -> if t = b then Some l else None) lats in
  let traced = side true and untraced = side false in
  [
    metric ~n:(List.length traced) "trace.p50_ms" "ms" (median traced);
    metric ~n:(List.length untraced) "trace.untraced_p50_ms" "ms" (median untraced);
    metric ~n:(List.length traced) "trace.overhead" "1"
      (median traced /. median untraced);
  ]

(* Allocation and major collections of this process, per op. *)
let gc_per_op ~ops (g0 : Gc.stat) (g1 : Gc.stat) =
  [
    metric "gc.minor_mwords" "Mwords"
      ((g1.minor_words -. g0.minor_words) /. 1e6 /. ops);
    metric "gc.major_collections" "count"
      (float_of_int (g1.major_collections - g0.major_collections) /. ops);
  ]

(* Peak RSS read once [at_ops] ops have completed, or at the end of a run
   that never gets there. Reading it at a fixed op count keeps a faster
   build from being charged for running more ops into a heap that grows
   with the op count (join-large's does, by ~0.3 MB live per query). *)
type rss_probe = { pid : int; at_ops : int; mutable mb : float }

let rss_probe ?(pid = 0) at_ops = { pid; at_ops; mb = Float.nan }
let rss_tick p ~ops = if ops = p.at_ops then p.mb <- peak_rss_mb p.pid
let rss_value p = if Float.is_nan p.mb then peak_rss_mb p.pid else p.mb

let setups_per_run = 9

(* Set up [setups_per_run] times, timing each; all but the last are torn
   down. Returns the set-up times and the last set-up's value. *)
let setups ~setup ~teardown =
  let rec go k acc =
    let t0 = now () in
    let x = setup () in
    let s = now () -. t0 in
    if k = 1 then (List.rev (s :: acc), x)
    else begin
      teardown x;
      go (k - 1) (s :: acc)
    end
  in
  go setups_per_run []
