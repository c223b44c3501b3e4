(* The repository benchmark's measuring program. [run.py] builds it and
   turns its output into the benchmark's result line; run it through
   [python3 perfbench/run.py]. Usage:

     bench.exe --workload serve|join-large|ingest --seed N --seconds S
               --trace 0|1 --fsqld PATH --out DIR [--tiny] [--corrupt]

   Prints "metric" lines (end to end), "layer" lines (traced runs only),
   "note" lines, and a closing "verdict" line. [--tiny] shrinks the
   join-large relations for the self-test; [--corrupt] makes the expected
   answer wrong on purpose, so the self-test can see the gate fire. *)

(* Per-layer counts every traced run prints, so each workload reports the
   same names; a layer the workload does not cross did zero work. *)
let universal_counts =
  [
    ("storage.page_reads", "count");
    ("storage.page_writes", "count");
    ("relational.comparisons", "count");
    ("fuzzy.ops", "count");
    ("storage.wal.fsyncs_per_commit", "count");
    ("storage.wal.bytes_per_user_byte", "1");
    ("server.wire.frames_per_query", "count");
    ("server.replication.lag_bytes_max", "bytes");
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and fsqld = ref "" and out = ref ".perfbench" in
  let tiny = ref false and corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " serve | join-large | ingest");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured run length");
      ("--trace", Arg.Set_int trace, " 1 for the traced run");
      ("--fsqld", Arg.Set_string fsqld, " path to the fsqld executable");
      ("--out", Arg.Set_string out, " directory for span files and temp data");
      ("--tiny", Arg.Set tiny, " self-test sizes");
      ("--corrupt", Arg.Set corrupt, " corrupt the expected answer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 --fsqld PATH";
  let traced = !trace = 1 in
  Util.mkdir_p !out;
  let seed = !seed and seconds = !seconds and corrupt = !corrupt in
  let o =
    match !workload with
    | "serve" -> Serve.run ~fsqld:!fsqld ~seed ~seconds ~traced ~corrupt
    | "join-large" -> Join_large.run ~seed ~seconds ~traced ~corrupt ~tiny:!tiny
    | "ingest" ->
        Ingest.run ~seed ~seconds ~traced ~corrupt
          ~scratch:(Filename.concat !out "tmp")
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let o =
    if not traced then o
    else begin
      let path =
        Filename.concat !out (Printf.sprintf "spans-%s-seed%d.jsonl" !workload seed)
      in
      Spans.write ~path;
      Util.note "spans written to %s" path;
      let have name = List.exists (fun m -> m.Util.name = name) o.per_layer in
      let missing =
        List.filter_map
          (fun (name, unit_) ->
            if have name then None else Some (Util.metric ~n:0 name unit_ 0.0))
          universal_counts
      in
      { o with per_layer = o.per_layer @ missing }
    end
  in
  Util.report o;
  Util.run_cleanups ()
