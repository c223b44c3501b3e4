(* serve: a spawned fsqld serving the demo database, loaded by a closed
   loop of two client connections (one query in flight each, as
   [Client.query] blocks). Each connection cycles the six nesting shapes;
   the workload seed sets where in the cycle each connection starts.
   Every answer must equal, value for value and degree bit for degree
   bit, what [Unnest.Planner.run] computes in-process on the same data.

   The database is fsqld's default one (demo seed 11) on every run: R, S
   and T are small (120, 120 and 60 tuples), so the answer sizes of a
   database drawn from the workload seed move p90, p99 and peak RSS by
   10-25% from seed to seed, more than any bound worth keeping. *)

open Frepro

(* The nesting shapes of the load bench, over [Server.Demo.load_nested]'s
   R(ID, Y, U), S(ID, Z, V), T(ID, W, P). *)
let shapes =
  [
    ("N", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V >= 20)");
    ("J", "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.V <= R.U)");
    ( "JX",
      "SELECT R.ID FROM R WHERE R.Y NOT IN (SELECT S.Z FROM S WHERE S.V >= \
       R.U)" );
    ( "JA",
      "SELECT R.ID FROM R WHERE R.Y >= (SELECT MAX(S.Z) FROM S WHERE S.V = \
       R.U)" );
    ( "JALL",
      "SELECT R.ID FROM R WHERE R.Y <= ALL (SELECT S.Z FROM S WHERE S.V = \
       R.U)" );
    ( "chain",
      "SELECT R.ID FROM R WHERE R.Y IN (SELECT S.Z FROM S WHERE S.Z IN \
       (SELECT T.W FROM T))" );
  ]

let connections = 2
let workers = 2
let demo_seed = 11

(* Answers in normal form: rows sorted, degrees as IEEE-754 bits. *)
let rows_of_relation rel =
  let rows = ref [] in
  Relational.Relation.iter rel (fun t ->
      rows :=
        ( Array.to_list (Array.map Relational.Value.to_string t.Relational.Ftuple.values),
          Int64.bits_of_float (Relational.Ftuple.degree t) )
        :: !rows);
  List.sort compare !rows

let rows_of_reply rows =
  List.sort compare
    (List.map
       (fun (r : Server.Client.row) -> (r.values, Int64.bits_of_float r.degree))
       rows)

type child = { pid : int; mutable port : int; mutable reaped : bool }

let stop child =
  if not child.reaped then begin
    child.reaped <- true;
    (try Unix.kill child.pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] child.pid) with Unix.Unix_error _ -> ()
  end

(* Start fsqld on an ephemeral port and read the port from its banner. *)
let spawn ~fsqld =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process fsqld
      [|
        fsqld; "--port"; "0"; "--workers"; string_of_int workers; "--seed";
        string_of_int demo_seed;
      |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let child = { pid; port = 0; reaped = false } in
  Util.on_exit (fun () -> stop child);
  let ic = Unix.in_channel_of_descr r in
  let rec banner () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "fsqld: listening on %_[^:]:%d" Fun.id with
        | Some port -> port
        | None -> banner ())
    | exception End_of_file -> failwith "fsqld exited before listening"
  in
  child.port <- Fun.protect ~finally:(fun () -> close_in_noerr ic) banner;
  child

(* Durations (microseconds) and counter args of the server-side spans in
   a Chrome trace from [Client.trace_json]: one event per line. *)
let field line key =
  let pat = "\"" ^ key ^ "\": " in
  let n = String.length pat and len = String.length line in
  let rec find i =
    if i + n > len then None
    else if String.sub line i n = pat then Some (i + n)
    else find (i + 1)
  in
  Option.map
    (fun start ->
      let stop = ref start in
      while !stop < len && not (List.mem line.[!stop] [ ','; '}' ]) do
        incr stop
      done;
      String.trim (String.sub line start (!stop - start)))
    (find 0)

let server_spans json =
  List.filter_map
    (fun line ->
      match (field line "ph", field line "name", field line "dur") with
      | Some "\"X\"", Some name, Some dur ->
          let name = String.sub name 1 (String.length name - 2) in
          let count k =
            Option.fold ~none:0 ~some:int_of_string (field line k)
          in
          Some
            ( name,
              float_of_string dur /. 1e6,
              (count "reads", count "writes", count "compares", count "fuzzy_ops")
            )
      | _ -> None)
    (String.split_on_char '\n' json)

(* One traced reply, in ms where a time. *)
type server_sample = {
  gap : float;  (** client latency minus the server's own elapsed time *)
  queue : float;
  plan : float;
  exec : float;
  sort : float;  (** External_sort run formation and merge inside exec *)
  sweep : float;  (** Join_merge window sweeps inside exec *)
  stream : float;  (** elapsed minus queue, plan and exec *)
  frames : float;
  reads : float;
  writes : float;
  compares : float;
  fuzzy : float;
}

(* Record the op's spans, the server-side ones read from the request's
   Chrome trace; [None] when the trace has already left the ring. *)
let record_server_side client ~op ~t0 ~t1 ~elapsed ~rows =
  let root = Spans.add ~op ~layer:"bench" "op" ~start_s:t0 ~end_s:t1 in
  let q =
    Spans.add ~parent:root ~op ~layer:"server" "Client.query" ~start_s:t0
      ~end_s:t1
  in
  let req_start = t1 -. elapsed in
  let req =
    Spans.add ~parent:q ~synth:true ~op ~layer:"server" "Daemon.request"
      ~start_s:req_start ~end_s:t1
  in
  Option.map
    (fun json ->
      let spans = server_spans json in
      let sum name =
        List.fold_left (fun a (n, d, _) -> if n = name then a +. d else a) 0.0 spans
      in
      let queue = sum "queue-wait" and plan = sum "plan" and exec = sum "exec" in
      let sort = sum "run-formation" +. sum "k-way-merge" and sweep = sum "sweep" in
      (* Lay each group of spans end to end from [start] under [parent]. *)
      let lay parent start group =
        ignore
          (List.fold_left
             (fun at (name, layer, d) ->
               ignore
                 (Spans.add ~parent ~synth:true ~op ~layer name ~start_s:at
                    ~end_s:(at +. d));
               at +. d)
             start group)
      in
      lay req req_start
        [
          ("Daemon.queue-wait", "server", queue);
          ("Check.check_string", "fuzzysql", plan);
        ];
      let exec_start = req_start +. queue +. plan in
      let run =
        Spans.add ~parent:req ~synth:true ~op ~layer:"unnest" "Planner.run"
          ~start_s:exec_start ~end_s:(exec_start +. exec)
      in
      lay run exec_start
        [
          ("External_sort", "storage", sort); ("Join_merge", "relational", sweep);
        ];
      let r, w, c, f =
        List.fold_left
          (fun ((r, w, c, f) as acc) (n, _, (r', w', c', f')) ->
            if n = "exec" then (r + r', w + w', c + c', f + f') else acc)
          (0, 0, 0, 0) spans
      in
      let ms s = 1000.0 *. s in
      {
        gap = ms (t1 -. t0 -. elapsed);
        queue = ms queue;
        plan = ms plan;
        exec = ms exec;
        sort = ms sort;
        sweep = ms sweep;
        stream = ms (elapsed -. queue -. plan -. exec);
        frames = float_of_int (rows + 2);
        reads = float_of_int r;
        writes = float_of_int w;
        compares = float_of_int c;
        fuzzy = float_of_int f;
      })
    (Server.Client.trace_json client (Server.Client.last_request_id client))

(* fsqld does not time bind or a bare [Planner.run] on its own, so those
   come from in-process probes per shape on the same seeded catalog. *)
let probes ~catalog ~reps =
  let results =
    List.map (fun (name, sql) -> (name, Probe.run ~catalog ~reps sql)) shapes
  in
  let all f = List.concat_map (fun (_, r) -> f r) results in
  let n = reps * List.length shapes in
  Util.metric ~n "fuzzysql.bind_ms" "ms" (Util.median (all (fun (b, _, _) -> b)))
  :: Util.metric ~n "fuzzysql.check_ms" "ms"
       (Util.median (all (fun (_, c, _) -> c)))
  :: List.map
       (fun (name, (_, _, e)) ->
         Util.metric ~n:reps ("unnest.exec_ms." ^ name) "ms" (Util.median e))
       results

let run ~fsqld ~seed ~seconds ~traced ~corrupt =
  let env = Storage.Env.create () in
  let catalog = Relational.Catalog.create env in
  Server.Demo.server_setup ~seed:demo_seed () env catalog;
  let expected =
    List.map
      (fun (name, sql) ->
        let answer =
          Unnest.Planner.run
            (Fuzzysql.Analyzer.bind_string ~catalog ~terms:Fuzzy.Term.paper sql)
        in
        let rows = rows_of_relation answer in
        Relational.Relation.destroy answer;
        (name, rows))
      shapes
  in
  (* The self-test's proof that the gate fires: one shape (not the one
     set-up verifies) expects a row the server never sends. *)
  let expected =
    if not corrupt then expected
    else
      List.map
        (fun (name, rows) ->
          if name = "chain" then (name, ([ "corrupted" ], 0L) :: rows)
          else (name, rows))
        expected
  in
  let verified client (name, sql) =
    match Server.Client.query client sql with
    | Server.Client.Answer { rows; _ } -> rows_of_reply rows = List.assoc name expected
    | _ -> false
  in
  (* Set-up: spawn until the first verified answer; the last server is
     kept for the measurement. *)
  let setup_s, (child, first) =
    Util.setups
      ~setup:(fun () ->
        let child = spawn ~fsqld in
        let client = Server.Client.connect ~timeout_ms:10_000 ~port:child.port () in
        if not (verified client (List.hd shapes)) then
          failwith "serve: fsqld's first answer differs from the in-process one";
        (child, client))
      ~teardown:(fun (child, client) ->
        Server.Client.close client;
        stop child)
  in
  let clients =
    first
    :: List.init (connections - 1) (fun _ ->
           Server.Client.connect ~timeout_ms:10_000 ~port:child.port ())
  in
  let lock = Mutex.create () in
  let attempted = ref 0 and failed = ref 0 in
  let lats = ref [] in
  let samples = ref [] and evicted = ref 0 in
  let rss = Util.rss_probe ~pid:child.pid 500 in
  let gc0 = Gc.quick_stat () in
  let start = Util.now () in
  let stop_at = start +. seconds in
  let cycle = List.length shapes in
  let phase = ((seed mod cycle) + cycle) mod cycle in
  let worker idx client () =
    let i = ref 0 and alive = ref true in
    while !alive && Util.now () < stop_at do
      let name, sql = List.nth shapes ((phase + !i + (3 * idx)) mod cycle) in
      (* The traced run alternates traced and untraced ops, so the two
         p50s it compares see the same load. *)
      let on = traced && !i mod 2 = 1 in
      incr i;
      let t0 = Util.now () in
      let reply =
        try Ok (Server.Client.query client sql) with e -> Error e
      in
      let t1 = Util.now () in
      Mutex.lock lock;
      incr attempted;
      Util.rss_tick rss ~ops:!attempted;
      (match reply with
      | Ok (Server.Client.Answer { rows; server_elapsed_s; _ }) ->
          if rows_of_reply rows = List.assoc name expected then
            lats := (1000.0 *. (t1 -. t0), on) :: !lats
          else incr failed;
          Mutex.unlock lock;
          if on then begin
            let sample =
              record_server_side client ~op:(Spans.fresh_op ()) ~t0 ~t1
                ~elapsed:server_elapsed_s ~rows:(List.length rows)
            in
            Mutex.lock lock;
            (match sample with
            | Some x -> samples := x :: !samples
            | None -> incr evicted);
            Mutex.unlock lock
          end
      | Ok
          ( Server.Client.Failed _ | Server.Client.Retryable _
          | Server.Client.Overloaded | Server.Client.Rejected _
          | Server.Client.Cancelled _ ) ->
          incr failed;
          Mutex.unlock lock
      | Error e ->
          incr failed;
          Mutex.unlock lock;
          Util.note "serve: connection %d failed: %s" idx (Printexc.to_string e);
          alive := false)
    done
  in
  let threads = List.mapi (fun i c -> Thread.create (worker i c) ()) clients in
  List.iter Thread.join threads;
  let wall = Util.now () -. start in
  let gc1 = Gc.quick_stat () in
  let rss = Util.rss_value rss in
  List.iter Server.Client.close clients;
  stop child;
  let all_lats = List.map fst !lats in
  let end_to_end =
    Util.end_to_end ~attempted:!attempted ~failed:!failed ~wall ~lats:all_lats
      ~setup_s ~rss
  in
  let per_layer =
    if not traced then []
    else begin
      let ops = float_of_int (Int.max 1 !attempted) in
      let n = List.length !samples in
      let field f = List.map f !samples in
      let at p name unit_ f = Util.metric ~n name unit_ (Util.percentile p (field f)) in
      let mean name unit_ f = Util.metric ~n name unit_ (Util.mean (field f)) in
      Util.note "serve: %d traced replies had left the server's trace ring"
        !evicted;
      [
        at 0.5 "server.wire.gap_ms" "ms" (fun x -> x.gap);
        mean "server.wire.frames_per_query" "count" (fun x -> x.frames);
        at 0.5 "server.daemon.queue_wait_ms" "ms" (fun x -> x.queue);
        at 0.99 "server.daemon.queue_wait_ms.p99" "ms" (fun x -> x.queue);
        at 0.5 "server.daemon.plan_ms" "ms" (fun x -> x.plan);
        at 0.5 "server.daemon.exec_ms" "ms" (fun x -> x.exec);
        at 0.99 "server.daemon.exec_ms.p99" "ms" (fun x -> x.exec);
        at 0.5 "server.daemon.stream_ms" "ms" (fun x -> x.stream);
        at 0.5 "storage.sort_ms" "ms" (fun x -> x.sort);
        at 0.5 "relational.sweep_ms" "ms" (fun x -> x.sweep);
        mean "storage.page_reads" "count" (fun x -> x.reads);
        mean "storage.page_writes" "count" (fun x -> x.writes);
        mean "relational.comparisons" "count" (fun x -> x.compares);
        mean "fuzzy.ops" "count" (fun x -> x.fuzzy);
      ]
      @ Util.gc_per_op ~ops gc0 gc1
      @ Util.overhead !lats
      @ Spans.layer_metrics ~root:"op"
      @ probes ~catalog ~reps:10
    end
  in
  { Util.attempted = !attempted; failed = !failed; end_to_end; per_layer }
