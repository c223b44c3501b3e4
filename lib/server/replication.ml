(* WAL-shipped replication: a primary-side sender that streams raw log
   bytes to subscribers, and a replica-side applier that catches up from
   a snapshot, tails the log, applies page effects, and acks applied
   LSNs.

   Correctness rests on three invariants:

   - {e Byte identity}: the replica's log file is at all times a
     byte-prefix of some committed prefix of the primary's log. The
     sender reads raw frames through its own fd and the applier appends
     them verbatim (never re-framing), so LSNs coincide and every frame
     re-validates locally.

   - {e Commit-boundary draining}: the applier makes bytes durable only
     through the last [Commit]/[Checkpoint] boundary received
     ({!Storage.Wal_stream.Tail}), so nothing the primary's own recovery
     could truncate ever reaches the replica's disk, and the replica's
     log is clean-ended whenever the applier is between batches — a
     read-only worker can open it at any such moment.

   - {e Epoch fencing}: a monotone epoch is persisted in the manifest
     ([Epoch] records + every checkpoint). Promotion bumps it. A sender
     whose subscriber presents a newer epoch refuses the stream
     ([Rep_fence]) and counts itself fenced; an applier rejects any
     hello/batch carrying an older epoch. A zombie primary can therefore
     never feed bytes to a promoted replica, and a replica can never
     resubscribe to a stale primary — divergence is structurally
     impossible, not just unlikely.

   Snapshot catch-up is taken online, without pausing the primary: copy
   the data file first, then the log up to a commit boundary captured
   {e after} the data copy. Any page being written concurrently was, by
   the WAL rule, touched since the last checkpoint, so the shipped log
   prefix contains its full [Page_image] and redo rebuilds it from the
   log alone — a torn read of the data file is harmless. Pages untouched
   since the last checkpoint are never written concurrently. The replica
   replays the pair with {!Storage.Recovery.recover ~checkpoint:false},
   which keeps the log byte-identical. *)

module Wal = Storage.Wal
module Wal_stream = Storage.Wal_stream
module Recovery = Storage.Recovery
module Real_disk = Storage.Real_disk

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e

(* A writer-preference readers/writer lock: replica query workers read
   while the applier (and promotion) writes. Writer preference keeps a
   steady query load from starving the apply loop. *)
module Rw = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;
    mutable waiting : int;
  }

  let create () =
    {
      m = Mutex.create ();
      c = Condition.create ();
      readers = 0;
      writer = false;
      waiting = 0;
    }

  let read_acquire t =
    Mutex.lock t.m;
    while t.writer || t.waiting > 0 do
      Condition.wait t.c t.m
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m

  let read_release t =
    Mutex.lock t.m;
    t.readers <- t.readers - 1;
    if t.readers = 0 then Condition.broadcast t.c;
    Mutex.unlock t.m

  let write_acquire t =
    Mutex.lock t.m;
    t.waiting <- t.waiting + 1;
    while t.writer || t.readers > 0 do
      Condition.wait t.c t.m
    done;
    t.waiting <- t.waiting - 1;
    t.writer <- true;
    Mutex.unlock t.m

  let write_release t =
    Mutex.lock t.m;
    t.writer <- false;
    Condition.broadcast t.c;
    Mutex.unlock t.m

  let with_read t f =
    read_acquire t;
    Fun.protect ~finally:(fun () -> read_release t) f

  let with_write t f =
    write_acquire t;
    Fun.protect ~finally:(fun () -> write_release t) f
end

(* A wake-up bell: a sequence number and a condition under one mutex.
   [ring] bumps the number and wakes every waiter. A waiter samples
   [seq] {e before} checking the state it awaits and hands the sample to
   [wait], which returns at once if the bell has rung since — so a change
   landing between the check and the wait is never missed.

   The mutex is a leaf lock: [ring] runs inside the WAL's write-out hook,
   under the WAL's mutex, so nothing may take another lock or call into
   the WAL while holding it.

   OCaml 5.1's [Condition] has no timed wait, so deadlines, heartbeats
   and flags set without a ring are served by a ticker: while anyone is
   parked in [wait], one thread per bell rings it every [tick_s]. The
   ticker exits by itself once nobody is parked and is never joined, so
   no set-up or stop path waits out a tick. Waiters therefore re-check
   their own deadline after every wake-up; each is late by at most
   [tick_s]. *)
module Bell = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable seq : int;
    mutable parked : int;  (** threads blocked in [wait] *)
    mutable ticking : bool;  (** a ticker thread is alive *)
  }

  let tick_s = 0.05

  let create () =
    {
      m = Mutex.create ();
      c = Condition.create ();
      seq = 0;
      parked = 0;
      ticking = false;
    }

  let seq t = with_lock t.m (fun () -> t.seq)

  let ring_locked t =
    t.seq <- t.seq + 1;
    Condition.broadcast t.c

  let ring t = with_lock t.m (fun () -> ring_locked t)

  let rec ticker t =
    Thread.delay tick_s;
    let again =
      with_lock t.m (fun () ->
          if t.parked = 0 then t.ticking <- false else ring_locked t;
          t.ticking)
    in
    if again then ticker t

  (* Block until the bell rings after [seen] (a ring or a tick). *)
  let wait t ~seen =
    with_lock t.m (fun () ->
        if t.seq = seen then begin
          if not t.ticking then begin
            ignore (Thread.create ticker t);
            t.ticking <- true
          end;
          t.parked <- t.parked + 1;
          while t.seq = seen do
            Condition.wait t.c t.m
          done;
          t.parked <- t.parked - 1
        end)

  (* Block until [ready ()] holds (true) or [deadline] passes (false). *)
  let await t ~deadline ready =
    let rec go () =
      let seen = seq t in
      if ready () then true
      else if Unix.gettimeofday () >= deadline then false
      else begin
        wait t ~seen;
        go ()
      end
    in
    go ()
end

let chunk_bytes = 1 lsl 20
let batch_bytes = 256 * 1024
let heartbeat_s = 0.2

(* The stream id names the log {e file generation}: a checkpoint
   rewrites the log via tmp+rename, resetting every LSN, so a subscriber
   must never splice offsets across generations. Deriving the id from
   the inode (plus device) makes it stable across subscribers and
   changes it exactly at rotation, with no shared counter. *)
let stream_id_of_path path =
  try
    let st = Unix.stat path in
    Int64.logor
      (Int64.shift_left (Int64.of_int st.Unix.st_dev) 48)
      (Int64.logand (Int64.of_int st.Unix.st_ino) 0xFFFFFFFFFFFFL)
  with Unix.Unix_error _ -> 0L

(* ------------------------------------------------------------------ *)
(* Sender (primary side) *)

module Sender = struct
  type source =
    | Live of Wal.t  (** a writable primary's open log *)
    | Static of { static_end : int; static_epoch : int }
        (** a promoted (or load-complete) node's quiescent log *)

  type sub = {
    sub_id : int;
    sub_send : Wire.reply -> unit;  (** serialised per connection; raises
                                        when the peer is gone *)
    sub_from : int;
    sub_stream : int64;
    mutable sub_acked : int;
    mutable sub_alive : bool;
  }

  type t = {
    wal_path : string;
    data_path : string;
    page_size : int;
    source : source;
    lock : Mutex.t;
    bell : Bell.t;
        (** rung when the shippable end moves, an ack arrives, a
            subscriber is dropped, or the sender stops *)
    subs : (int, sub) Hashtbl.t;
    mutable next_sub : int;
    mutable fenced : int;
        (** subscribe attempts that presented a newer epoch — each one
            is proof this sender is a zombie *)
    mutable snapshots_sent : int;
    mutable stopped : bool;
    mutable listen_fd : Unix.file_descr option;
    mutable conns : Unix.file_descr list;
        (** accepted replication connections — shut down on {!stop} so
            reader threads blocked on an idle replica unblock *)
    mutable threads : Thread.t list;
  }

  let epoch t =
    match t.source with
    | Live wal -> Wal.epoch wal
    | Static { static_epoch; _ } -> static_epoch

  (* The shippable end: a commit boundary whose bytes are visible in the
     file. *)
  let shippable_end t =
    match t.source with
    | Static { static_end; _ } -> static_end
    | Live wal -> Wal.shippable_end wal

  let make ~wal_path ~data_path ~page_size ~source =
    {
      wal_path;
      data_path;
      page_size;
      source;
      lock = Mutex.create ();
      bell = Bell.create ();
      subs = Hashtbl.create 4;
      next_sub = 1;
      fenced = 0;
      snapshots_sent = 0;
      stopped = false;
      listen_fd = None;
      conns = [];
      threads = [];
    }

  (* A primary that has never been part of a replicated pair carries
     epoch 0; adopt epoch 1 on first use so "epoch 0" always reads as
     "replication never enabled" in metrics, and the first promotion
     lands on 2. *)
  let create ~env =
    match (Storage.Env.wal env, Storage.Disk.as_real env.Storage.Env.disk) with
    | Some wal, Some disk ->
        if (not (Wal.readonly wal)) && Wal.epoch wal = 0 then begin
          Wal.log_epoch wal 1;
          Wal.commit wal
        end;
        let t =
          make ~wal_path:(Wal.path wal) ~data_path:(Real_disk.path disk)
            ~page_size:(Real_disk.page_size disk) ~source:(Live wal)
        in
        Wal.set_write_out_hook wal (fun () -> Bell.ring t.bell);
        t
    | _ -> invalid_arg "Replication.Sender.create: environment not durable"

  let create_for_dir ~dir =
    let wal_path = Recovery.wal_path_of dir in
    match Wal_stream.committed_state ~path:wal_path with
    | Error msg -> invalid_arg ("Replication.Sender.create_for_dir: " ^ msg)
    | Ok (static_end, static_epoch) ->
        let stats = Storage.Iostats.create () in
        let disk = Real_disk.open_existing ~readonly:true ~dir stats in
        let page_size = Real_disk.page_size disk in
        let data_path = Real_disk.path disk in
        Real_disk.close disk;
        make ~wal_path ~data_path ~page_size
          ~source:(Static { static_end; static_epoch })

  let stream_id t = stream_id_of_path t.wal_path

  let sub_dead t sub =
    with_lock t.lock (fun () -> sub.sub_alive <- false)

  (* Stream one file region as snapshot chunks through [send]. *)
  let send_chunks sub ~kind ~path ~upto =
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let buf = Bytes.create chunk_bytes in
        let rec go off =
          if off < upto then begin
            let want = min chunk_bytes (upto - off) in
            let got =
              let rec read_some () =
                try Unix.read fd buf 0 want
                with Unix.Unix_error (Unix.EINTR, _, _) -> read_some ()
              in
              read_some ()
            in
            if got = 0 then
              failwith (Printf.sprintf "%s shrank below %d" path upto);
            sub.sub_send
              (Wire.Rep_chunk
                 {
                   kind;
                   off;
                   data = Bytes.sub_string buf 0 got;
                 });
            go (off + got)
          end
        in
        go 0)

  (* One subscriber's streaming session. Runs on its own thread; every
     [sub_send] failure (peer gone) or sender stop ends it. *)
  let rec session t sub ~first =
    let sid = stream_id t in
    let e = shippable_end t in
    if
      first && Int64.equal sub.sub_stream sid
      && sub.sub_from >= Wal.header_size
      && sub.sub_from <= e
    then begin
      (* The subscriber tailed this very file generation before: resume
         without a snapshot. *)
      sub.sub_send
        (Wire.Rep_hello
           {
             epoch = epoch t;
             stream_id = sid;
             page_size = t.page_size;
             snapshot = false;
             start_lsn = sub.sub_from;
             data_len = 0;
           });
      tail t sub ~pos:sub.sub_from
    end
    else snapshot t sub ~sid

  and snapshot t sub ~sid =
    with_lock t.lock (fun () -> t.snapshots_sent <- t.snapshots_sent + 1);
    let data_len =
      try (Unix.stat t.data_path).Unix.st_size with Unix.Unix_error _ -> 0
    in
    sub.sub_send
      (Wire.Rep_hello
         {
           epoch = epoch t;
           stream_id = sid;
           page_size = t.page_size;
           snapshot = true;
           start_lsn = 0;
           data_len;
         });
    (* Data first, then the log up to a boundary captured AFTER the data
       copy: every page racing the copy is then covered by a full image
       in the shipped log prefix (see the module comment). *)
    if data_len > 0 then
      send_chunks sub ~kind:Wire.Data_chunk ~path:t.data_path ~upto:data_len;
    if not (Int64.equal (stream_id t) sid) then
      (* rotated mid-copy: every LSN we were about to ship is dead *)
      session t sub ~first:false
    else begin
      let e = shippable_end t in
      send_chunks sub ~kind:Wire.Wal_chunk ~path:t.wal_path ~upto:e;
      if not (Int64.equal (stream_id t) sid) then session t sub ~first:false
      else begin
        (* Empty batch = snapshot-complete marker; its [start_lsn] tells
           the applier where the tail begins. *)
        sub.sub_send
          (Wire.Rep_wal
             { epoch = epoch t; start_lsn = e; primary_end = e; data = "" });
        tail t sub ~pos:e
      end
    end

  and tail t sub ~pos =
    let cur = Wal_stream.Cursor.open_at ~path:t.wal_path ~pos in
    let restart =
      Fun.protect
        ~finally:(fun () -> Wal_stream.Cursor.close cur)
        (fun () ->
          let last_sent = ref (Unix.gettimeofday ()) in
          let rec loop pos =
            let seen = Bell.seq t.bell in
            if t.stopped || not sub.sub_alive then false
            else begin
              (* Read [e] before the rotation check: a checkpoint renames
                 the log before it publishes the new generation's end, so
                 an end read here is never applied to the wrong file. *)
              let e = shippable_end t in
              if Wal_stream.Cursor.rotated cur then true
              else if pos < e then begin
                let data = Wal_stream.Cursor.read cur ~upto:e ~max:batch_bytes in
                let n = Bytes.length data in
                if n = 0 then
                  (* the file holds less than its shippable end — never
                     expected; resync through a fresh session *)
                  true
                else begin
                  sub.sub_send
                    (Wire.Rep_wal
                       {
                         epoch = epoch t;
                         start_lsn = pos;
                         primary_end = e;
                         data = Bytes.unsafe_to_string data;
                       });
                  last_sent := Unix.gettimeofday ();
                  loop (pos + n)
                end
              end
              else begin
                let now = Unix.gettimeofday () in
                if now -. !last_sent >= heartbeat_s then begin
                  sub.sub_send
                    (Wire.Rep_wal
                       { epoch = epoch t; start_lsn = pos; primary_end = e; data = "" });
                  last_sent := now
                end;
                Bell.wait t.bell ~seen;
                loop pos
              end
            end
          in
          loop pos)
    in
    if restart && (not t.stopped) && sub.sub_alive then
      session t sub ~first:false

  (* Handle one [Rep_subscribe]: returns [Some sub_id] and starts the
     streaming thread, or [None] after fencing the subscriber (its epoch
     is newer — we are the zombie). *)
  let serve t ~epoch:sub_epoch ~stream_id:sub_stream ~from_lsn ~send =
    let my_epoch = epoch t in
    if sub_epoch > my_epoch then begin
      with_lock t.lock (fun () -> t.fenced <- t.fenced + 1);
      (try send (Wire.Rep_fence { epoch = my_epoch })
       with _ -> ());
      None
    end
    else begin
      let sub =
        with_lock t.lock (fun () ->
            let id = t.next_sub in
            t.next_sub <- id + 1;
            let sub =
              {
                sub_id = id;
                sub_send = send;
                sub_from = from_lsn;
                sub_stream;
                sub_acked = 0;
                sub_alive = true;
              }
            in
            Hashtbl.replace t.subs id sub;
            sub)
      in
      let th =
        Thread.create
          (fun () ->
            (try session t sub ~first:true with
            | Wire.Connection_closed | Unix.Unix_error _ | Sys_error _
            | Failure _ ->
                ());
            sub_dead t sub)
          ()
      in
      with_lock t.lock (fun () -> t.threads <- th :: t.threads);
      Some sub.sub_id
    end

  let ack t ~id ~applied_lsn =
    with_lock t.lock (fun () ->
        match Hashtbl.find_opt t.subs id with
        | Some sub -> if applied_lsn > sub.sub_acked then sub.sub_acked <- applied_lsn
        | None -> ());
    Bell.ring t.bell

  let drop t ~id =
    with_lock t.lock (fun () ->
        match Hashtbl.find_opt t.subs id with
        | Some sub ->
            sub.sub_alive <- false;
            Hashtbl.remove t.subs id
        | None -> ());
    Bell.ring t.bell

  let connected t =
    with_lock t.lock (fun () ->
        Hashtbl.fold
          (fun _ sub n -> if sub.sub_alive then n + 1 else n)
          t.subs 0)

  (* Worst-case acked LSN over live subscribers (min), for the lag
     gauge; [None] with no live subscriber. *)
  let min_acked t =
    with_lock t.lock (fun () ->
        Hashtbl.fold
          (fun _ sub acc ->
            if not sub.sub_alive then acc
            else
              match acc with
              | None -> Some sub.sub_acked
              | Some a -> Some (min a sub.sub_acked))
          t.subs None)

  let max_acked t =
    with_lock t.lock (fun () ->
        Hashtbl.fold
          (fun _ sub acc -> max acc sub.sub_acked)
          t.subs 0)

  let lag_bytes t =
    match min_acked t with
    | None -> 0
    | Some a -> max 0 (shippable_end t - a)

  let fenced t = with_lock t.lock (fun () -> t.fenced)
  let snapshots_sent t = with_lock t.lock (fun () -> t.snapshots_sent)

  (* Semi-synchronous commit: block until some replica has applied (and
     fsynced) through [lsn]. The chaos harness acks its writer's
     progress only after this returns, which is what makes
     "zero acknowledged-commit loss" a theorem rather than a race. *)
  let wait_applied t ~lsn ~timeout_s =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let applied () = max_acked t >= lsn in
    ignore (Bell.await t.bell ~deadline (fun () -> applied () || t.stopped));
    applied ()

  (* A minimal replication-only accept loop, for primaries that are not
     full daemons (the chaos harness's forked child). Handles
     [Rep_subscribe] / [Rep_ack] / [Promote]-free traffic only. *)
  let listen ?(host = "127.0.0.1") ~port t =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 16;
    let actual_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    t.listen_fd <- Some fd;
    let conn_loop cfd =
      let wlock = Mutex.create () in
      let send r = with_lock wlock (fun () -> Wire.write_reply cfd r) in
      let sub = ref None in
      (try
         while not t.stopped do
           match Wire.read_request cfd with
           | Wire.Rep_subscribe { epoch; stream_id; from_lsn } ->
               sub := serve t ~epoch ~stream_id ~from_lsn ~send
           | Wire.Rep_ack { epoch = _; applied_lsn } -> (
               match !sub with
               | Some id -> ack t ~id ~applied_lsn
               | None -> ())
           | _ -> ()
         done
       with
      | Wire.Connection_closed | Wire.Protocol_error _ | Unix.Unix_error _ ->
          ());
      (match !sub with Some id -> drop t ~id | None -> ());
      with_lock t.lock (fun () ->
          t.conns <- List.filter (fun fd -> fd != cfd) t.conns);
      try Unix.close cfd with Unix.Unix_error _ -> ()
    in
    let accept_loop () =
      let rec loop () =
        if not t.stopped then
          match Unix.accept fd with
          | cfd, _ ->
              Wire.set_nodelay cfd;
              with_lock t.lock (fun () -> t.conns <- cfd :: t.conns);
              let th = Thread.create conn_loop cfd in
              with_lock t.lock (fun () -> t.threads <- th :: t.threads);
              loop ()
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
            ->
              loop ()
          | exception Unix.Unix_error _ -> ()
      in
      loop ()
    in
    let th = Thread.create accept_loop () in
    with_lock t.lock (fun () -> t.threads <- th :: t.threads);
    actual_port

  let stop t =
    t.stopped <- true;
    (match t.listen_fd with
    | Some fd ->
        t.listen_fd <- None;
        (* unblock accept *)
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    let subs = with_lock t.lock (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) t.subs []) in
    List.iter (fun s -> s.sub_alive <- false) subs;
    (* Wake streaming threads and [wait_applied] callers. *)
    Bell.ring t.bell;
    (* Unblock reader threads parked on idle replicas: without this a
       stop racing a quiet subscriber would deadlock the join below. *)
    let conns = with_lock t.lock (fun () -> t.conns) in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    let threads = with_lock t.lock (fun () -> t.threads) in
    List.iter (fun th -> try Thread.join th with _ -> ()) threads
end

(* ------------------------------------------------------------------ *)
(* Replica (applier side) *)

module Replica = struct
  exception Fenced of int
  (** the stream carried epoch [e] older than ours — stale primary *)

  exception Resync
  (** stream discontinuity — drop the connection, subscribe afresh *)

  type t = {
    dir : string;
    host : string;
    port : int;
    stats : Storage.Iostats.t;
    rw : Rw.t;
    lock : Mutex.t;
    bell : Bell.t;  (** rung wherever [synced] is set *)
    mutable epoch : int;
    mutable applied : int;  (** applied + fsynced through this LSN *)
    mutable primary_end : int;  (** last shippable end heard *)
    mutable generation : int;
        (** bumped per applied batch (and at promotion): workers rebuild
            their environments when it moves *)
    mutable last_caught_up : float;  (** 0.0 = never *)
    mutable connected : bool;
    mutable synced : bool;  (** first catch-up complete *)
    mutable fenced_rejects : int;
        (** frames/hellos rejected for carrying an older epoch *)
    mutable snapshots : int;
    mutable stream : int64;  (** last stream generation tailed *)
    mutable stopping : bool;
    mutable promoted : bool;
    mutable client : Client.t option;
    mutable thread : Thread.t option;
    mutable disk : Real_disk.t option;  (** writable apply handle *)
    mutable appender : Wal_stream.Appender.t option;
  }

  let create ~dir ~primary () =
    let host, port =
      match String.rindex_opt primary ':' with
      | None ->
          invalid_arg
            ("Replication.Replica.create: expected HOST:PORT, got " ^ primary)
      | Some i -> (
          let host = String.sub primary 0 i in
          let port_s =
            String.sub primary (i + 1) (String.length primary - i - 1)
          in
          match int_of_string_opt port_s with
          | Some p when p > 0 && p < 65536 ->
              ((if host = "" then "127.0.0.1" else host), p)
          | _ ->
              invalid_arg
                ("Replication.Replica.create: bad port in " ^ primary))
    in
    {
      dir;
      host;
      port;
      stats = Storage.Iostats.create ();
      rw = Rw.create ();
      lock = Mutex.create ();
      bell = Bell.create ();
      epoch = 0;
      applied = 0;
      primary_end = 0;
      generation = 0;
      last_caught_up = 0.0;
      connected = false;
      synced = false;
      fenced_rejects = 0;
      snapshots = 0;
      stream = 0L;
      stopping = false;
      promoted = false;
      client = None;
      thread = None;
      disk = None;
      appender = None;
    }

  let close_handles t =
    (match t.appender with
    | Some a ->
        Wal_stream.Appender.close a;
        t.appender <- None
    | None -> ());
    match t.disk with
    | Some d ->
        (try Real_disk.close d with _ -> ());
        t.disk <- None
    | None -> ()

  (* Bring the local directory to a clean, applied state and open the
     apply handles. Returns the local committed boundary. Runs with
     [~checkpoint:false]: the local log must stay a byte-prefix of the
     primary's. *)
  let open_local t =
    close_handles t;
    let disk, wal, _report =
      Recovery.recover ~checkpoint:false ~dir:t.dir t.stats
    in
    let boundary = Wal.committed_end wal in
    let epoch = Wal.epoch wal in
    Wal.close wal;
    t.disk <- Some disk;
    t.appender <- Some (Wal_stream.Appender.open_at ~path:(Recovery.wal_path_of t.dir));
    with_lock t.lock (fun () ->
        if epoch > t.epoch then t.epoch <- epoch;
        t.applied <- boundary);
    boundary

  let zero_page psize = Bytes.make psize '\000'

  (* Redo one shipped batch's records against the replica's data file.
     Identical in spirit to {!Recovery.redo}, but incremental: pages
     already reflect every earlier record, so deltas apply in place. Each
     touched page is read at most once and written once, after the
     batch's last record on it: a commit's deltas mostly share a page,
     and every page read and write checksums the whole page. *)
  let apply_records t disk records =
    let psize = Real_disk.page_size disk in
    let touched = Hashtbl.create 8 in
    let image page =
      match Hashtbl.find_opt touched page with
      | Some img -> img
      | None ->
          let img = Real_disk.read disk page in
          Hashtbl.replace touched page img;
          img
    in
    List.iter
      (fun (_, r) ->
        match r with
        | Wal.Alloc { page; _ } ->
            Real_disk.ensure_pages disk (page + 1);
            Hashtbl.replace touched page (zero_page psize)
        | Wal.Page_image { page; data } ->
            Real_disk.ensure_pages disk (page + 1);
            let b = zero_page psize in
            Bytes.blit data 0 b 0 (min (Bytes.length data) psize);
            Hashtbl.replace touched page b
        | Wal.Heap_append { page; off; count; data } ->
            let len = Bytes.length data in
            if off < 2 || off + len > psize then
              failwith
                (Printf.sprintf "replica: heap append outside page (page %d)"
                   page);
            let img = image page in
            Bytes.blit data 0 img off len;
            Bytes.set_uint8 img 0 (count land 0xff);
            Bytes.set_uint8 img 1 ((count lsr 8) land 0xff)
        | Wal.Epoch { epoch } ->
            with_lock t.lock (fun () -> if epoch > t.epoch then t.epoch <- epoch)
        | Wal.Free _ | Wal.Define _ | Wal.Commit | Wal.Checkpoint _ -> ())
      records;
    Hashtbl.iter (fun page img -> Real_disk.write ~lsn:0 disk page img) touched

  (* Apply one drained batch under the write lock: log bytes first
     (append + fsync — the durability point the ack reports), then the
     page effects. A crash between the two is safe: local recovery
     replays the freshly-appended records. *)
  let apply_batch t (d : Wal_stream.Tail.drained) =
    let disk =
      match t.disk with
      | Some d -> d
      | None -> failwith "replica: no disk handle"
    in
    let appender =
      match t.appender with
      | Some a -> a
      | None -> failwith "replica: no appender"
    in
    Rw.with_write t.rw (fun () ->
        Wal_stream.Appender.append appender d.Wal_stream.Tail.bytes;
        Wal_stream.Appender.fsync appender;
        apply_records t disk d.Wal_stream.Tail.records);
    with_lock t.lock (fun () ->
        t.applied <- d.Wal_stream.Tail.new_end;
        t.generation <- t.generation + 1;
        t.synced <- true);
    Bell.ring t.bell

  (* Snapshot reception state: the two .sync files being filled. *)
  type snap = {
    mutable d_fd : Unix.file_descr option;
    mutable d_off : int;
    mutable w_fd : Unix.file_descr option;
    mutable w_off : int;
  }

  let snap_close s =
    (match s.d_fd with
    | Some fd -> ( (try Unix.close fd with Unix.Unix_error _ -> ()); s.d_fd <- None)
    | None -> ());
    match s.w_fd with
    | Some fd -> ( (try Unix.close fd with Unix.Unix_error _ -> ()); s.w_fd <- None)
    | None -> ()

  let fsync_dir dir =
    match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | fd ->
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()

  (* Swap the received snapshot into place and replay it. Under the
     write lock so no reader sees the directory mid-swap; readers hold
     fds on the old files, which rename leaves intact. *)
  let finish_snapshot t snap ~tail_start =
    let data_path = Real_disk.path_of t.dir in
    let wal_path = Recovery.wal_path_of t.dir in
    (match (snap.d_fd, snap.w_fd) with
    | Some dfd, Some wfd ->
        Unix.fsync dfd;
        Unix.fsync wfd
    | _ -> raise Resync);
    snap_close snap;
    if snap.w_off <> tail_start then raise Resync;
    Rw.with_write t.rw (fun () ->
        close_handles t;
        Unix.rename (data_path ^ ".sync") data_path;
        Unix.rename (wal_path ^ ".sync") wal_path;
        fsync_dir t.dir);
    let boundary = open_local t in
    if boundary <> tail_start then raise Resync;
    with_lock t.lock (fun () ->
        t.generation <- t.generation + 1;
        t.synced <- true;
        t.snapshots <- t.snapshots + 1);
    Bell.ring t.bell

  let send_ack t fd =
    let epoch, applied = with_lock t.lock (fun () -> (t.epoch, t.applied)) in
    Wire.write_request fd (Wire.Rep_ack { epoch; applied_lsn = applied })

  let note_progress t ~primary_end =
    with_lock t.lock (fun () ->
        t.primary_end <- max t.primary_end primary_end;
        t.connected <- true;
        if t.applied >= t.primary_end then t.last_caught_up <- Unix.gettimeofday ())

  (* One connection's lifetime: subscribe, then process the stream until
     it ends. Raises [Fenced]/[Resync]/[Wire.Connection_closed]. *)
  let session t =
    let have_local =
      Sys.file_exists (Recovery.wal_path_of t.dir) && Real_disk.exists ~dir:t.dir
    in
    let boundary = if have_local then open_local t else 0 in
    let client =
      Client.connect ~host:t.host ~timeout_ms:2000 ~port:t.port ()
    in
    t.client <- Some client;
    let fd = Client.fd client in
    Fun.protect
      ~finally:(fun () ->
        t.client <- None;
        Client.close client)
      (fun () ->
        let epoch, stream = with_lock t.lock (fun () -> (t.epoch, t.stream)) in
        Wire.write_request fd
          (Wire.Rep_subscribe
             { epoch; stream_id = stream; from_lsn = (if have_local then boundary else 0) });
        let mode = ref `Hello in
        let tail = ref None in
        let rec loop () =
          if t.stopping || t.promoted then ()
          else begin
            (match Wire.read_reply fd with
            | Wire.Rep_fence { epoch = their_epoch } ->
                with_lock t.lock (fun () ->
                    t.fenced_rejects <- t.fenced_rejects + 1);
                raise (Fenced their_epoch)
            | Wire.Rep_hello { epoch; stream_id; snapshot; _ } ->
                if epoch < with_lock t.lock (fun () -> t.epoch) then begin
                  with_lock t.lock (fun () ->
                      t.fenced_rejects <- t.fenced_rejects + 1);
                  raise (Fenced epoch)
                end;
                with_lock t.lock (fun () ->
                    if epoch > t.epoch then t.epoch <- epoch;
                    t.stream <- stream_id);
                if snapshot then begin
                  let data_path = Real_disk.path_of t.dir in
                  let wal_path = Recovery.wal_path_of t.dir in
                  if not (Sys.file_exists t.dir) then Unix.mkdir t.dir 0o755;
                  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] in
                  mode :=
                    `Snap
                      {
                        d_fd = Some (Unix.openfile (data_path ^ ".sync") flags 0o644);
                        d_off = 0;
                        w_fd = Some (Unix.openfile (wal_path ^ ".sync") flags 0o644);
                        w_off = 0;
                      }
                end
                else begin
                  if not have_local then raise Resync;
                  tail := Some (Wal_stream.Tail.create ~start_lsn:boundary);
                  mode := `Tail
                end
            | Wire.Rep_chunk { kind; off; data } -> (
                match !mode with
                | `Snap s -> (
                    let write fd_opt expected =
                      match fd_opt with
                      | Some fd when off = expected ->
                          let b = Bytes.unsafe_of_string data in
                          let rec w pos len =
                            if len > 0 then begin
                              let n =
                                try Unix.write fd b pos len
                                with Unix.Unix_error (Unix.EINTR, _, _) -> 0
                              in
                              w (pos + n) (len - n)
                            end
                          in
                          w 0 (String.length data)
                      | _ -> raise Resync
                    in
                    match kind with
                    | Wire.Data_chunk ->
                        write s.d_fd s.d_off;
                        s.d_off <- s.d_off + String.length data
                    | Wire.Wal_chunk ->
                        write s.w_fd s.w_off;
                        s.w_off <- s.w_off + String.length data)
                | _ -> raise Resync)
            | Wire.Rep_wal { epoch; start_lsn; primary_end; data } ->
                if epoch < with_lock t.lock (fun () -> t.epoch) then begin
                  with_lock t.lock (fun () ->
                      t.fenced_rejects <- t.fenced_rejects + 1);
                  raise (Fenced epoch)
                end;
                with_lock t.lock (fun () ->
                    if epoch > t.epoch then t.epoch <- epoch);
                (match !mode with
                | `Snap s ->
                    (* first batch = snapshot-complete marker *)
                    finish_snapshot t s ~tail_start:start_lsn;
                    tail := Some (Wal_stream.Tail.create ~start_lsn);
                    mode := `Tail;
                    send_ack t fd
                | `Tail -> ()
                | `Hello -> raise Resync);
                (match !tail with
                | None -> raise Resync
                | Some tl ->
                    if String.length data > 0 then begin
                      if start_lsn <> Wal_stream.Tail.expected tl then
                        raise Resync;
                      Wal_stream.Tail.feed tl (Bytes.of_string data);
                      match Wal_stream.Tail.drain tl with
                      | Error msg -> failwith msg
                      | Ok None -> ()
                      | Ok (Some d) ->
                          apply_batch t d;
                          send_ack t fd
                    end);
                note_progress t ~primary_end
            | _ -> raise Resync);
            loop ()
          end
        in
        loop ())

  let applier t =
    let backoff = ref 0.1 in
    while not (t.stopping || t.promoted) do
      (match session t with
      | () -> ()
      | exception Fenced _ ->
          (* A stale primary: keep retrying slowly — it may get
             restarted as a replica of the new primary, and meanwhile
             every attempt re-proves the fence for observability. *)
          backoff := 1.0
      | exception Resync ->
          (* force a snapshot next time *)
          with_lock t.lock (fun () -> t.stream <- 0L);
          backoff := min 1.0 (!backoff *. 2.0)
      | exception
          ( Wire.Connection_closed | Wire.Protocol_error _
          | Unix.Unix_error _ | Client.Connect_timeout | Sys_error _
          | Failure _ ) ->
          backoff := min 1.0 (!backoff *. 2.0));
      with_lock t.lock (fun () -> t.connected <- false);
      if not (t.stopping || t.promoted) then begin
        Unix.sleepf !backoff;
        (* successful sessions reset the backoff on next connect *)
        if !backoff > 0.8 then backoff := 0.5
      end
    done;
    with_lock t.lock (fun () -> t.connected <- false)

  let start t =
    match t.thread with
    | Some _ -> ()
    | None -> t.thread <- Some (Thread.create applier t)

  let wait_synced ?(timeout_s = 30.0) t =
    Bell.await t.bell
      ~deadline:(Unix.gettimeofday () +. timeout_s)
      (fun () -> with_lock t.lock (fun () -> t.synced))

  let dir t = t.dir
  let generation t = with_lock t.lock (fun () -> t.generation)
  let applied_lsn t = with_lock t.lock (fun () -> t.applied)
  let epoch t = with_lock t.lock (fun () -> t.epoch)
  let connected t = with_lock t.lock (fun () -> t.connected)
  let fenced_rejects t = with_lock t.lock (fun () -> t.fenced_rejects)
  let snapshots t = with_lock t.lock (fun () -> t.snapshots)

  let lag_bytes t =
    with_lock t.lock (fun () -> max 0 (t.primary_end - t.applied))

  (* Milliseconds since the replica last observed itself caught up to
     the primary's shippable end. Heartbeats refresh it every ~200 ms
     while connected and idle, so a healthy replica reads near zero;
     infinity before the first catch-up. *)
  let stale_ms t =
    with_lock t.lock (fun () ->
        if t.promoted then 0.0
        else if t.last_caught_up = 0.0 then infinity
        else (Unix.gettimeofday () -. t.last_caught_up) *. 1000.0)

  let with_read t f = Rw.with_read t.rw f

  let stop_applier t =
    t.stopping <- true;
    (match t.client with
    | Some c -> (
        try Unix.shutdown (Client.fd c) Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
    | None -> ());
    (match t.thread with
    | Some th ->
        (try Thread.join th with _ -> ());
        t.thread <- None
    | None -> ())

  (* Promotion: stop tailing, make the local state a self-sufficient
     primary. Recovery truncates any torn tail (there is never an
     unapplied committed one — drains stop at boundaries), replays, and
     checkpoints; then the epoch bump is committed. After this returns,
     the old primary's frames carry a stale epoch and are rejected
     everywhere — it is fenced. *)
  let promote t =
    let already = with_lock t.lock (fun () -> t.promoted) in
    if already then with_lock t.lock (fun () -> t.epoch)
    else begin
      stop_applier t;
      let new_epoch =
        Rw.with_write t.rw (fun () ->
            close_handles t;
            let disk, wal, _report = Recovery.recover ~dir:t.dir t.stats in
            let e = Wal.epoch wal + 1 in
            Wal.log_epoch wal e;
            Wal.commit wal;
            Wal.close wal;
            Real_disk.close disk;
            e)
      in
      with_lock t.lock (fun () ->
          t.epoch <- new_epoch;
          t.promoted <- true;
          t.synced <- true;
          t.generation <- t.generation + 1);
      Bell.ring t.bell;
      new_epoch
    end

  let promoted t = with_lock t.lock (fun () -> t.promoted)

  let stop t =
    stop_applier t;
    Rw.with_write t.rw (fun () -> close_handles t)
end
