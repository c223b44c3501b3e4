(** The fsqld wire protocol: length-prefixed binary frames over TCP.

    Every frame is a 4-byte big-endian payload length followed by the
    payload; the payload's first byte is a tag, the rest is the message
    body. Integers are big-endian; strings and string lists are
    length-prefixed. Floats travel as their IEEE-754 bit patterns, so a
    membership degree received by a client is bit-identical to the degree
    the server computed — the equality notion of the unnesting theorems
    survives the network hop.

    Frame I/O works directly on the file descriptor with EINTR-safe
    read/write loops: a signal delivered mid-syscall restarts the
    operation instead of killing the session thread, and a peer that
    vanishes — clean EOF, a short read mid-frame, EPIPE or ECONNRESET —
    raises the single {!Connection_closed} exception.

    Requests (client to server): [Query] (request ID, deadline, per-query
    execution parallelism, SQL text), [Cancel] (cancel the in-flight query
    on this connection), [Metrics] (dump the server's metrics registry),
    [Trace_get] (fetch one request's Chrome trace by ID from the server's
    ring of recent traces), [Top] (a rendered snapshot of the windowed
    serving metrics).

    Replies (server to client) for one query, in order: one [Header]
    (column names), zero or more [Row]s, and exactly one terminal frame —
    [Done] on success, [Error] (parse / semantic / fatal execution
    error), [Retryable] (transient fault; a fresh attempt may succeed),
    [Overloaded] (admission queue full or circuit breaker open),
    [Rejected] (the admission-time static analyzer found errors; carries
    the primary [FSQL0xx] code and the rendered diagnostics), or
    [Cancelled] (deadline exceeded, client cancel, or disconnect).
    [Metrics_json] answers a [Metrics] request, [Trace_json] a
    [Trace_get], [Top_text] a [Top].

    {1 Protocol revisions}

    Rev 1 (PR 3) had no request IDs; its query tag was ['Q']. Rev 2 adds
    the client-generated request ID under the distinct tag ['q'], keeping
    both directions compatible: a rev-1 ['Q'] frame still decodes (the
    [request_id] comes back [""] and the server assigns one), and a query
    {e without} an ID encodes as a byte-identical rev-1 frame — so a new
    client that leaves [request_id = ""] interoperates with an old server,
    which never sees an unknown tag. Round-trip tests pin both
    directions.

    Rev 3 (this revision) adds WAL-shipped replication and admin
    promotion. Requests: [Rep_subscribe] (a replica asks the primary to
    stream its log from an LSN, presenting its current epoch and the
    stream ID it last saw), [Rep_ack] (applied-LSN progress, flowing
    back on the same connection), [Promote] (bump the epoch and start
    serving as primary). Replies: [Rep_hello] (stream parameters;
    whether a full snapshot precedes the tail), [Rep_chunk] (snapshot
    bytes of the data file or WAL prefix), [Rep_wal] (a batch of raw
    log bytes — empty batches are heartbeats carrying the primary's
    end LSN), [Rep_fence] (the receiver's epoch is newer: the
    subscriber — or the sender — is a fenced zombie), [Promoted] (the
    new epoch). Compatibility is again by construction: rev 3 only
    introduces new tags, so every rev-2 frame is byte-identical under
    rev 3 and a rev-2 client can never elicit a rev-3 reply. *)

exception Protocol_error of string
(** Malformed frame: bad tag, truncated body, or an over-sized length
    prefix (the frame cap guards against garbage on the port). *)

exception Connection_closed
(** The peer closed the connection: clean EOF before a frame, a short
    read mid-frame, or a write to a closed socket. *)

val protocol_rev : int
(** The protocol revision this build speaks (3). Informational — the
    protocol negotiates nothing; compatibility is carried by the frame
    tags as described above. *)

type request =
  | Query of {
      request_id : string;
      deadline_ms : int;
      domains : int;
      sql : string;
    }
      (** [request_id = ""] means the client did not supply one (rev-1
          client, or a rev-2 client opting out) and the server assigns
          one; [deadline_ms = 0] means no client deadline (the server
          default, if any, still applies); [domains = 0] means the
          server's configured per-query parallelism. *)
  | Cancel
  | Metrics
  | Trace_get of string
      (** fetch the Chrome trace of one past request by its ID *)
  | Top  (** rendered snapshot of the windowed serving metrics *)
  | Rep_subscribe of { epoch : int; stream_id : int64; from_lsn : int }
      (** replica asks for the log from [from_lsn]; [stream_id] is the
          last stream it tailed ([0L] = none) — a sender whose current
          stream differs answers with a snapshot resync *)
  | Rep_ack of { epoch : int; applied_lsn : int }
      (** applied + fsynced through [applied_lsn]; sent on the
          subscribe connection *)
  | Promote  (** admin: bump the epoch, fence the old primary *)

type chunk_kind = Data_chunk | Wal_chunk

type reply =
  | Header of string list  (** column names of the answer schema *)
  | Row of { degree_bits : int64; values : string list }
      (** one answer tuple: degree as IEEE-754 bits, values printed *)
  | Done of { rows : int; elapsed_s : float }
      (** terminal: row count and server-side wall time, from admission
          to the whole reply being encoded (the socket write is not
          included) *)
  | Error of string  (** terminal: query error or fatal execution error *)
  | Retryable of string
      (** terminal: the query failed on a transient fault after the
          server exhausted its own retries (or had no deadline budget
          left to retry); the query is read-only, so resubmitting is
          always safe and may succeed *)
  | Overloaded
  | Rejected of { code : string; diagnostics : string }
      (** terminal: the static analyzer rejected the query at admission —
          [code] is the primary [FSQL0xx] error code, [diagnostics] the
          full caret-rendered report (tag ['S'], rev 2) *)
  | Cancelled of string  (** terminal: why the query was cancelled *)
  | Metrics_json of string
  | Trace_json of string option
      (** [None] when the requested ID has fallen out of the server's
          trace ring (or never existed) *)
  | Top_text of string  (** server-rendered, ready to print *)
  | Rep_hello of {
      epoch : int;
      stream_id : int64;
      page_size : int;
      snapshot : bool;
      start_lsn : int;
      data_len : int;
    }
      (** stream opening: when [snapshot] is true, [data_len] bytes of
          data file and a WAL prefix up to [start_lsn] arrive as
          [Rep_chunk]s before the tail starts at [start_lsn] *)
  | Rep_chunk of { kind : chunk_kind; off : int; data : string }
      (** snapshot bytes at offset [off] of the data file
          ([Data_chunk]) or the WAL ([Wal_chunk]) *)
  | Rep_wal of { epoch : int; start_lsn : int; primary_end : int; data : string }
      (** raw log bytes [start_lsn, start_lsn + length data); empty
          [data] is a heartbeat; [primary_end] is the primary's
          shippable end, letting the replica compute its own lag *)
  | Rep_fence of { epoch : int }
      (** the peer's epoch [epoch] is newer than the frame it rejected
          — whoever received this is fenced *)
  | Promoted of { epoch : int }  (** answer to [Promote] *)

val max_frame : int
(** Frames above this size (64 MB) raise {!Protocol_error} on read. *)

val write_request : Unix.file_descr -> request -> unit
(** Encode, frame, write. The frame is built in one buffer and written
    by a single EINTR-safe loop, so concurrent writers interleave only
    if they share a connection without serialising. Raises
    {!Connection_closed} if the peer is gone. *)

val write_reply : Unix.file_descr -> reply -> unit

val add_reply : Buffer.t -> reply -> unit
(** Append one whole frame — length prefix and payload, exactly the
    bytes {!write_reply} would write — to a buffer. Frames appended in
    order and written with {!write_buffer} put the same byte stream on
    the wire as one {!write_reply} per frame, in one write. *)

val write_buffer : Unix.file_descr -> Buffer.t -> unit
(** Write a buffer of whole frames with the same EINTR-safe loop and
    the same {!Connection_closed} mapping as {!write_reply}. *)

val set_nodelay : Unix.file_descr -> unit
(** Set [TCP_NODELAY] on a connected TCP socket. Every connection the
    server library opens or accepts goes through this: with Nagle's
    algorithm on, a small segment written while an earlier one is still
    unacknowledged is held until the peer's ACK, which Linux's delayed
    ACK can postpone by up to 40 ms. A socket that refuses the option
    is left as it is (it still works, only slower). *)

val read_request : Unix.file_descr -> request
(** Blocks for a full frame. Raises {!Connection_closed} on EOF or a
    short read mid-frame, {!Protocol_error} on garbage. *)

val read_reply : Unix.file_descr -> reply
