(** WAL shipping primitives — the storage-level half of replication.

    The shipping invariant is {e byte identity}: the primary's sender
    reads raw frames through an independent fd ({!Cursor}) and the
    replica appends them verbatim ({!Appender}), so replica LSNs
    coincide with primary LSNs and every shipped frame re-validates
    locally (CRC-32 + offset stamp). {!Tail} buffers received bytes and
    releases only prefixes ending at a commit point, so the replica's
    log is clean-ended at all times — a read-only {!Wal.open_existing}
    succeeds whenever the applier is between batches, and nothing the
    primary could truncate after a crash is ever made durable on the
    replica. *)

(** Positioned reader over a live log (primary side). Reads through its
    own fd, so it never touches the writer's offset or lock. *)
module Cursor : sig
  type t

  val open_at : path:string -> pos:int -> t
  val pos : t -> int

  val rotated : t -> bool
  (** Whether the path now names a different inode than the open fd — a
      checkpoint rewrote the log (tmp+rename) and every LSN this cursor
      knows is meaningless. The sender must resync subscribers. *)

  val reopen : t -> pos:int -> unit
  (** Re-open the (possibly rotated) path and seek to [pos]. *)

  val read : t -> upto:int -> max:int -> bytes
  (** Read up to [max] bytes, never past offset [upto] (the shippable
      end, {!Wal.shippable_end}). [Bytes.empty] when caught
      up. Advances the cursor. *)

  val close : t -> unit
end

(** Incremental commit-boundary parser over received bytes (replica
    side). *)
module Tail : sig
  type t

  val create : start_lsn:int -> t
  (** [start_lsn] is the file offset of the first byte that will be
      fed — the replica log's current end. *)

  val expected : t -> int
  (** The offset of the next byte the tail wants from the wire (frames
      arriving elsewhere mean the stream desynced — resync). *)

  val feed : t -> bytes -> unit

  type drained = {
    records : (int * Wal.record) list;  (** (end-LSN, record), in order *)
    bytes : bytes;  (** the raw frames behind [records], verbatim *)
    new_end : int;  (** end LSN of the drained prefix *)
  }

  val drain : t -> (drained option, string) result
  (** Release the longest buffered prefix ending at a [Commit] /
      [Checkpoint] boundary — safe to append + fsync locally because the
      primary's recovery can never truncate it. [Ok None] when no
      boundary is buffered yet; [Error _] when a fully-received frame
      fails validation (corrupt stream). *)

  val reset : t -> start_lsn:int -> unit
  (** Drop buffered bytes and restart at [start_lsn] (resync). *)
end

(** Raw byte appender for the replica's log file. *)
module Appender : sig
  type t

  val open_at : path:string -> t
  (** Open for append; [end_lsn] starts at the current file size. *)

  val end_lsn : t -> int
  val append : t -> bytes -> unit
  val fsync : t -> unit
  val close : t -> unit
end

val committed_state : path:string -> (int * int, string) result
(** [(committed_end, epoch)] of the log at [path], read without
    constructing a {!Wal.t}: the last commit-point boundary and the
    maximum epoch bound at or before it (an [Epoch] record binds only
    once a later commit point covers it). Tolerates a torn tail. *)
