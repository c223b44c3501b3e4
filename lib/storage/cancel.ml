type t = {
  deadline : float;  (** absolute seconds; [infinity] = none *)
  flag : bool Atomic.t;
  mutable why : string;
  mutable countdown : int;
      (** checks until the next deadline clock read and [on_poll] call;
          racy across the domains of a parallel batch, which only makes the
          poll slightly more or less frequent *)
  on_poll : unit -> unit;
}

exception Cancelled of string

let poll_period = 64

let create ?(deadline = Float.infinity) ?(on_poll = ignore) () =
  { deadline; flag = Atomic.make false; why = ""; countdown = 0; on_poll }

let with_timeout ~seconds () =
  create ~deadline:(Unix.gettimeofday () +. seconds) ()

let cancel ?(reason = "cancelled") t =
  (* The reason is published before the flag: the Atomic.set is a release
     store, so any checker that observes the flag also observes [why]. The
     first cancel wins. *)
  if not (Atomic.get t.flag) then begin
    t.why <- reason;
    Atomic.set t.flag true
  end

let cancelled t = Atomic.get t.flag
let reason t = t.why

let deadline t = if t.deadline = Float.infinity then None else Some t.deadline

let raise_if_cancelled t =
  if Atomic.get t.flag then raise (Cancelled t.why)
  else begin
    t.countdown <- t.countdown - 1;
    if t.countdown <= 0 then begin
      t.countdown <- poll_period;
      t.on_poll ();
      if t.deadline < Float.infinity && Unix.gettimeofday () > t.deadline
      then begin
        cancel ~reason:"deadline exceeded" t;
        raise (Cancelled t.why)
      end
    end
  end

let check = function None -> () | Some t -> raise_if_cancelled t
