(* In-memory spans recorded by the traced run around the benchmark's own
   calls into the program's layers. Spans of one operation share its op
   id; a span's parent is the span whose call caused it. Spans are kept
   in memory and written out once, when the run ends.

   A span the benchmark cannot time itself (a server-side phase read from
   [Client.trace_json], an [Iostats] phase timer) is added from its
   measured duration with [synth = true]; its position inside the parent
   is approximate, its duration is exact. *)

type span = {
  id : int;
  parent : int;  (** 0 for an op's root span *)
  op : int;
  name : string;  (** "<module call>" *)
  layer : string;  (** a library of the repo, or "bench" for op roots *)
  start_s : float;
  end_s : float;
  synth : bool;
}

let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = Atomic.make 1
let next_op = Atomic.make 1

let fresh_op () = Atomic.fetch_and_add next_op 1

let push sp =
  Mutex.lock lock;
  spans := sp :: !spans;
  Mutex.unlock lock

let add ?(parent = 0) ?(synth = false) ~op ~layer name ~start_s ~end_s =
  let id = Atomic.fetch_and_add next_id 1 in
  push { id; parent; op; name; layer; start_s; end_s; synth };
  id

(* [timed ~on ...] runs [f id] inside a span when [on], else [f 0]. The
   span is recorded even when [f] raises. *)
let timed ~on ?(parent = 0) ~op ~layer name f =
  if not on then f 0
  else begin
    let id = Atomic.fetch_and_add next_id 1 and start_s = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        push
          { id; parent; op; name; layer; start_s; end_s = Util.now (); synth = false })
      (fun () -> f id)
  end

let all () =
  Mutex.lock lock;
  let l = List.rev !spans in
  Mutex.unlock lock;
  l

let dur sp = sp.end_s -. sp.start_s

(* Self time: a span's duration minus what its direct children cover. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if sp.parent <> 0 then
        Hashtbl.replace child_time sp.parent
          (dur sp
          +. Option.value (Hashtbl.find_opt child_time sp.parent) ~default:0.0))
    spans;
  List.map
    (fun sp ->
      ( sp,
        Float.max 0.0
          (dur sp -. Option.value (Hashtbl.find_opt child_time sp.id) ~default:0.0)
      ))
    spans

let layers = [ "server"; "fuzzysql"; "unnest"; "relational"; "storage" ]

(* Per-layer metrics over the ops whose root span is named [root]:
   - "<layer>.self_ms": median over those ops of the layer's self time;
   - "<layer>.self_share": the layer's total self time over total op time;
   - "layers.share": the share of op time spent inside any layer call. *)
let layer_metrics ~root =
  let spans = all () in
  let roots = List.filter (fun sp -> sp.parent = 0 && sp.name = root) spans in
  let ops = Hashtbl.create 1024 in
  List.iter (fun sp -> Hashtbl.replace ops sp.op ()) roots;
  let mine = List.filter (fun sp -> Hashtbl.mem ops sp.op) spans in
  let selfs = self_times mine in
  let total_op = List.fold_left (fun a sp -> a +. dur sp) 0.0 roots in
  let n = List.length roots in
  let per_layer layer =
    let per_op = Hashtbl.create 1024 in
    List.iter
      (fun (sp, self) ->
        if sp.layer = layer then
          Hashtbl.replace per_op sp.op
            (self +. Option.value (Hashtbl.find_opt per_op sp.op) ~default:0.0))
      selfs;
    let totals =
      List.map
        (fun r -> Option.value (Hashtbl.find_opt per_op r.op) ~default:0.0)
        roots
    in
    let total = List.fold_left ( +. ) 0.0 totals in
    [
      Util.metric ~n (layer ^ ".self_ms") "ms" (1000.0 *. Util.median totals);
      Util.metric ~n (layer ^ ".self_share") "1" (total /. total_op);
    ]
  in
  let in_layers =
    List.fold_left
      (fun a (sp, self) -> if List.mem sp.layer layers then a +. self else a)
      0.0 selfs
  in
  List.concat_map per_layer layers
  @ [ Util.metric ~n "layers.share" "1" (in_layers /. total_op) ]

(* One JSON object per line, times in seconds since the first span. *)
let write ~path =
  let spans = all () in
  let t0 = List.fold_left (fun a sp -> Float.min a sp.start_s) infinity spans in
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"op\": %d, \"name\": \"%s\", \
         \"layer\": \"%s\", \"start_s\": %.6f, \"end_s\": %.6f, \"synth\": %b}\n"
        sp.id sp.parent sp.op (Harness.json_escape sp.name) sp.layer (sp.start_s -. t0)
        (sp.end_s -. t0) sp.synth)
    spans;
  close_out oc
