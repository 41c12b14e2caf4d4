(* Spans around the benchmark's calls into each layer's public
   functions. Off by default, where [span] is one branch around the call.
   When on, spans are held in memory (one list per process, appended
   under a mutex, so client domains can record concurrently) and written
   at exit as Chrome trace-event JSON.

   A span is named [<layer>.<function>]; its layer is the prefix before
   the first dot. Self time is the span's duration minus the part of it
   covered by its child spans, so summing self time per layer splits the
   wall time of the root spans without double counting. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  req : int;  (** request id shared by the spans of one request; 0 = none *)
  dom : int;  (** recording domain *)
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let lock = Mutex.create ()
let next_id = Atomic.make 1

(* the innermost open span of this domain: (id, request id) *)
let current : (int * int) Domain.DLS.key = Domain.DLS.new_key (fun () -> (0, 0))

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let span ?req name f =
  if not !on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let ((parent, preq) as outer) = Domain.DLS.get current in
    let req = match req with Some r -> r | None -> preq in
    Domain.DLS.set current (id, req);
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      Domain.DLS.set current outer;
      let s = { id; parent; name; req; dom = (Domain.self () :> int); t0; t1 } in
      Mutex.protect lock (fun () -> spans := s :: !spans)
    in
    Fun.protect ~finally:close f
  end

(* Length of the union of [intervals], clipped to [lo, hi]. *)
let covered lo hi intervals =
  fst
    (List.fold_left
       (fun (total, last_end) (a, b) ->
         let a = Float.max a last_end and b = Float.min b hi in
         if b > a then (total +. (b -. a), b) else (total, last_end))
       (0.0, lo) (List.sort compare intervals))

(* Self seconds per layer, and the total root-span seconds they split.
   Spans on several domains each count their own time, so the
   denominator is busy time summed over domains, not wall time. *)
let self_by_layer () =
  let all = !spans in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    all;
  let by_layer = Hashtbl.create 16 in
  let roots = ref 0.0 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. covered s.t0 s.t1 (Hashtbl.find_all children s.id)
      in
      let l = layer_of s.name in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_layer l) in
      Hashtbl.replace by_layer l (prev +. self);
      if s.parent = 0 then roots := !roots +. (s.t1 -. s.t0))
    all;
  let layers =
    Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  (layers, !roots)

let write_chrome path =
  let oc = open_out path in
  let base =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
  in
  let us t = (t -. base) *. 1e6 in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
         %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"id\": %d, \"parent\": \
         %d, \"req\": %d}}"
        s.name (layer_of s.name) (us s.t0) (us s.t1 -. us s.t0) s.dom s.id
        s.parent s.req)
    (List.rev !spans);
  output_string oc "\n], \"displayTimeUnit\": \"ms\"}\n";
  close_out oc
