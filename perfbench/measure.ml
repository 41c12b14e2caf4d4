(* Timing, operation records, the correctness tally and the summary
   statistics every workload shares. *)

type scale = Full | Probe

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* One timed operation: the workload it belongs to, its kind, wall
   seconds, units of work done (gates, shots, trials...), and whether
   tracing was on while it ran. *)
type op = { phase : string; kind : string; secs : float; work : float; traced : bool }

let ops : op list ref = ref []
let ops_lock = Mutex.create ()
let current_phase = ref ""

let record kind secs work =
  let o = { phase = !current_phase; kind; secs; work; traced = !Trace.on } in
  Mutex.protect ops_lock (fun () -> ops := o :: !ops)

(* Time [f] as one operation of [kind] inside a span of the same name;
   [work] reads the result. *)
let timed ?req kind work f =
  let x, secs = time (fun () -> Trace.span ?req kind f) in
  record kind secs (work x);
  x

let ops_of ?(traced = false) kind =
  List.rev !ops |> List.filter (fun o -> o.kind = kind && o.traced = traced)

(* The correctness gate: every checked operation is attempted; a failed
   or wrong one counts as failed. *)
let attempted = Atomic.make 0
let failed = Atomic.make 0
let failures : string list ref = ref []

let check what ok =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Mutex.protect ops_lock (fun () -> failures := what :: !failures)
  end

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an ascending array. *)
let percentile a p =
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

(* The tail latency: the highest of p50 and p90 that still has at least
   ten samples beyond it, as (percentile, value, sample count). Every
   workload serves between 100 and 1000 requests a run, so this is p90;
   stopping at p90 keeps a faster service from crossing 1000 requests
   into a higher percentile and reading worse. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let p = if float_of_int n *. 0.1 >= 10.0 then 90.0 else 50.0 in
  (p, percentile a p, n)

let secs_median ?traced kind = median (List.map (fun o -> o.secs) (ops_of ?traced kind))
let work_median ?traced kind = median (List.map (fun o -> o.work) (ops_of ?traced kind))

(* Work per second of a kind whose operations all do the same work: the
   median over its operations, which the interleaved schedule spreads
   over the whole run. *)
let rate kind = work_median kind /. secs_median kind

(* ---- host and provenance ---- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let proc_status_kb key =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when k = key ->
                 Scanf.sscanf_opt (String.trim v) "%d" Fun.id
             | _ -> None)
      |> Option.fold ~none:nan ~some:float_of_int

let peak_rss_mb () = proc_status_kb "VmHWM" /. 1024.0

let llc () =
  match read_file "/sys/devices/system/cpu/cpu0/cache/index3/size" with
  | Some s -> String.trim s
  | None -> "unknown"

let nproc () = Domain.recommended_domain_count ()

let quipper_env () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv -> String.length kv > 8 && String.sub kv 0 8 = "QUIPPER_")
  |> List.sort compare

(* ---- JSON ---- *)

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x
  else "null"

let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let json_list xs = "[" ^ String.concat ", " xs ^ "]"

(* ---- workloads ---- *)

type metric = string * float * string  (** name, value, unit *)

(* One workload at one scale, built by its [make] (the set-up). [round]
   runs one round of timed operations (the closed-loop serve workload
   runs until [deadline] inside one round); [decompose] makes the extra
   per-layer calls of the traced run; [check] runs the post-run
   correctness gates against independent references. *)
type phase = {
  name : string;
  min_rounds : int;
  warm : unit -> unit;
  round : deadline:float -> int -> unit;
  decompose : unit -> unit;
  check : unit -> unit;
  e2e : unit -> metric list;
  layers : unit -> metric list;
  notes : unit -> (string * string) list;  (** extra fields for the record *)
}

(* A round that runs [steps] in turn, from where the previous round
   stopped, until [deadline] has passed (at least one step): a home
   workload's slot in the untraced run stays short whatever its steps
   cost, so the probes interleave often. *)
let rotating steps =
  let next = ref 0 in
  fun ~deadline (_ : int) ->
    let go () =
      steps.(!next) ();
      next := (!next + 1) mod Array.length steps
    in
    go ();
    while now () < deadline do
      go ()
    done

(* Loop rounds until the deadline has passed and at least [min_rounds]
   rounds are done. *)
let until ~deadline ~min_rounds (p : phase) =
  current_phase := p.name;
  let i = ref 0 in
  while !i < min_rounds || now () < deadline do
    p.round ~deadline !i;
    incr i
  done

