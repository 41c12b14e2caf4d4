(* The layered benchmark: one process runs one workload for a fixed time
   and prints every end-to-end metric (or, with --trace 1, every
   per-layer metric) as the last line of standard output.

     main.exe --workload compile|simulate|serve|faults --seed N
              --seconds S --trace 0|1
     main.exe --describe      # print BENCHMARK.json

   An untraced run sets its workload up three times, each with one
   warm-up pass (setup_s is the median), then runs it for S seconds,
   interleaved with short probes of every other workload at a small
   size, run in a child process, so that every end-to-end metric is
   measured in every run while set-up time and peak memory stay the home
   workload's own; finally it runs every correctness gate. A traced run repeats its own workload untraced for
   S/2 seconds and traced for S/2 seconds, takes the layers apart with
   extra public calls, and reports per-layer metrics, each layer's share
   of the traced time and the tracing overhead. Both write a full record
   (host, provenance, percentiles, notes) and the traced run a Chrome
   trace to .perfbench/. *)

open Measure

(* ---- the metric contract ---- *)

(* name, unit, better, bound *)
let end_to_end =
  [
    ("setup_s", "s", "lower", 0.25);
    ("emit_gates_per_s", "gates/s", "higher", 0.24);
    ("opt_gates_per_s", "gates/s", "higher", 0.24);
    ("opt_gates_out", "gates", "lower", 0.05);
    ("passes_gates_per_s", "gates/s", "higher", 0.24);
    ("estimate_s", "s", "lower", 0.24);
    ("sim_gates_per_s", "gates/s", "higher", 0.24);
    ("shots_per_s", "shots/s", "higher", 0.24);
    ("req_p50_ms", "ms", "lower", 0.24);
    ("req_tail_ms", "ms", "lower", 0.24);
    ("trials_per_s", "trials/s", "higher", 0.24);
    ("peak_rss_mb", "MB", "lower", 0.24);
  ]

let layers_traced =
  [
    "bench"; "circ"; "gatecount"; "circuit"; "stream_opt"; "passes"; "estimate";
    "fuse"; "statevector"; "snapshot"; "sample"; "serve"; "repcode";
  ]

(* name, unit, better *)
let per_layer =
  [
    ("circ.stream_s", "s", "lower");
    ("circ.generate_s", "s", "lower");
    ("circ.gates", "count", "higher");
    ("gatecount.stream_s", "s", "lower");
    ("gatecount.aggregate_s", "s", "lower");
    ("circuit.hash_s", "s", "lower");
    ("circuit.hash_skeleton_s", "s", "lower");
    ("circuit.subst_angles_s", "s", "lower");
    ("stream_opt.s", "s", "lower");
    ("stream_opt.gates_in", "count", "higher");
    ("stream_opt.gates_out", "count", "lower");
    ("stream_opt.removed_ratio", "ratio", "higher");
    ("stream_opt.cancelled", "count", "higher");
    ("stream_opt.fused", "count", "higher");
    ("stream_opt.flipped", "count", "higher");
    ("stream_opt.const_deleted", "count", "higher");
    ("stream_opt.boxes_optimized", "count", "lower");
    ("stream_opt.box_hits", "count", "higher");
    ("passes.s", "s", "lower");
    ("passes.gates_out", "count", "lower");
    ("passes.rounds", "count", "lower");
    ("estimate.capture_s", "s", "lower");
    ("estimate.combine_s", "s", "lower");
    ("fuse.run_s", "s", "lower");
    ("fuse.compile_s", "s", "lower");
    ("fuse.apply_s", "s", "lower");
    ("fuse.gates_seen", "count", "higher");
    ("fuse.gates_fused", "count", "higher");
    ("fuse.fused_ratio", "ratio", "higher");
    ("fuse.blocks_applied", "count", "lower");
    ("fuse.singles_applied", "count", "lower");
    ("fuse.boxes_compiled", "count", "lower");
    ("fuse.calls_replayed", "count", "higher");
    ("statevector.run_s", "s", "lower");
    ("kernel.bytes_computed", "bytes", "lower");
    ("kernel.gbps", "GB/s", "higher");
    ("kernel.copy_gbps", "GB/s", "higher");
    ("kernel.roofline_ratio", "ratio", "higher");
    ("snapshot.s", "s", "lower");
    ("sample.shot_ms", "ms", "lower");
    ("sample.hit_cover", "ratio", "higher");
    ("serve.hit_ms", "ms", "lower");
    ("serve.miss_ms", "ms", "lower");
    ("serve.sweep_point_ms", "ms", "lower");
    ("serve.hits", "count", "higher");
    ("serve.misses", "count", "lower");
    ("serve.hit_ratio", "ratio", "higher");
    ("serve.prepares", "count", "lower");
    ("serve.evictions", "count", "lower");
    ("serve.t_hits", "count", "higher");
    ("serve.t_misses", "count", "lower");
    ("serve.specialized", "count", "higher");
    ("serve.resimulated", "count", "lower");
    ("serve.clifford_share", "ratio", "higher");
    ("frame.trials", "count", "higher");
    ("frame.fallback_trials", "count", "lower");
    ("frame.share", "ratio", "higher");
    ("noise.errored", "count", "lower");
    ("noise.point_s", "s", "lower");
  ]
  @ List.map (fun l -> ("share." ^ l, "ratio", "lower")) layers_traced
  @ [
      ("trace.dominant_share", "ratio", "lower");
      ("trace.overhead_ratio", "ratio", "lower");
      ("trace.spans", "count", "lower");
    ]

(* name, why, maker *)
let workloads =
  [
    ( "compile",
      "BWT n=8 both oracles streamed, stream-optimized and -O optimized, plus \
       the symbolic TF estimate at l=31 n=15: the paper's own job, no simulator",
      W_compile.make );
    ( "simulate",
      "Trotter, Grover, QFT and dense Clifford+T at 20 qubits plus boxed calls \
       through Fuse: kernel-bound, nothing sampled",
      W_simulate.make );
    ( "serve",
      "closed loop of nproc clients at 16 qubits: Zipf hot set (hits, \
       sampling-bound), unique circuits (misses, evictions), Ising dt sweeps",
      W_serve.make );
    ( "faults",
      "repetition-code memory d in {5,7,9} x p in {0.001,0.01}: the only \
       workload reaching the Pauli-frame engine, Noise and the Rng pools",
      W_faults.make );
  ]

let describe () =
  let e (n, u, b, bound) =
    json_obj
      [ ("name", json_str n); ("unit", json_str u); ("better", json_str b); ("bound", json_num bound) ]
  in
  let l (n, u, b) =
    json_obj [ ("name", json_str n); ("unit", json_str u); ("better", json_str b) ]
  in
  let w (n, why, _) = json_obj [ ("name", json_str n); ("why", json_str why) ] in
  let lines xs = "[\n    " ^ String.concat ",\n    " xs ^ "\n  ]" in
  print_string
    ("{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": 20,\n  \"workloads\": "
    ^ lines (List.map w workloads)
    ^ ",\n  \"end_to_end\": "
    ^ lines (List.map e end_to_end)
    ^ ",\n  \"per_layer\": "
    ^ lines (List.map l per_layer)
    ^ "\n}\n")

(* ---- running ---- *)

let host () =
  [
    ("nproc", json_num (float_of_int (nproc ())));
    ("ocaml_version", json_str Sys.ocaml_version);
    ("commit", json_str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")));
    ("quipper_env", json_list (List.map json_str (quipper_env ())));
    ("kernel_num_domains", json_num (float_of_int !Quipper_sim.Kernel.num_domains));
    ("kernel_threshold", json_num (float_of_int !Quipper_sim.Kernel.threshold));
    ("llc", json_str (llc ()));
  ]

(* Records and traces go here, inside the tree the benchmark runs in. *)
let out = ".perfbench"

let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* Set the workload up three times, each a build plus one warm-up pass
   that lets caches and lazy set-up settle, and keep the last: [setup_s]
   is the median. Only the set-up being timed is alive while it runs. *)
let set_up make =
  let last = ref None and times = ref [] in
  for _ = 1 to 3 do
    last := None;
    Gc.full_major ();
    let t0 = now () in
    let p = make () in
    p.warm ();
    times := (now () -. t0) :: !times;
    last := Some p
  done;
  ops := [];
  (Option.get !last, median !times)

let run_phase p ~seconds = until ~deadline:(now () +. seconds) ~min_rounds:p.min_rounds p

(* One line per operation kind (count and min / median / max seconds),
   and every operation time as a JSON field for the record. *)
let summarize_ops phase =
  let kinds =
    List.sort_uniq compare
      (List.filter_map (fun o -> if o.phase = phase then Some o.kind else None) !ops)
  in
  ( phase,
    json_obj
      (List.map
         (fun k ->
           let xs = List.map (fun o -> o.secs) (ops_of k) in
           say "%s %-24s n=%-4d min %.4f med %.4f max %.4f" phase k (List.length xs)
             (List.fold_left Float.min infinity xs) (median xs)
             (List.fold_left Float.max 0.0 xs);
           (k, json_list (List.map json_num xs)))
         kinds) )

let write_record path fields =
  let oc = open_out path in
  output_string oc (json_obj fields);
  output_string oc "\n";
  close_out oc

let metric_json (name, value, unit) = (name, json_obj [ ("value", json_num value); ("unit", json_str unit) ])

let result metrics =
  json_obj
    [
      ("correct", if Atomic.get failed = 0 then "true" else "false");
      ("attempted", json_num (float_of_int (Atomic.get attempted)));
      ("failed", json_num (float_of_int (Atomic.get failed)));
      ("metrics", json_obj (List.map metric_json metrics));
    ]

(* Time slots of the interleaved untraced run: the home workload gets one
   slot per cycle, each probe a short slot.
   The host this was tuned on switches between a fast and a slow state
   every few seconds, so every metric samples the whole run. *)
let home_slot = 1.0
let probe_slot = 0.15

(* ---- the probe process ----

   The other three workloads run at probe size in a child process, so
   that the home workload's set-up time and peak memory are its own. The
   child is driven over its standard input and output, one line each way:
   "slot" runs one probe slot of every probe workload and answers "done";
   "finish" runs their correctness gates and answers with their
   end-to-end metrics and tally, then "end". Lines starting with '#' are
   commentary. The child exits when its input closes. *)

let probes ~workload ~seed =
  let phases =
    List.filter_map
      (fun (n, _, make) -> if n = workload then None else Some (make Probe ~seed))
      workloads
  in
  List.iter (fun p -> p.warm ()) phases;
  ops := [];
  let reply s = print_string (s ^ "\n"); flush stdout in
  reply "ready";
  let rec serve () =
    match In_channel.input_line stdin with
    | Some "slot" ->
        List.iter
          (fun p ->
            (* each slot starts from a collected heap, so no workload pays
               for another's garbage *)
            Gc.full_major ();
            until ~deadline:(now () +. probe_slot) ~min_rounds:1 p)
          phases;
        reply "done";
        serve ()
    | Some "finish" ->
        let op_times = List.map (fun p -> summarize_ops p.name) phases in
        let e2e = List.concat_map (fun p -> p.e2e ()) phases in
        List.iter (fun p -> p.check ()) phases;
        write_record
          (Filename.concat out (Printf.sprintf "%s-seed%d-probes.json" workload seed))
          [ ("home_workload", json_str workload); ("seed", json_num (float_of_int seed));
            ("host", json_obj (host ()));
            ("failures", json_list (List.map json_str !failures));
            ("metrics", json_obj (List.map metric_json e2e));
            ("op_seconds", json_obj op_times) ];
        List.iter (fun (n, v, u) -> reply (Printf.sprintf "metric %s %.17g %s" n v u)) e2e;
        reply (Printf.sprintf "tally %d %d" (Atomic.get attempted) (Atomic.get failed));
        List.iter
          (fun f -> reply ("failure " ^ String.map (function '\n' -> ' ' | c -> c) f))
          !failures;
        reply "end"
    | Some _ -> serve ()
    | None -> ()
  in
  serve ()

(* The parent's side: start the child, wait until its probes are built,
   and return the slot and finish calls. *)
let start_probes ~workload ~seed =
  let exe = Sys.executable_name in
  let from_child, to_child =
    Unix.open_process_args exe
      [| exe; "--probes-for"; workload; "--seed"; string_of_int seed |]
  in
  let send s = output_string to_child (s ^ "\n"); flush to_child in
  let rec await f =
    match In_channel.input_line from_child with
    | None -> failwith "probe process ended early"
    | Some l when String.length l > 0 && l.[0] = '#' -> await f
    | Some l -> if f l then await f
  in
  await (fun l -> l <> "ready");
  let slot () = send "slot"; await (fun l -> l <> "done") in
  let finish () =
    send "finish";
    let metrics = ref [] in
    await (fun l ->
        (match String.split_on_char ' ' l with
         | [ "metric"; n; v; u ] -> metrics := (n, float_of_string v, u) :: !metrics
         | [ "tally"; a; f ] ->
             ignore (Atomic.fetch_and_add attempted (int_of_string a));
             ignore (Atomic.fetch_and_add failed (int_of_string f))
         | "failure" :: _ ->
             failures := ("probe: " ^ String.sub l 8 (String.length l - 8)) :: !failures
         | _ -> ());
        l <> "end");
    (match Unix.close_process (from_child, to_child) with
     | Unix.WEXITED 0 -> ()
     | _ -> check "probe process exit status" false);
    List.rev !metrics
  in
  (slot, finish)

let untraced ~workload ~seed ~seconds =
  let _, _, make = List.find (fun (n, _, _) -> n = workload) workloads in
  let home, setup_s = set_up (fun () -> make Full ~seed) in
  say "setup_s %.3f" setup_s;
  let slot, finish = start_probes ~workload ~seed in
  Gc.compact ();
  let deadline = now () +. seconds and cycles = ref 0 in
  while !cycles < home.min_rounds || now () < deadline do
    current_phase := home.name;
    home.round ~deadline:(now () +. home_slot) !cycles;
    slot ();
    Gc.full_major ();
    incr cycles
  done;
  let op_times = [ summarize_ops home.name ] in
  let probe_metrics = finish () in
  let collected = (("setup_s", setup_s, "s") :: home.e2e ()) @ probe_metrics in
  home.check ();
  (* this process only ever held the home workload *)
  let collected = collected @ [ ("peak_rss_mb", peak_rss_mb (), "MB") ] in
  let metrics =
    List.map
      (fun (n, u, _, _) ->
        match List.find_opt (fun (m, _, _) -> m = n) collected with
        | Some (_, v, _) -> (n, v, u)
        | None -> failwith ("metric not measured: " ^ n))
      end_to_end
  in
  List.iter (fun (n, v, u) -> say "%-20s %14.6g %s" n v u) metrics;
  write_record
    (Filename.concat out (Printf.sprintf "%s-seed%d-trace0.json" workload seed))
    ([ ("workload", json_str workload); ("seed", json_num (float_of_int seed));
       ("seconds", json_num seconds); ("host", json_obj (host ()));
       ("fail_ratio", json_num (float_of_int (Atomic.get failed) /. float_of_int (max 1 (Atomic.get attempted))));
       ("failures", json_list (List.map json_str !failures));
       ("metrics", json_obj (List.map metric_json metrics));
       ("op_seconds", json_obj op_times) ]
    @ home.notes ());
  metrics

(* Traced-vs-untraced cost over the operation kinds that ran both ways. *)
let overhead () =
  let kinds = List.sort_uniq compare (List.map (fun o -> o.kind) !ops) in
  let both =
    List.filter_map
      (fun k ->
        match (ops_of k, ops_of ~traced:true k) with
        | [], _ | _, [] -> None
        | u, t -> Some (median (List.map (fun o -> o.secs) u), median (List.map (fun o -> o.secs) t)))
      kinds
  in
  let su = List.fold_left (fun a (u, _) -> a +. u) 0.0 both
  and st = List.fold_left (fun a (_, t) -> a +. t) 0.0 both in
  if su > 0.0 then (st /. su) -. 1.0 else nan

let traced ~workload ~seed ~seconds =
  let _, _, make = List.find (fun (n, _, _) -> n = workload) workloads in
  let p, setup_s = set_up (fun () -> make Full ~seed) in
  say "setup_s %.3f" setup_s;
  run_phase p ~seconds:(seconds /. 2.0);
  Trace.on := true;
  Trace.span ("bench." ^ workload) (fun () ->
      (let round ~deadline i = Trace.span "bench.round" (fun () -> p.round ~deadline i) in
       until ~deadline:(now () +. (seconds /. 2.0)) ~min_rounds:1 { p with round });
      Trace.span "bench.decompose" p.decompose);
  Trace.on := false;
  p.check ();
  let by_layer, busy = Trace.self_by_layer () in
  let shares = List.map (fun (l, s) -> (l, s /. busy)) by_layer in
  let dominant, dominant_share =
    match List.filter (fun (l, _) -> l <> "bench") shares with
    | (l, s) :: _ -> (l, s)
    | [] -> ("none", 0.0)
  in
  let measured = p.layers () in
  let extra =
    List.map (fun l -> ("share." ^ l, Option.value ~default:0.0 (List.assoc_opt l shares), "ratio")) layers_traced
    @ [
        ("trace.dominant_share", dominant_share, "ratio");
        ("trace.overhead_ratio", overhead (), "ratio");
        ("trace.spans", float_of_int (List.length !Trace.spans), "count");
      ]
  in
  let metrics =
    List.map
      (fun (n, u, _) ->
        match List.find_opt (fun (m, _, _) -> m = n) (measured @ extra) with
        | Some (_, v, _) -> (n, (if Float.is_finite v then v else 0.0), u)
        | None -> (n, 0.0, u))
      per_layer
  in
  say "dominant layer of %s: %s (%.1f%% of traced busy time %.3fs)" workload dominant
    (100.0 *. dominant_share) busy;
  List.iter (fun (l, s) -> say "  share %-12s %6.2f%%" l (100.0 *. s)) shares;
  List.iter (fun (n, v, u) -> if v <> 0.0 then say "%-28s %14.6g %s" n v u) metrics;
  let trace_path = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
  Trace.write_chrome trace_path;
  write_record
    (Filename.concat out (Printf.sprintf "%s-seed%d-trace1.json" workload seed))
    ([ ("workload", json_str workload); ("seed", json_num (float_of_int seed));
       ("seconds", json_num seconds); ("host", json_obj (host ()));
       ("dominant_layer", json_str dominant); ("dominant_share", json_num dominant_share);
       ("shares", json_obj (List.map (fun (l, s) -> (l, json_num s)) shares));
       ("trace_file", json_str trace_path);
       ("metrics", json_obj (List.map metric_json metrics)) ]
    @ p.notes ());
  metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let desc = ref false and probes_for = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME compile|simulate|serve|faults");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--describe", Arg.Set desc, " print BENCHMARK.json");
      ("--probes-for", Arg.Set_string probes_for, "NAME (internal) the probe process of an untraced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !desc then describe ()
  else if !probes_for <> "" then probes ~workload:!probes_for ~seed:!seed
  else begin
    if not (List.exists (fun (n, _, _) -> n = !workload) workloads) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    say "workload %s seed %d seconds %g trace %d" !workload !seed !seconds !trace;
    say "host %s" (json_obj (host ()));
    let metrics =
      if !trace = 1 then traced ~workload:!workload ~seed:!seed ~seconds:!seconds
      else untraced ~workload:!workload ~seed:!seed ~seconds:!seconds
    in
    if Atomic.get failed > 0 then
      List.iter (fun f -> say "FAILED %s" f) !failures;
    say "fail_ratio %d/%d" (Atomic.get failed) (Atomic.get attempted);
    print_endline (result metrics)
  end
