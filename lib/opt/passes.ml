open Quipper

type stat = {
  round : int;
  gates_before : int;
  gates_after : int;
  depth_before : int;
  depth_after : int;
  seconds : float;
  counters : Stream_opt.stats;
}

let max_rounds = 10

let measure b = (Gatecount.total_logical (Gatecount.aggregate b), Depth.depth b)

(* no rule fired: the round's output is its input *)
let unchanged (c : Stream_opt.stats) =
  c.cancelled + c.fused + c.flipped + c.const_controls + c.const_deleted = 0

let optimize (b : Circuit.b) =
  let rec go round b (gates_before, depth_before) stats =
    let counters = Stream_opt.stats_create () in
    let t0 = Unix.gettimeofday () in
    let b' = Stream_opt.optimize_b ~rounds:1 ~window:max_int ~stats:counters b in
    let seconds = Unix.gettimeofday () -. t0 in
    let gates_after, depth_after = measure b' in
    let stats =
      { round; gates_before; gates_after; depth_before; depth_after; seconds; counters }
      :: stats
    in
    if unchanged counters || round >= max_rounds then (b', List.rev stats)
    else go (round + 1) b' (gates_after, depth_after) stats
  in
  go 1 b (measure b) []

let pp_stats ppf stats =
  Format.fprintf ppf "%5s %12s %12s %8s %7s %7s %9s@\n" "round" "gates before"
    "gates after" "removed" "depth" "depth'" "time";
  List.iter
    (fun s ->
      Format.fprintf ppf "%5d %12d %12d %8d %7d %7d %8.1fms@\n  %a@\n" s.round
        s.gates_before s.gates_after
        (s.gates_before - s.gates_after)
        s.depth_before s.depth_after (1000. *. s.seconds) Stream_opt.pp_stats
        s.counters)
    stats

let report ?details ppf ~before:(before, depth_before) ~after:(after, depth_after) =
  Format.fprintf ppf "Before optimisation:@\n%a@\n" Gatecount.pp_summary before;
  Option.iter (fun pp -> pp ppf) details;
  Format.fprintf ppf "After optimisation:@\n%a@\n" Gatecount.pp_summary after;
  Format.fprintf ppf "Optimizer: removed %d of %d logical gates; depth %d -> %d@."
    (before.Gatecount.total_logical - after.Gatecount.total_logical)
    before.Gatecount.total_logical depth_before depth_after

let optimize_and_report ?(verbose = false) ppf (b : Circuit.b) =
  let b', stats = optimize b in
  let details = if verbose then Some (fun ppf -> pp_stats ppf stats) else None in
  report ?details ppf
    ~before:(Gatecount.summarize b, Depth.depth b)
    ~after:(Gatecount.summarize b', Depth.depth b');
  b'
