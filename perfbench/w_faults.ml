(* faults: repetition-code memory under circuit-level depolarizing noise,
   d in {5,7,9} x p in {0.001, 0.01} — the only workload that reaches the
   Pauli-frame engine, Noise and the Rng lane pools. Each run of a point
   has its own master seed, derived from the workload seed. *)

open Measure
module Noise = Quipper_sim.Noise
module Rng = Quipper_math.Rng

let make scale ~seed =
  let points =
    match scale with
    | Full ->
        List.concat_map
          (fun (d, trials) -> [ (d, 0.001, trials); (d, 0.01, trials) ])
          [ (5, 100_000); (7, 60_000); (9, 40_000) ]
    | Probe -> [ (5, 0.01, 20_000); (7, 0.001, 10_000) ]
  in
  let kind (d, physical, _) = Fmt.str "faults.d%d_p%g" d physical in
  let run_point ~master_seed ((d, physical, trials) as point) =
    let p = { Algo_repcode.distance = d; rounds = d } in
    let pt, secs =
      time (fun () ->
          timed "repcode.run_point" (fun _ -> float_of_int trials) (fun () ->
              Algo_repcode.run_point ~master_seed ~p ~physical ~trials ()))
    in
    record (kind point) secs (float_of_int trials);
    check
      (Fmt.str "repcode d=%d p=%g" d physical)
      (pt.pt_errored = 0 && pt.pt_tripped = 0
      && pt.pt_frame_trials + pt.pt_slow_trials = trials);
    pt
  in
  let runs = ref 0 and last = Array.of_list (List.map (fun _ -> None) points) in
  let step j point () =
    incr runs;
    last.(j) <- Some (run_point ~master_seed:(Rng.derive seed !runs) point)
  in
  let steps = Array.of_list (List.mapi step points) in
  let last_points () = List.filter_map Fun.id (Array.to_list last) in
  (* the points' trials over the sum of each point's median time *)
  let trials_per_s () =
    let trials = List.fold_left (fun a (_, _, t) -> a + t) 0 points in
    float_of_int trials /. List.fold_left (fun a pt -> a +. secs_median (kind pt)) 0.0 points
  in
  (* Frame-engine outcomes against the slow per-trial engine, trial by
     trial, on a validation slice of every distance. *)
  let validate () =
    List.iter
      (fun (d, physical, _) ->
        let p = { Algo_repcode.distance = d; rounds = d } in
        let b = Algo_repcode.generate ~p () in
        let cfg = { Noise.none with depolarizing = physical } in
        let collect engine =
          let out = Array.make 300 None in
          ignore
            (Noise.sample_trials_on
               (module Quipper_sim.Backend.Clifford)
               ~master_seed:(Rng.derive seed 999) ~engine ~trials:300 cfg b []
               ~f:(fun t s -> out.(t) <- Some s));
          out
        in
        check (Fmt.str "frame vs slow d=%d" d) (collect `Frame = collect `Slow))
      (List.sort_uniq compare (List.map (fun (d, _, _) -> (d, 0.01, 0)) points))
  in
  let layers () =
    let f = float_of_int in
    let sum g = f (List.fold_left (fun a (pt : Algo_repcode.point) -> a + g pt) 0 (last_points ())) in
    let frame = sum (fun pt -> pt.pt_frame_trials) in
    [
      ("frame.trials", frame, "count");
      ("frame.fallback_trials", sum (fun pt -> pt.pt_slow_trials), "count");
      ("frame.share", frame /. sum (fun pt -> pt.pt_trials), "ratio");
      ("noise.errored", sum (fun pt -> pt.pt_errored), "count");
      ("noise.point_s", secs_median ~traced:true "repcode.run_point", "s");
    ]
  in
  {
    name = "faults";
    min_rounds = 5;
    warm = (fun () -> Array.iter (fun step -> step ()) steps);
    round = rotating steps;
    decompose = (fun () -> ());
    check = validate;
    e2e = (fun () -> [ ("trials_per_s", trials_per_s (), "trials/s") ]);
    layers;
    notes =
      (fun () ->
        [
          ( "logical_errors",
            json_list
              (List.map
                 (fun (pt : Algo_repcode.point) ->
                   json_obj
                     [
                       ("d", json_num (float_of_int pt.pt_distance));
                       ("p", json_num pt.pt_physical);
                       ("trials", json_num (float_of_int pt.pt_trials));
                       ("logical_errors", json_num (float_of_int pt.pt_logical_errors));
                     ])
                 (last_points ())) );
        ]);
  }
