(* serve: a closed loop of one client domain per core, each calling
   [Quipper_serve.submit] or [submit_sweep] only after its previous reply
   arrived, against one LRU-bounded service. The seeded request mix:

   - a Zipf-weighted hot set (Ising, Grover, QFT, dense mix, repcode
     d=7): hits, sampling-bound; repcode is Clifford, so [`Auto] serves
     it from the tableau;
   - unique dense-mix circuits: misses that prepare through
     [`Auto] -> Fuse and evict, since the cache holds fewer circuits than
     the stream has;
   - Ising dt sweeps through the template cache.

   The repository has no recorded request trace, so every ratio and size
   below is a synthetic assumption, not a measurement of real traffic:

   - 80% hot, 20% cold: the conventional 80/20 skew of cache workloads;
     of the cold fifth, 15% unique circuits and 5% sweeps, so that every
     run has a few dozen sweeps;
   - Zipf(1) popularity over the hot set, the usual model of request
     popularity in caches;
   - cache capacity = hot set + 2: the whole hot set fits, as in a warm
     service, and the unique circuits still evict, since the stream has
     more distinct circuits than the cache holds;
   - 24 shots per request, so that a hit costs tens of milliseconds and
     a 20 s run serves several hundred requests, enough samples for its
     percentiles;
   - 4 points of 8 shots per sweep: 32 shots, about one request's
     sampling work. *)

open Quipper
open Measure
module Serve = Quipper_serve
module Fuse = Quipper_sim.Fuse
module Sv = Quipper_sim.Statevector
module Rng = Quipper_math.Rng

(* one request of a client's stream: a single request, or a sweep (then
   [r] is the template circuit at the sweep's shot count) *)
type req = { r : Serve.request; sw : Serve.sweep option }

let make scale ~seed =
  let n, shots, sweep_shots, points, pool =
    match scale with
    | Full -> (16, 24, 8, 4, 240)
    | Probe -> (10, 64, 16, 4, 240)
  in
  let rng = Rng.create seed in
  let sub () = Rng.create (Rng.int rng 1_000_000_000) in
  let hot =
    [|
      Families.ising (sub ()) ~n ~steps:1;
      Families.grover (sub ()) ~n ~iterations:1;
      Families.qft (sub ()) ~n;
      Families.dense_mix (sub ()) ~n ~segs:10;
      Families.repcode ~d:7;
      Families.qft (sub ()) ~n;
    |]
  in
  (* Zipf(1) weights over the hot set *)
  let weights = Array.mapi (fun i _ -> 1.0 /. float_of_int (i + 1)) hot in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  let pick_hot r =
    let x = ref (Rng.float r *. wsum) and i = ref 0 in
    while !i < Array.length hot - 1 && !x >= weights.(!i) do
      x := !x -. weights.(!i);
      incr i
    done;
    hot.(!i)
  in
  let uniques = Array.init pool (fun _ -> Families.dense_mix (sub ()) ~n ~segs:10) in
  let ising = Families.ising (sub ()) ~n ~steps:1 in
  let base = Circuit.angles ising.circ in
  let request (c : Families.inst) shots seed =
    { Serve.circuit = c.circ; inputs = c.inputs; shots; seed }
  in
  (* the probe runs one client, like every other probe, so it does not
     depend on a second core being free while it runs *)
  let clients = match scale with Full -> max 1 (nproc ()) | Probe -> 1 in
  (* each client's request stream: 80% hot, 15% unique, 5% sweeps *)
  let stream c =
    let r = Rng.create (Rng.derive seed (100 + c)) in
    let next_unique = ref c in
    Array.init 4000 (fun i ->
        let rseed = Rng.derive seed ((c * 100_000) + i) in
        let x = Rng.int r 100 in
        if x < 80 then { r = request (pick_hot r) shots rseed; sw = None }
        else if x < 95 then begin
          let u = uniques.(!next_unique mod pool) in
          next_unique := !next_unique + clients;
          { r = request u shots rseed; sw = None }
        end
        else
          let pts =
            List.init points (fun _ ->
                let f = 0.5 +. Rng.float r in
                Array.map (fun a -> a *. f) base)
          in
          let sw =
            {
              Serve.sw_circuit = ising.circ;
              sw_inputs = ising.inputs;
              sw_points = pts;
              sw_shots = sweep_shots;
              sw_seed = rseed;
            }
          in
          { r = request ising sweep_shots rseed; sw = Some sw })
  in
  let streams = Array.init clients stream in
  let service = Serve.create ~capacity:(Array.length hot + 2) ~template_capacity:4 () in
  let pos = Array.make clients 0 in
  (* replies kept for the post-run checks: (request, outcomes); [kept]
     holds, for each reply kind, the k-th reply of that kind over all
     clients (k drawn from the seed), or the last one if fewer came *)
  let kinds = [ "serve.hit"; "serve.miss"; "serve.sweep" ] in
  let pick = List.map (fun k -> (k, 1 + Rng.int rng 4)) kinds in
  let seen = Hashtbl.create 3 and kept = Hashtbl.create 3 and served = ref [] in
  let keep_lock = Mutex.create () in
  let serve_one total_shots c =
    let q = streams.(c).(pos.(c) mod Array.length streams.(c)) in
    pos.(c) <- pos.(c) + 1;
    let t0 = now () in
    let replies =
      Trace.span ~req:((c * 1_000_000) + pos.(c)) (match q.sw with Some _ -> "serve.submit_sweep" | None -> "serve.submit")
        (fun () ->
          match q.sw with
          | Some sw -> Serve.submit_sweep service sw
          | None -> [ (try Ok (Serve.submit service q.r) with e -> Error (Printexc.to_string e)) ])
    in
    let secs = now () -. t0 in
    let shots = ref 0 in
    List.iter
      (function
        | Ok (rep : Serve.reply) ->
            shots := !shots + Array.length rep.outcomes;
            check "serve reply shape" (Array.length rep.outcomes = q.r.shots)
        | Error e -> check ("serve reply: " ^ e) false)
      replies;
    let kind =
      match (q.sw, replies) with
      | Some _, _ -> "serve.sweep"
      | _, [ Ok rep ] when rep.cache_hit -> "serve.hit"
      | _ -> "serve.miss"
    in
    record kind secs (float_of_int !shots);
    total_shots := !total_shots + !shots;
    Mutex.protect keep_lock (fun () ->
        served := (q, replies) :: !served;
        let i = 1 + Option.value ~default:0 (Hashtbl.find_opt seen kind) in
        Hashtbl.replace seen kind i;
        if i <= List.assoc kind pick then Hashtbl.replace kept kind (q, replies))
  in
  let round ~deadline _ =
    let t0 = now () in
    let client c () =
      let shots = ref 0 in
      Trace.span "bench.client" (fun () ->
          while now () < deadline do
            serve_one shots c
          done);
      !shots
    in
    let ds = List.init (clients - 1) (fun c -> Domain.spawn (client (c + 1))) in
    let shots = List.fold_left (fun a d -> a + Domain.join d) (client 0 ()) ds in
    record "serve.loop" (now () -. t0) (float_of_int shots)
  in
  (* the kept replies against [Quipper_serve.naive], which runs every
     shot end to end: one hit, one miss and every point of one sweep *)
  let check_law () =
    List.iter
      (fun kind ->
        match Hashtbl.find_opt kept kind with
        | None -> check ("serve: no " ^ kind ^ " reply to check") false
        | Some (q, replies) -> (
            match q.sw with
            | None ->
                List.iter
                  (function
                    | Ok (rep : Serve.reply) ->
                        check (kind ^ " vs naive") (rep.outcomes = Serve.naive service q.r)
                    | Error _ -> ())
                  replies
            | Some sw ->
                let reqs = Serve.sweep_requests sw in
                if List.length replies <> List.length reqs then check "sweep points" false
                else
                  List.iteri
                    (fun i (rep, r) ->
                      match rep with
                      | Ok (rep : Serve.reply) ->
                          check (Fmt.str "sweep point %d vs naive" i) (rep.outcomes = Serve.naive service r)
                      | Error _ -> ())
                    (List.combine replies reqs)))
      kinds
  in
  let latencies traced =
    List.concat_map
      (fun k -> List.map (fun o -> o.secs *. 1000.0) (ops_of ~traced k))
      [ "serve.hit"; "serve.miss"; "serve.sweep" ]
  in
  let last_tail = ref None in
  let e2e () =
    let loop = ops_of "serve.loop" in
    let shots = List.fold_left (fun a o -> a +. o.work) 0.0 loop in
    let wall = List.fold_left (fun a o -> a +. o.secs) 0.0 loop in
    let lat = latencies false in
    let ((_, tail_v, _) as t) = tail lat in
    last_tail := Some t;
    [
      ("shots_per_s", shots /. wall, "shots/s");
      ("req_p50_ms", median lat, "ms");
      ("req_tail_ms", tail_v, "ms");
    ]
  in
  (* trace-only: one hot request of each fused family taken apart into
     the service's pipeline stages through public calls — hash, prepare
     (fuse), snapshot, sample *)
  let decompose () =
    Array.iteri
      (fun i (c : Families.inst) ->
        if c.label <> "repcode" then
          Trace.span ~req:(-1 - i) "bench.request" (fun () ->
              ignore (timed "circuit.hash" (fun _ -> 1.0) (fun () -> Circuit.hash c.circ));
              ignore
                (timed "circuit.hash_skeleton" (fun _ -> 1.0) (fun () ->
                     Circuit.hash_skeleton c.circ));
              ignore
                (timed "circuit.subst_angles" (fun _ -> 1.0) (fun () ->
                     Circuit.subst_angles c.circ (Circuit.angles c.circ)));
              let st =
                timed "fuse.run_circuit" (fun _ -> 1.0) (fun () ->
                    Fuse.run_circuit ~seed:1 c.circ c.inputs)
              in
              match timed "snapshot.snapshot" (fun _ -> 1.0) (fun () -> Fuse.snapshot st) with
              | None -> ()
              | Some snap ->
                  let outs = c.circ.Circuit.main.Circuit.outputs in
                  for s = 0 to shots - 1 do
                    ignore
                      (timed "sample.sample_from" (fun _ -> 1.0) (fun () ->
                           Sv.sample_from snap ~rng:(Rng.create (Rng.derive seed s)) outs))
                  done))
      hot
  in
  let layers () =
    let traced = true in
    let ms kind = secs_median ~traced kind *. 1000.0 in
    let st = Serve.stats service in
    let f = float_of_int in
    let replies =
      List.concat_map
        (fun (_, rs) -> List.filter_map (function Ok r -> Some r | Error _ -> None) rs)
        !served
    in
    let nrep = f (List.length replies) in
    let count p = f (List.length (List.filter p replies)) in
    let shot_ms = ms "sample.sample_from" in
    let hit_ms = ms "serve.hit" in
    [
      ("circuit.hash_s", secs_median ~traced "circuit.hash", "s");
      ("circuit.hash_skeleton_s", secs_median ~traced "circuit.hash_skeleton", "s");
      ("circuit.subst_angles_s", secs_median ~traced "circuit.subst_angles", "s");
      ("fuse.run_s", secs_median ~traced "fuse.run_circuit", "s");
      ("snapshot.s", secs_median ~traced "snapshot.snapshot", "s");
      ("sample.shot_ms", shot_ms, "ms");
      ("sample.hit_cover", shot_ms *. f shots /. hit_ms, "ratio");
      ("serve.hit_ms", hit_ms, "ms");
      ("serve.miss_ms", ms "serve.miss", "ms");
      ("serve.sweep_point_ms", ms "serve.sweep" /. f points, "ms");
      ("serve.hits", f st.hits, "count");
      ("serve.misses", f st.misses, "count");
      ("serve.hit_ratio", f st.hits /. f (max 1 (st.hits + st.misses)), "ratio");
      ("serve.prepares", f st.prepares, "count");
      ("serve.evictions", f st.evictions, "count");
      ("serve.t_hits", f st.t_hits, "count");
      ("serve.t_misses", f st.t_misses, "count");
      ("serve.specialized", f st.specialized, "count");
      ("serve.resimulated", List.fold_left (fun a (r : Serve.reply) -> a +. f r.resimulated) 0.0 replies, "count");
      ("serve.clifford_share", count (fun r -> r.backend = "clifford") /. nrep, "ratio");
    ]
  in
  let notes () =
    [
      ("clients", json_num (float_of_int clients));
      ("qubits", json_num (float_of_int n));
    ]
    @
    match !last_tail with
    | Some (p, v, count) ->
        [
          ( "req_tail",
            json_obj
              [
                ("percentile", json_num p);
                ("value_ms", json_num v);
                ("samples", json_num (float_of_int count));
              ] );
        ]
    | None -> []
  in
  {
    name = "serve";
    min_rounds = 1;
    warm =
      (fun () ->
        (* prepare the hot set and the sweep template once *)
        Array.iter (fun (c : Families.inst) -> ignore (Serve.submit service (request c 1 0))) hot;
        ignore
          (Serve.submit_sweep service
             {
               Serve.sw_circuit = ising.circ;
               sw_inputs = ising.inputs;
               sw_points = [ base ];
               sw_shots = 1;
               sw_seed = 0;
             }));
    round;
    decompose;
    check = check_law;
    e2e;
    layers;
    notes;
  }
