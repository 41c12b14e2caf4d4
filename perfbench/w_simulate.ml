(* simulate: a fixed circuit set through the gate-fusion simulator at the
   program's default domains — a Heisenberg Trotter chain (where fusion
   misses), Grover with the all-ones phase flip, QFT, the dense
   Clifford+T mix (where fusion wins), and boxed repeated calls at a
   small register (dispatch-bound, served by box replay). Nothing is
   sampled. *)

open Quipper
open Measure
module Fuse = Quipper_sim.Fuse
module Sv = Quipper_sim.Statevector
module Reference = Quipper_sim.Reference
module Cplx = Quipper_math.Cplx
module Rng = Quipper_math.Rng

let family rng ~n ~small = function
  | `Ising -> Families.ising rng ~n ~steps:1
  | `Grover -> Families.grover rng ~n ~iterations:1
  | `Qft -> Families.qft rng ~n
  | `Dense -> Families.dense_mix rng ~n ~segs:10
  | `Boxed -> Families.boxed rng ~n:small ~calls:(if small >= 12 then 800 else 200)

let kinds = [ `Ising; `Grover; `Qft; `Dense; `Boxed ]

(* The set at register size [n] (boxed calls at [small]), each family
   from its own stream derived from [seed]. *)
let circuits ~seed ~n ~small =
  List.mapi (fun i k -> family (Rng.create (Rng.derive seed i)) ~n ~small k) kinds

let max_dev a b =
  let d = ref 0.0 in
  Array.iteri (fun i x -> d := Float.max !d (Cplx.norm (Cplx.sub x b.(i)))) a;
  !d

(* Sustained copy bandwidth of one float array of [len] elements into
   another, in GB/s (one read plus one write per element): the
   in-process roofline the kernels are judged against. *)
let copy_gbps len =
  let src = Array.make len 1.0 and dst = Array.make len 0.0 in
  let secs =
    median
      (List.init 15 (fun _ -> snd (time (fun () -> Array.blit src 0 dst 0 len))))
  in
  float_of_int (2 * 8 * len) /. secs /. 1e9

let make scale ~seed =
  let n, small = match scale with Full -> (20, 12) | Probe -> (12, 8) in
  let set = circuits ~seed ~n ~small in
  let flat = List.map (fun (c : Families.inst) -> Families.flat_gates c.circ) set in
  let total_gates = float_of_int (List.fold_left ( + ) 0 flat) in
  (* every run of a circuit must reproduce its first run's probabilities
     bit for bit; its last run's amplitudes are checked against
     Statevector *)
  let digest st =
    let p = Sv.probabilities (Fuse.statevector st) in
    let d = ref 0.0 in
    Array.iteri (fun i x -> d := !d +. (x *. float_of_int ((i mod 1009) + 1))) p;
    !d
  in
  let circs = Array.of_list set and gates = Array.of_list flat in
  let first = Array.make (Array.length circs) None in
  let last_states = Array.make (Array.length circs) None in
  let run_one k =
    let c = circs.(k) in
    let st, s =
      time (fun () ->
          Trace.span "fuse.run_circuit" (fun () -> Fuse.run_circuit ~seed:1 c.circ c.inputs))
    in
    record ("simulate." ^ c.label) s (float_of_int gates.(k));
    let d = digest st in
    (match first.(k) with
    | None -> first.(k) <- Some d
    | Some d0 -> check ("deterministic " ^ c.label) (d = d0));
    last_states.(k) <- Some st
  in
  (* the set's source gates over the sum of each circuit's median time *)
  let set_secs ?traced () =
    Array.fold_left (fun a (c : Families.inst) -> a +. secs_median ?traced ("simulate." ^ c.label)) 0.0 circs
  in
  let check_refs () =
    (* fused amplitudes against the unfused engine at full size ... *)
    Array.iteri
      (fun k (c : Families.inst) ->
        match last_states.(k) with
        | None -> check ("fused vs statevector " ^ c.label ^ ": never run") false
        | Some st ->
            let sv = Sv.run_circuit ~seed:1 c.circ c.inputs in
            check ("fused vs statevector " ^ c.label)
              (max_dev (Fuse.amplitudes st) (Sv.amplitudes sv) < 1e-9))
      circs;
    (* ... and against the generic-matrix reference engine on small
       copies of every family *)
    List.iter
      (fun (c : Families.inst) ->
        let fu = Fuse.run_circuit ~seed:1 c.circ c.inputs in
        let rf = Reference.run_circuit ~seed:1 c.circ c.inputs in
        check ("fused vs reference " ^ c.label)
          (max_dev (Fuse.amplitudes fu) (Reference.amplitudes rf) < 1e-9))
      (circuits ~seed ~n:(min n 12) ~small:(min small 8))
  in
  let decompose () =
    List.iteri
      (fun i (c : Families.inst) ->
        let kind = List.nth kinds i in
        ignore
          (timed "circ.generate" (fun _ -> 1.0) (fun () ->
               family (Rng.create (Rng.derive seed i)) ~n ~small kind));
        ignore (timed "circuit.hash" (fun _ -> 1.0) (fun () -> Circuit.hash c.circ));
        let t =
          timed "fuse.compile_template" (fun _ -> 1.0) (fun () ->
              Fuse.compile_template c.circ c.inputs)
        in
        ignore
          (timed "fuse.run_template" (fun _ -> 1.0) (fun () ->
               Fuse.run_template ~seed:1 t (Circuit.angles c.circ)));
        ignore
          (timed "statevector.run_circuit" (fun _ -> 1.0) (fun () ->
               Sv.run_circuit ~seed:1 c.circ c.inputs)))
      set
  in
  let layers () =
    let traced = true in
    let sum kind = List.fold_left (fun a o -> a +. o.secs) 0.0 (ops_of ~traced kind) in
    let f = float_of_int in
    let stats =
      List.filter_map (Option.map (fun st -> (Fuse.stats st, Fuse.num_qubits st))) (Array.to_list last_states)
    in
    let stat g = f (List.fold_left (fun a (s, _) -> a + g s) 0 stats) in
    (* each kernel launch reads and writes the whole state: 2^q
       amplitudes of 16 bytes, twice *)
    let bytes =
      List.fold_left
        (fun a ((s : Fuse.stats), q) ->
          a +. (f (s.blocks_applied + s.singles_applied) *. f (1 lsl q) *. 32.0))
        0.0 stats
    in
    let run_s = set_secs ~traced () in
    let gbps = bytes /. run_s /. 1e9 in
    let copy = copy_gbps (2 * (1 lsl n)) in
    let seen = stat (fun s -> s.gates_seen) and fused = stat (fun s -> s.gates_fused) in
    [
      ("circ.generate_s", sum "circ.generate", "s");
      ("circuit.hash_s", sum "circuit.hash", "s");
      ("fuse.run_s", run_s, "s");
      ("fuse.compile_s", sum "fuse.compile_template", "s");
      ("fuse.apply_s", sum "fuse.run_template", "s");
      ("fuse.gates_seen", seen, "count");
      ("fuse.gates_fused", fused, "count");
      ("fuse.fused_ratio", fused /. total_gates, "ratio");
      ("fuse.blocks_applied", stat (fun s -> s.blocks_applied), "count");
      ("fuse.singles_applied", stat (fun s -> s.singles_applied), "count");
      ("fuse.boxes_compiled", stat (fun s -> s.boxes_compiled), "count");
      ("fuse.calls_replayed", stat (fun s -> s.calls_replayed), "count");
      ("statevector.run_s", sum "statevector.run_circuit", "s");
      ("kernel.bytes_computed", bytes, "bytes");
      ("kernel.gbps", gbps, "GB/s");
      ("kernel.copy_gbps", copy, "GB/s");
      ("kernel.roofline_ratio", gbps /. copy, "ratio");
    ]
  in
  let notes () =
    [
      ( "circuits",
        json_list
          (List.map2
             (fun (c : Families.inst) g ->
               json_obj
                 [
                   ("family", json_str c.label);
                   ("qubits", json_num (float_of_int c.qubits));
                   ("gates", json_num (float_of_int g));
                 ])
             set flat) );
      ( "roofline",
        json_obj
          [
            ("state_bytes", json_num (float_of_int (16 * (1 lsl n))));
            ("copy_bytes", json_num (float_of_int (16 * (1 lsl n))));
            ("llc", json_str (llc ()));
          ] );
    ]
  in
  {
    name = "simulate";
    min_rounds = 5;
    warm = (fun () -> ignore (List.map (fun (c : Families.inst) -> Fuse.run_circuit ~seed:1 c.circ c.inputs) set));
    round = rotating (Array.init (Array.length circs) (fun k () -> run_one k));
    decompose;
    check = check_refs;
    e2e = (fun () -> [ ("sim_gates_per_s", total_gates /. set_secs (), "gates/s") ]);
    layers;
    notes;
  }
