(* Seeded circuit families. Every generator takes its randomness from an
   explicit [Rng.t], so one workload seed fixes every input; the program
   under test only ever sees the generated [Circuit.b]. *)

open Quipper
open Circ
module Rng = Quipper_math.Rng
module Trotter = Quipper_primitives.Trotter
module Grover = Quipper_primitives.Grover
module Qft = Quipper_primitives.Qft

type inst = {
  label : string;  (** family name, e.g. ["ising"] *)
  circ : Circuit.b;
  inputs : bool list;
  qubits : int;
}

let zeros n = List.init n (fun _ -> false)

let on_register n f =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun ql ->
        let* () = f (Array.of_list ql) in
        return ql)
  in
  b

let inst label n circ = { label; circ; inputs = zeros n; qubits = n }

(* Heisenberg chain with a random transverse field: XX+YY+ZZ couplings
   on neighbours, X and Z fields on every site, [steps] first-order
   Trotter slices. Every Pauli term is a basis change + CNOT ladder +
   exp(-iZt), so consecutive terms share wires but rarely fuse. *)
let ising_h rng n =
  let c () = 0.2 +. Rng.float rng in
  let pair i p = { Trotter.coeff = c (); paulis = [ (i, p); (i + 1, p) ] } in
  let site i p = { Trotter.coeff = c (); paulis = [ (i, p) ] } in
  let terms =
    List.concat
      (List.init (n - 1) (fun i ->
           [ pair i Trotter.X; pair i Trotter.Y; pair i Trotter.Z ]))
    @ List.concat (List.init n (fun i -> [ site i Trotter.X; site i Trotter.Z ]))
  in
  { Trotter.nqubits = n; terms }

let ising rng ~n ~steps =
  let h = ising_h rng n in
  let dt = 0.05 +. (0.1 *. Rng.float rng) in
  inst "ising" n
    (on_register n (fun qs ->
         let* () = iterm hadamard_ (Array.to_list qs) in
         iterm (fun _ -> Trotter.step h qs ~dt) (List.init steps Fun.id)))

(* Grover search for a seeded marked element: the oracle conjugates
   [phase_flip_all_ones] by NOTs on the zero bits of the element. *)
let grover rng ~n ~iterations =
  let marked = Rng.int rng (1 lsl n) in
  let oracle ql =
    let zs = List.filteri (fun i _ -> (marked lsr i) land 1 = 0) ql in
    let* () = iterm qnot_ zs in
    let* () = Grover.phase_flip_all_ones ql in
    iterm qnot_ zs
  in
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun ql ->
        let* () = Grover.search ~iterations oracle ql in
        return ql)
  in
  inst "grover" n b

(* QFT of a seeded basis state. *)
let qft rng ~n =
  let x = Rng.int rng (1 lsl n) in
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun ql ->
        let* () = Qft.qft (Array.of_list ql) in
        return ql)
  in
  { (inst "qft" n b) with inputs = List.init n (fun i -> (x lsr i) land 1 = 1) }

(* The dense Clifford+T mix with phase-polynomial locality (bench N5):
   segments of diagonal gates confined to a [w]-wire neighbourhood, the
   case fusion wins, separated by Hadamard/X/CNOT churn. *)
let dense_mix rng ~n ~segs =
  let w = 6 and seg_diag = 32 and seg_churn = 6 in
  inst "dense" n
    (on_register n (fun qs ->
         let* () = iterm hadamard_ (Array.to_list qs) in
         iterm
           (fun _ ->
             let o = Rng.int rng (n - w + 1) in
             let pick () = o + Rng.int rng w in
             let diag () =
               let i = pick () in
               match Rng.int rng 10 with
               | 0 | 1 | 2 | 3 ->
                   let* _ = gate_T qs.(i) in
                   return ()
               | 4 | 5 ->
                   let* _ = gate_S qs.(i) in
                   return ()
               | 6 | 7 ->
                   let j = o + ((i - o + 1 + Rng.int rng (w - 1)) mod w) in
                   let* _ = with_controls [ ctl qs.(i) ] (gate_Z qs.(j)) in
                   return ()
               | 8 -> rot_Z (0.1 +. Rng.float rng) qs.(i)
               | _ ->
                   let j = (o + w + Rng.int rng (n - w)) mod n in
                   cnot ~control:qs.(i) ~target:qs.(j)
             in
             let churn () =
               let i = Rng.int rng n in
               match Rng.int rng 3 with
               | 0 -> hadamard_ qs.(i)
               | 1 -> qnot_ qs.(i)
               | _ ->
                   let j = (i + 1 + Rng.int rng (n - 1)) mod n in
                   cnot ~control:qs.(i) ~target:qs.(j)
             in
             let* () = iterm (fun _ -> diag ()) (List.init seg_diag Fun.id) in
             iterm (fun _ -> churn ()) (List.init seg_churn Fun.id))
           (List.init segs Fun.id)))

(* Boxed repeated calls (bench N5): one 4-wire body boxed once and called
   over rotating wire windows — dispatch-bound, served by box replay. *)
let boxed rng ~n ~calls =
  let angle = 0.1 +. Rng.float rng in
  let shape4 = Qdata.list_of 4 Qdata.qubit in
  let body ql =
    let qs = Array.of_list ql in
    let seg k =
      iterm
        (fun i ->
          match (k + i) mod 4 with
          | 0 ->
              let* _ = gate_T qs.(i mod 4) in
              return ()
          | 1 ->
              let* _ = gate_S qs.((i + 1) mod 4) in
              return ()
          | 2 -> rot_Z angle qs.((i + 2) mod 4)
          | _ ->
              let* _ = with_controls [ ctl qs.(i mod 4) ] (gate_Z qs.((i + 1) mod 4)) in
              return ())
        (List.init 32 Fun.id)
    in
    let* () = seg 0 in
    let* () = hadamard_ qs.(0) in
    let* () = seg 1 in
    let* () = hadamard_ qs.(2) in
    let* () = seg 2 in
    return ql
  in
  let stride = 1 + Rng.int rng 3 in
  inst "boxed" n
    (on_register n (fun qs ->
         let* () = iterm hadamard_ (Array.to_list qs) in
         iterm
           (fun r ->
             let args = List.init 4 (fun i -> qs.((r + (i * stride)) mod n)) in
             let* _ = box "bench_body" ~in_:shape4 ~out:shape4 body args in
             return ())
           (List.init calls Fun.id)))

let repcode ~d =
  let p = { Algo_repcode.distance = d; rounds = d } in
  { label = "repcode"; circ = Algo_repcode.generate ~p (); inputs = []; qubits = d }

(* Flat source gate count: what a simulator executes. *)
let flat_gates b = Circuit.gate_count_shallow (Circuit.inline b)
