(** Wires: the horizontal lines of a circuit diagram.

    A wire is identified by an integer and carries either quantum or
    classical data (paper §4.2.3: Quipper's extended circuit model freely
    mixes the two). Wire identities are stable across the lifetime of a
    circuit-building run: a [Measure] gate keeps the wire id but flips its
    type from [Q] to [C], matching Quipper's picture of a qubit wire turning
    into a classical wire.

    The [qubit] and [bit] wrappers are the handles user programs hold; they
    exist so that the type checker separates quantum from classical wires at
    the API level (the paper's [Qubit] vs [Bit] distinction, §4.3.2). *)

type t = int

type ty = Q | C

let ty_name = function Q -> "qubit" | C -> "bit"

(** A typed wire endpoint, as occurring in circuit aritys and shape
    witnesses. *)
type endpoint = { wire : t; ty : ty }

let qw wire = { wire; ty = Q }
let cw wire = { wire; ty = C }

type qubit = Qubit of t
type bit = Bit of t

let qubit_wire (Qubit w) = w
let bit_wire (Bit w) = w

let pp_endpoint ppf e =
  Fmt.pf ppf "%s %d" (match e.ty with Q -> "Q" | C -> "C") e.wire

let pp_qubit ppf (Qubit w) = Fmt.pf ppf "q%d" w
let pp_bit ppf (Bit w) = Fmt.pf ppf "c%d" w

(* ------------------------------------------------------------------ *)
(* Wire sets that stay linear on wide gates                            *)

(* A subroutine call can carry thousands of wires, while an ordinary gate
   has one to three. Up to [short] wires a plain scan is cheaper than
   building a table, so both functions below keep one there and switch to a
   hash set past it. *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = Int.equal
  let hash w = w land max_int
end)

let short = 16

let rec longer_than n = function
  | [] -> false
  | _ :: tl -> n = 0 || longer_than (n - 1) tl

let rec scan w = function [] -> false | x :: tl -> Int.equal x w || scan w tl

let mem_of ws =
  if not (longer_than short ws) then fun w -> scan w ws
  else begin
    let set = Tbl.create (2 * short) in
    List.iter (fun w -> Tbl.replace set w ()) ws;
    Tbl.mem set
  end

let first_repeat endpoints =
  if not (longer_than short endpoints) then
    let rec go seen = function
      | [] -> None
      | e :: tl -> if scan e.wire seen then Some e.wire else go (e.wire :: seen) tl
    in
    go [] endpoints
  else begin
    let seen = Tbl.create (2 * short) in
    let rec go = function
      | [] -> None
      | e :: tl ->
          if Tbl.mem seen e.wire then Some e.wire
          else (Tbl.add seen e.wire (); go tl)
    in
    go endpoints
  end
