(** Wires: the horizontal lines of a circuit diagram.

    A wire is identified by an integer and carries either quantum or
    classical data — Quipper's extended circuit model freely mixes the two
    (paper §4.2.3). Wire identities are stable for the lifetime of a
    circuit-building run: a measurement keeps the wire id but flips its
    type from {!Q} to {!C}.

    {!qubit} and {!bit} are the typed handles user programs hold,
    separating quantum from classical wires in the host type system (the
    paper's [Qubit] vs [Bit], §4.3.2). Their constructors are exposed so
    that run functions and tests can relate handles to raw wires; user
    code should treat them as abstract and never forge them. *)

type t = int
(** A wire identifier. *)

(** The two kinds of data a wire can carry. *)
type ty = Q | C

val ty_name : ty -> string

type endpoint = { wire : t; ty : ty }
(** A typed wire occurrence, as used in circuit aritys and shape
    witnesses. *)

val qw : t -> endpoint
(** Quantum endpoint on the given wire. *)

val cw : t -> endpoint
(** Classical endpoint on the given wire. *)

type qubit = Qubit of t
(** A handle to a quantum wire. *)

type bit = Bit of t
(** A handle to a classical wire. *)

val qubit_wire : qubit -> t
val bit_wire : bit -> t

val pp_endpoint : Format.formatter -> endpoint -> unit
val pp_qubit : Format.formatter -> qubit -> unit
val pp_bit : Format.formatter -> bit -> unit

val mem_of : t list -> t -> bool
(** [mem_of ws] is a membership test for [ws]. Building it and testing
    every wire of a wide gate against it costs time linear in the wires:
    short lists are scanned, long ones go into a hash set. *)

val first_repeat : endpoint list -> t option
(** The first wire, in list order, that occurs earlier in the list too;
    [None] when all wires are distinct. Linear in the list length. *)
