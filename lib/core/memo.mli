(** A concurrent memo: one value per key, computed once and shared by
    every domain. Boxed subcircuits are defined once and shared by every
    call (paper §4.4.4); each cache that shares that work across domains
    — the shot service's request and template caches,
    {!Quipper_sim.Fuse}'s compiled boxes, {!Quipper_opt.Stream_opt}'s
    skeleton memo — is one of these.

    - {b Once per key.} The first caller of a missing key computes it
      outside the lock; concurrent callers of that key wait for it.
    - {b Failures do not wedge a key.} A computation that raises frees
      the key and wakes the waiters, one of which retries.
    - {b No self-wait.} Waiting on a key in flight on the calling domain,
      or on a domain that waits (through any chain of waiters) on the
      calling domain, raises {!Errors.Error} [(Invalid _)] at once.
    - {b Optional LRU bound.} Inserting into a table at [capacity] first
      evicts the least-recently-used entry. *)

type ('k, 'v) t
(** Keys are compared and hashed structurally. *)

val create : ?capacity:int -> unit -> ('k, 'v) t
(** Unbounded unless [capacity] is given; raises [Invalid_argument] when
    [capacity < 1]. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [find_or_add m k compute] is the value stored under [k], computed by
    [compute ()] and stored when absent. The flag is [true] when the
    value came from the table, also after waiting for another domain to
    compute it, and [false] when this call computed it. An exception from
    [compute] propagates and leaves [k] absent. *)

type stats = {
  hits : int;  (** values served from the table, waiters included *)
  misses : int;  (** computations started, failed ones included *)
  evictions : int;  (** entries dropped by the LRU bound *)
  entries : int;  (** entries resident now *)
}

val stats : ('k, 'v) t -> stats
