(** In-place statevector kernels: the specialised hot loops behind
    {!Statevector}, dispatched via {!Quipper.Gate.fast_class}.

    X/CNOT/Toffoli are index swaps, the diagonal family (Z, S, T, R/Ph,
    Rz, exp(-i%Z), controlled phase) is a phase multiply, H and W are
    the only butterflies. Controls arrive pre-folded as one
    (mask, want) pair — one [land] per index. All kernels operate on
    the first [size] elements of a (re, im) pair of unboxed float
    arrays (the arrays may be longer — capacity is managed by the
    caller) and produce results bit-identical to the generic matrix
    path of the {!Reference} engine.

    Elementwise kernels partition their index space across OCaml 5
    [Domain]s when [size] reaches {!threshold}; the partition is
    deterministic and elementwise, so results are independent of the
    domain count. *)

val num_domains : int ref
(** Domains used by large kernels; defaults to
    [Domain.recommended_domain_count ()], overridden at startup by the
    environment variable [QUIPPER_DOMAINS] when it holds a positive
    integer (benchmarks and CI pin parallelism this way without code
    edits). Set to 1 to force the sequential path. *)

val threshold : int ref
(** Minimum amplitude count before kernels fan out across domains;
    defaults to [2^19], overridden at startup by the environment
    variable [QUIPPER_PAR_THRESHOLD] when it holds a positive integer. *)

val fan_out : int -> (int -> int -> unit) -> unit
(** [fan_out n f] runs [f lo hi] over a partition of [0, n) into
    [d = min !num_domains n] contiguous chunks, chunk [k] covering
    [[k*n/d, (k+1)*n/d)]: the calling domain runs chunk 0 and one
    spawned domain runs each other chunk. The partition depends on [n]
    and [num_domains] alone. Called from inside a chunk of another
    fan-out, it runs [f 0 n] inline on the calling domain instead: a
    nested fan-out spawns nothing, so nesting never multiplies the
    domain count. An exception from a chunk is re-raised once every
    chunk has finished. *)

val par_range : int -> (int -> int -> unit) -> unit
(** [par_range n f] runs [f 0 n] below {!threshold} and [fan_out n f]
    from it upwards. [f] must touch disjoint state per index. *)

val kx :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> unit

val ky :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> unit

val kh :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> unit

val kdiag :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> d0_re:float -> d0_im:float -> d1_re:float -> d1_im:float -> unit
(** Multiply the target-clear/-set halves by d0/d1; takes the half-space
    fast path when d0 = 1. *)

val kphase :
  re:float array -> im:float array -> size:int -> cmask:int -> cwant:int ->
  angle:float -> unit

val sum_norm2_half :
  re:float array -> im:float array -> size:int -> bit:int -> want:bool -> float
(** Sum of |amp|^2 over the half where [bit] is set ([want = true]) or
    clear, ascending — the same float additions in the same order as a
    full ascending scan that skips the other half, so bit-identical to
    the seed engine's probability reductions. Always sequential. *)

val sum_norm2_half_unord :
  re:float array -> im:float array -> size:int -> bit:int -> want:bool -> float
(** Like {!sum_norm2_half} but with independent accumulator lanes — a
    different (but machine-independent) summation order, ulps away from
    the ordered result. Only for sums compared against coarse
    thresholds (the Term assertion), never for anything that feeds
    amplitudes or sampling. *)

val kswap :
  re:float array -> im:float array -> size:int -> ba:int -> bb:int ->
  cmask:int -> cwant:int -> unit

val kw :
  re:float array -> im:float array -> size:int -> ba:int -> bb:int ->
  cmask:int -> cwant:int -> unit
(** The BWT W gate: a butterfly on the odd-parity subspace; [ba] is the
    first wire's (high) bit. *)

val k1_generic :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> Quipper_math.Mat2.t -> unit
(** Fallback: full 2x2 complex matrix application. *)

val k2_generic :
  re:float array -> im:float array -> size:int -> ba:int -> bb:int ->
  cmask:int -> cwant:int -> Quipper_math.Mat2.t -> unit
(** Fallback: full 4x4 complex matrix application, basis order |ab>
    with [ba] the high bit. *)

val kq_generic :
  re:float array -> im:float array -> size:int -> bits:int array ->
  cmask:int -> cwant:int -> mre:float array -> mim:float array -> unit
(** Fused dense k-qubit block ({!Fuse}): gather the [2^k] amplitudes of
    each compressed index, multiply by the row-major [2^k x 2^k] complex
    matrix [(mre, mim)], scatter back. [bits.(i)] is the full-index bit
    of basis-index bit [i]; [bits] need not be sorted. The control
    (mask, want) pair must be disjoint from [bits]. One sweep costs
    O([4^k]) flops per [2^k] amplitudes, so this pays off only for
    blocks holding several gates — single gates keep their specialised
    kernels. *)

val kq_diag :
  re:float array -> im:float array -> size:int -> bits:int array ->
  cmask:int -> cwant:int -> dre:float array -> di:float array -> unit
(** Fused k-qubit diagonal block: one full sweep multiplying each
    amplitude by the [2^k]-entry table [(dre, di)] indexed by its
    support bits — a whole run of diagonal gates for the price of one
    diagonal sweep. Same [bits]/controls conventions as
    {!kq_generic}. *)
