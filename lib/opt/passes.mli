(** The materialized [-O] driver: {!Stream_opt} with a window covering
    the whole circuit, repeated to a fixpoint, with per-round
    statistics and the command-line report.

    One whole-circuit round commits its analyses in arrival order, so a
    removal late in the circuit cannot feed a decision made earlier;
    each further round re-runs every rule over the previous round's
    output, until a round changes nothing (at most 10 rounds). *)

open Quipper

type stat = {
  round : int;  (** fixpoint round, starting at 1 *)
  gates_before : int;  (** {!Quipper.Gatecount.total_logical} before *)
  gates_after : int;
  depth_before : int;
  depth_after : int;
  seconds : float;  (** wall time of this round's optimizer run *)
  counters : Stream_opt.stats;  (** what each rule did this round *)
}

val optimize : Circuit.b -> Circuit.b * stat list
(** Optimize hierarchically (main circuit and every box body) to a
    fixpoint. One statistic per round, in order; the last round is the
    one that changed nothing, unless the round cap cut the loop. *)

val pp_stats : Format.formatter -> stat list -> unit
(** A table of per-round statistics: gates and depth before/after,
    gates removed, wall time, and the round's rule counters. *)

val report :
  ?details:(Format.formatter -> unit) ->
  Format.formatter ->
  before:Gatecount.summary * int ->
  after:Gatecount.summary * int ->
  unit
(** The [-O] report, given gatecount summaries and depths before and
    after: before/after {!Quipper.Gatecount.pp_summary} blocks, with
    [details] printed in between, then a one-line
    ["Optimizer: removed N of M logical gates; depth a -> b"]. The
    materialized and the streamed [-O] both print through it. *)

val optimize_and_report : ?verbose:bool -> Format.formatter -> Circuit.b -> Circuit.b
(** The materialized command-line [-O]: {!optimize}, print the {!report}
    (with the {!pp_stats} table as details when [verbose]), and return
    the optimised circuit. *)
