(** The tuning search: analytic pruning, then measured refinement on the
    simulator, with a determinism contract (DESIGN.md §15).

    The search enumerates {!Space.enumerate}, statically rejects what
    {!Space.realize} refuses, orders the survivors paper-default first and
    then by analytic bound, and measures them in fixed-size rounds fanned
    out over a {!Sw_host.Pool}. Between rounds every still-queued candidate
    whose {!Space.realized.bound} cannot beat the best measurement so far
    is cut without simulation. Because round boundaries — not measurement
    arrival order — are the only synchronization points, and the winner
    tie-breaks on {!Space.key}, the outcome is byte-identical for any
    [jobs] value.

    When a {!Tune_db.t} is supplied, a hit short-circuits the whole search
    (zero enumeration, zero measurements) and a miss persists its winner
    for next time. *)

type verdict =
  | Measured of float  (** useful Gflops: original-problem flops/s/1e9 *)
  | Legality of string  (** {!Space.realize} rejection *)
  | Bound_pruned of { bound : float; best : float }
      (** analytic bound could not beat [best], already measured *)
  | Budget_pruned of { bound : float }  (** measurement budget exhausted *)
  | Failed of string  (** compile or simulation failure at measurement *)

type entry = { candidate : Space.candidate; verdict : verdict }

type outcome = {
  winner : Space.candidate;
  gflops : float;  (** winner's useful Gflops *)
  default_gflops : float;
      (** the paper-default candidate's useful Gflops, same run (0 when it
          failed to measure) *)
  entries : entry list;  (** full audit trail, sorted by {!Space.key} *)
  measurements : int;  (** simulator measurements this call spent *)
  from_db : bool;  (** [true] iff served from the tuning DB: no search ran *)
}

val default_budget : int
(** Measurement budget when [?budget] is omitted (24). *)

val run :
  ?budget:int ->
  ?jobs:int ->
  ?db:Tune_db.t ->
  config:Sw_arch.Config.t ->
  Sw_core.Spec.t ->
  (outcome, string) result
(** Tune the decomposition of one spec. [Error] only when no candidate at
    all could be measured. Deterministic in everything but wall time:
    equal [(config, spec, budget)] give byte-identical outcomes for every
    [jobs]. *)

val measure :
  config:Sw_arch.Config.t ->
  spec:Sw_core.Spec.t ->
  Space.candidate ->
  (float, string) result
(** Force one candidate through realize + compile + simulate, bypassing
    every prune — the soundness property's probe ("no pruned candidate
    ever beats the measured winner"). Returns useful Gflops. *)

val session_hook :
  db:Tune_db.t ->
  config:Sw_arch.Config.t ->
  Sw_core.Spec.t ->
  (Sw_arch.Config.t * Sw_core.Options.t) option
(** Partially applied as [session_hook ~db ~config], this is the
    [Session.tuned] lookup: map a spec to the tuned machine model and
    option set recorded for its class, or [None] when the DB has no
    (realizable) winner. Memoized per class; safe to share across
    domains. *)

val service_extension :
  db:Tune_db.t -> session:Sw_core.Session.t -> Sw_core.Service.extension
(** The [tune] wire method [swgemmd --tune-db] mounts: [params.spec] as
    for [compile], optional [params.budget] and [params.jobs] (default:
    the session's [jobs]). Runs {!run} on the session's machine model
    against [db] and answers [{winner, gflops, default_gflops,
    measurements, from_db}], [winner] in {!Space.candidate_to_json}'s
    image. A missing or malformed spec, and a search that measures
    nothing, answer the [invalid] class. *)
