(** The persistent tuning database (DESIGN.md §15.3).

    Winners of tuning searches persist here so repeat traffic compiles
    straight from the DB: no enumeration, no simulation, just one
    validated store read. Entries are keyed by {e shape class} ×
    {e mesh geometry} — a power-of-two bucketing of the problem extents
    plus the transpose/batch/fusion facets, crossed with the cost-
    relevant machine parameters — so one search serves every problem of
    the same class on the same machine.

    Durability is inherited wholesale from {!Sw_host.Store}: atomic
    tmp-and-rename commits, self-verifying headers, quarantine of
    corrupt records (a torn or bit-flipped entry is never served — it
    reads as a miss and the next search rewrites it), and schema-
    generation invalidation ({!schema} bumps delete old-format entries
    on sight). Records are JSON, not [Marshal], so the on-disk format
    survives OCaml upgrades; only deliberate {!schema} bumps invalidate
    it. *)

type record = {
  shape_class : string;  (** {!shape_class} of the tuned spec *)
  mesh_class : string;  (** {!mesh_class} of the machine searched on *)
  winner : Space.candidate;
  gflops : float;  (** winner's measured useful Gflops *)
  default_gflops : float;  (** the paper-default candidate, same run *)
  measured : int;  (** simulator measurements the search spent *)
  pruned : int;  (** candidates cut before or between measurements *)
}

type t

val schema : string
(** Schema generation of the on-disk format ("swgemm-tune-v2"). Bump on
    any change to {!record}'s JSON image or the key derivation; the
    store then deletes old-generation entries on sight. *)

val open_ : ?budget_bytes:int -> dir:string -> unit -> t
(** Open (creating as needed) the tuning DB rooted at [dir]. *)

val shape_class : Sw_core.Spec.t -> string
(** E.g. ["m4096:n4096:k2048:b1:tNN:f=none"]: each extent rounded up to
    a power of two, the batch count likewise ([b1] when unbatched),
    transpose flags, and the fusion facet. Scalars alpha/beta are
    deliberately excluded — they do not change the decomposition. *)

val mesh_class : Sw_arch.Config.t -> string
(** E.g. ["8x8/mk64x64x32/spm262144/..."]: mesh extents, the default
    micro kernel and its efficiency, SPM bytes, and the cost-model rates
    (frequencies, bandwidths). Two configs with equal mesh classes rank
    candidates identically. *)

val key : spec:Sw_core.Spec.t -> config:Sw_arch.Config.t -> string
(** Content address: digest of schema × shape class × mesh class. *)

val find :
  t -> spec:Sw_core.Spec.t -> config:Sw_arch.Config.t -> record option
(** Validated lookup; [None] on miss, corrupt entry (quarantined by the
    store, never served), stale generation, or a record whose embedded
    classes disagree with the requested key. *)

val put : t -> record -> unit
(** Atomically persist under the record's own classes. *)

val records : t -> record list
(** Every decodable record, sorted by key — the fuzzer's tuned-config
    pool and the CLI's inspection path. Does not touch hit/miss
    counters. *)

val record_to_json : record -> Sw_obs.Json.t
val record_of_json : Sw_obs.Json.t -> (record, string) result
(** Total inverse of {!record_to_json}:
    [record_of_json (record_to_json r) = Ok r]. *)

val stats : t -> Sw_host.Store.stats
(** The backing store's counters (hits, misses, quarantined,
    served_corrupt, ...). *)
