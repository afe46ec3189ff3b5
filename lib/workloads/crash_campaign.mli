(** Systematic whole-system crash injection for the persistent TMs.

    Each trial runs a concurrent workload for a trial-specific number of
    rounds, crashes the region (optionally with adversarial cache
    eviction), runs recovery, and audits application invariants.  The
    trials sweep the crash point across the whole execution, so every phase
    of the commit/apply protocol gets hit. *)

type report = {
  trials : int;
  torn : int;  (** recovered state violated atomicity *)
  leaked : int;  (** allocator leaked or lost cells *)
}

val pp : Format.formatter -> report -> unit

val onefile_sps :
  wf:bool ->
  trials:int ->
  ?evict:float ->
  ?sanitize:bool ->
  ?telemetry:Runtime.Telemetry.t ->
  unit ->
  report
(** Persistent SPS whose checksum is the invariant.  [sanitize] (default
    false) attaches the {!Check.Tmcheck} opacity/durability sanitizer to
    every trial instance: any invariant violation raises at the faulting
    step instead of surfacing as a torn audit.  [telemetry] threads every
    trial instance into one registry; since each trial runs recovery
    exactly once, its ["recovery.runs"] counter equals [report.trials]. *)

val onefile_queues :
  wf:bool ->
  trials:int ->
  ?evict:float ->
  ?sanitize:bool ->
  ?telemetry:Runtime.Telemetry.t ->
  unit ->
  report
(** Two-queue transfers; invariant: item multiset conserved, no leak. *)

val onefile_tree :
  wf:bool ->
  trials:int ->
  ?evict:float ->
  ?sanitize:bool ->
  ?telemetry:Runtime.Telemetry.t ->
  unit ->
  report
(** Balanced-tree churn; invariants: BST order + balance + stored heights,
    allocator exactly accounts for the surviving nodes. *)

val romulus_sps : lr:bool -> trials:int -> ?evict:float -> unit -> report
val pmdk_sps : trials:int -> ?evict:float -> unit -> report
