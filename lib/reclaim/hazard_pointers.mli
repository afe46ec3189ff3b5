(** Hazard pointers (Michael, 2004) — lock-free reclamation for the
    hand-made queue baselines.

    As with {!Hazard_eras}, the [free] hook exists so tests can verify the
    protocol (no object freed while a hazard covers it); the OCaml GC does
    the actual memory management. *)

type 'a t

val create :
  ?slots_per_thread:int ->
  ?scan_threshold:int ->
  max_threads:int ->
  free:('a -> unit) ->
  unit ->
  'a t

val protect : 'a t -> slot:int -> read:(unit -> 'a option) -> 'a option
(** [protect t ~slot ~read] publishes the value produced by [read] in the
    calling thread's hazard slot, re-reading until stable.  Returns the
    protected value (or [None], publishing nothing). *)

val publish : 'a t -> slot:int -> 'a option -> unit
(** Raw slot write, for algorithms that validate stability themselves. *)

val clear : 'a t -> slot:int -> unit
val retire : 'a t -> 'a -> unit
val flush : 'a t -> unit
val pending : 'a t -> int

val set_telemetry : 'a t -> Runtime.Telemetry.t option -> unit
(** Attach (or, with [None], detach) a telemetry registry; the reclaimer
    then counts ["hp.retired"], ["hp.freed"] and ["hp.scans"]. *)
