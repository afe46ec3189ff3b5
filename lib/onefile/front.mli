(** The signature both OneFile front-ends share.

    {!Onefile_lf} and {!Onefile_wf} are views over {!Core0}: one
    instance type, one commit routine, one null recovery (§III-D).  Only
    [update_tx] and [read_tx_validating] differ — WF publishes each
    update for an elected aggregator to commit in its write-set (§III-E).

    Exceptions: under both front-ends a transaction function that raises
    anything but {!Tm.Tm_intf.Abort} reaches only its caller, who gets
    either the exception with nothing committed or a result committed
    once.  Under WF the published function may run inside another
    thread's aggregate: if it raises there, that thread aborts its
    attempt and leaves the operation to its caller, who first cancels it
    (an aggregate that ran it without raising may have committed it
    already, and then that result is returned) and otherwise runs it as
    an LF transaction, lock-free rather than wait-free, re-raising if it
    raises again.  A write-set overflow counts as raising: an operation
    that overflows only together with others still completes.  The
    sanitizer's {!Check.Tmcheck.Violation} and fatal runtime errors
    escape whichever thread hit them. *)

module type S = sig
  include Tm.Tm_intf.S with type t = Core0.t and type tx = Core0.tx

  val create :
    ?mode:Pmem.Region.mode ->
    ?size:int ->
    ?region:Pmem.Region.t ->
    ?instance:string ->
    ?max_threads:int ->
    ?ws_cap:int ->
    ?num_roots:int ->
    ?read_tries:int ->
    ?linear_threshold:int ->
    unit ->
    t
  (** Defaults: persistent, [size = 2^18] cells, 64 threads, write-sets
      of up to 2048 entries, 8 roots, 4 [read_tries], write-set
      linear/hash switchover at 40 entries (the paper's hybrid lookup).
      [region] adopts an existing region (e.g. a shard view from
      {!Pmem.Region.partition}); [instance] prefixes this instance's
      telemetry keys (see {!Core0.create}).  Both front-ends build the
      same instance, so either can drive it. *)

  val linear_threshold : t -> int
  (** The effective write-set switchover this instance was created with. *)

  val instance : t -> string
  (** The telemetry-prefix instance id ([""] by default). *)

  val read_tx_validating : t -> (tx -> int) -> int
  (** The pre-snapshot-store read path: optimistic reads validated
      against [curTx], restarting on conflict.  LF restarts without
      bound (§III-B); WF falls back to {!update_tx} publication after
      [read_tries] aborted attempts (§III-E).  {!read_tx} itself runs on
      the wait-free snapshot path; this baseline remains for the readmix
      benchmark and as the paper's read algorithms. *)

  val snapshot_ops : t Tm.Tm_intf.snapshot_ops
  (** Wait-free snapshot-read primitives (epoch pin / load-at-epoch /
      unpin), consumed by {!Tm.Tm_shard} for cross-shard snapshot reads. *)

  val faults : t -> Core0.faults
  (** Test-only fault-injection flags (see {!Core0.faults}); exposed here
      so harnesses outside [lib/onefile] can plant bugs without
      referencing [Core0] directly (the tm_lint layering rule). *)

  val recover : t -> unit
  (** Null recovery: after {!Pmem.Region.crash}, complete (idempotently)
      the apply phase of the last committed transaction, if still open.
      Published WF closures are transient and do not survive a crash;
      committed operations already have durable results. *)

  val allocated_cells : t -> int
  (** Cells currently held by live blocks, computed from the quiescent
      allocator state (testing/diagnostics; do not call concurrently). *)

  val curtx_info : t -> int * int * bool
  (** Debug peek at the commit state: (sequence, tid, request-still-open).
      Step-free; usable from a scheduler [on_round] hook. *)

  val sanitize : ?mode:Check.Tmcheck.mode -> t -> Check.Tmcheck.t
  (** Attach the {!Check.Tmcheck} opacity/durability sanitizer to this
      instance (simulation-only; attach while quiescent).  Returns the
      checker so callers can inspect {!Check.Tmcheck.violations}. *)

  val desanitize : t -> unit
  (** Detach the sanitizer and region observer. *)

  val checker : t -> Check.Tmcheck.t option

  val attach_telemetry : t -> Runtime.Telemetry.t -> unit
  (** Wire this instance into a {!Runtime.Telemetry} registry: the
      transaction counters ("tx.commits", "tx.aborts", "wf.published",
      …, see {!Core0.attach_telemetry}), the region's Pstats ("pmem.*")
      and the hazard-era reclaimer ("he.*").  While detached (the
      default) every counter is a no-op. *)

  val detach_telemetry : t -> unit
  val telemetry : t -> Runtime.Telemetry.t option
end
