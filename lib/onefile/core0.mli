(** Shared core of the OneFile algorithms (internal module).

    [Onefile_lf] and [Onefile_wf] export it through one signature
    ({!Front.S}) and pick different transaction functions, which share
    one commit routine; use those.  The extra surface here — the protocol internals
    and the sanitizer attachment — exists for the test-suite, which
    drives half-finished commit protocols (crash-point and
    seeded-violation tests) that the public API cannot express. *)

type tx
type t

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
(** [linear_threshold] is the {!Writeset} array-scan/hash-set switchover
    (paper's 40-entry hybrid), threaded to every per-thread write-set.
    [region] adopts an existing region — typically a shard view from
    {!Pmem.Region.partition} — instead of allocating one; its mode and
    size take over (passing a contradicting [~mode]/[~size] raises).
    [instance] (default [""]) prefixes every telemetry key this instance
    registers (["shard3.tx.commits"]) and, when the region is allocated
    here, becomes its {!Pmem.Region.id}; the empty id keeps the
    historical unprefixed names, so a sole instance is unaffected.
    Raises [Invalid_argument] when [max_threads > 255]: the snapshot
    reader count is an 8-bit field of one packed word. *)

val linear_threshold : t -> int
(** The effective switchover this instance was created with. *)

val instance : t -> string
(** The instance id this instance was created with ([""] by default). *)

(** {1 Transactions} *)

val lf_read_tx : t -> (tx -> 'a) -> 'a
val lf_update_tx : t -> (tx -> 'a) -> 'a
val wf_read_tx : t -> (tx -> int) -> int
val wf_update_tx : t -> (tx -> int) -> int

val lf_read_tx_validating : t -> (tx -> 'a) -> 'a
val wf_read_tx_validating : t -> (tx -> int) -> int
(** Pre-snapshot-store read paths, one loop: reads validated against
    curTx, restarting on conflict — LF without bound, WF until
    [read_tries] aborts and then as a published update.  [read_tx] runs
    on the wait-free snapshot path ({!snapshot_ops}); these remain as the
    readmix baseline and the paper's §III-B/§III-E read algorithms. *)

(** {1 Wait-free snapshot reads} (DESIGN.md §13)

    Writers keep a bounded volatile version store of overwritten words
    while some thread slot is registered as a snapshot reader; a
    read-only transaction pins the newest fully-applied sequence number
    through the hazard-era slots and resolves every load at that epoch —
    no aborts, no restarts, bounded steps.  [read_tx] on both
    front-ends uses this path.  The pieces are exposed individually so
    {!Tm.Tm_shard} can assemble cross-shard snapshot reads. *)

val snap_pin : t -> int
(** Publish and return a snapshot epoch for the calling thread,
    registering its slot as a reader if it is not registered.  A fresh
    registration helps the open commit to completion first when that
    commit was applied without version capture. *)

val snap_load : t -> int -> int -> int
(** [snap_load t epoch addr]: the value of [addr] as of [epoch].  Only
    valid between [snap_pin] and [snap_unpin] on the same thread. *)

val snap_unpin : t -> unit
(** Release the epoch and end the slot's registration, so writers capture
    for a pin taken here only while it is held.  [read_tx] keeps its
    registration instead, until the slot's next update transaction on
    the same instance. *)

val snapshot_ops : t Tm.Tm_intf.snapshot_ops
val load : tx -> int -> int
val store : tx -> int -> int -> unit
val alloc : tx -> int -> int
val free : tx -> int -> unit
val root : t -> int -> int
val num_roots : t -> int
val region : t -> Pmem.Region.t
val recover : t -> unit
val allocated_cells : t -> int
val curtx_info : t -> int * int * bool

val capture_info : t -> int * int
(** Step-free debug view of the capture word: (registered snapshot
    readers, highest commit applied without version capture). *)

val bucket_versions : t -> int -> int
(** Step-free debug view of the snapshot version store: how many captured
    versions the bucket of address [a] holds. *)

val claim_info : t -> int * int
(** Step-free debug view of the commit claim, which an LF updater takes
    before it publishes its redo log and a WF thread takes to aggregate:
    (the commit sequence claimed, the claiming thread's tid); [(0, 0)]
    when none, as after {!recover}. *)

val chunk_info : t -> int -> int * bool
(** Step-free debug view of chunk [k]'s claim word: (the commit sequence
    it was last claimed for, whether that commit's chunk [k] is done);
    [(0, false)] when never claimed, as after {!recover}.  Only WF
    aggregates of more than one chunk of 8 redo-log entries are applied
    chunk by chunk. *)

(** {1 Sanitizer attachment}

    Simulation-only (see {!Check.Tmcheck}).  Attach to a quiescent
    instance; the checker then observes every region access through the
    observer hook plus the transaction-lifecycle hooks wired into the
    functions above. *)

val layout : t -> Check.Tmcheck.layout
(** Where this instance keeps curTx, the per-thread logs, the roots and
    the heap — everything the checker needs to classify an address. *)

val sanitize : ?mode:Check.Tmcheck.mode -> t -> Check.Tmcheck.t
(** Build a checker for this instance and install it as the region
    observer.  Returns it so tests can read {!Check.Tmcheck.violations}. *)

val desanitize : t -> unit
(** Detach the checker and the region observer. *)

val checker : t -> Check.Tmcheck.t option

(** {1 Telemetry attachment}

    While detached (the default), every counter bump in the hot paths is a
    no-op (one pointer load + branch); see {!Runtime.Telemetry}. *)

val attach_telemetry : t -> Runtime.Telemetry.t -> unit
(** Wire this instance into the registry: transaction counters and the
    commit-latency span ("tx.commits", "tx.ro_commits", "tx.ro_epoch_pins",
    "tx.aborts", "tx.helps", "tx.help_exits", "log.recycles",
    "wf.published", "wf.aggregated", "wf.fallbacks", "tx.claims" (commit
    claims taken, LF and WF), "tx.waits" (polls that found a wait on
    another thread going on: a WF thread's iterations on another's
    claim, an LF claim loser's polls of curTx and then of the winning
    commit's request, a helper's polls of the request of a one-chunk
    log's owner, and the polls of a chunk another thread claimed while
    a chunked WF redo log is applied), "tx.wait_timeouts" (waits that
    spent their whole budget),
    "recovery.runs",
    "recovery.helped", "ro.captures" (versions handed to the version
    store), spans "tx.latency" and "ro.snapshot_lag"),
    the region's Pstats as a pull source ("pmem.*"),
    and the hazard-era reclaimer ("he.*").  All instance counters are
    pre-resolved {!Runtime.Telemetry} handles — no string hashing on the
    transaction hot paths. *)

val detach_telemetry : t -> unit
(** Detach counters (the region pull source stays registered in the
    registry it was added to — use a fresh registry to start over, or
    {!Runtime.Telemetry.clear_sources} to reuse one across instances). *)

val telemetry : t -> Runtime.Telemetry.t option

(** {1 Fault injection} — test-only.  Each flag re-opens a specific,
    once-real bug so the explorer's planted-bug self-checks can prove the
    harness catches it.  Never set these outside tests. *)

type faults = {
  mutable drop_publish_pwb : bool;
      (** skip the request-cell flush at the top of {!publish_log}: the
          PR 1 durability hole (volatile request close vs. log recycling) *)
  mutable stale_commit_snapshot : bool;
      (** refresh curTx right before the commit CAS, ignoring every
          transaction committed since the snapshot, and retry a lost CAS
          the same way with the same write-set: a blind-retry lost
          update *)
  mutable stale_dedup_flush : bool;
      (** start every write-back pass with its own first cache line
          marked as already written back, so a committed write can skip
          its data pwb *)
  mutable stale_ro_snapshot : bool;
      (** pin the raw curTx sequence instead of the newest fully-applied
          one, so a snapshot reader can observe a half-published epoch *)
  mutable skip_nocap : bool;
      (** a registering snapshot reader ignores the highest commit applied
          without version capture, so it can pin below that commit and
          miss the version of a word it overwrote *)
  mutable skip_help_curtx_pwb : bool;
      (** a helper treats its curTx stamp as set and DCASes a foreign
          commit's entries without writing back curTx first, so a data
          word can become durable ahead of the durable curTx *)
  mutable early_retry : bool;
      (** an LF claim loser treats the winning commit's request as closed
          without reading it, so its retry runs at a [curTx] that is still
          open: it reads a half-applied snapshot and commits over the open
          request *)
  mutable early_chunk_done : bool;
      (** an applier of a chunked WF redo log marks its chunk done before
          it writes the chunk's cache lines back, so the owner can close
          the commit, and a later commit can persist, while those lines
          are still volatile: a crash then loses committed words *)
  mutable early_curtx_signal : bool;
      (** a helper of a chunked WF redo log takes the claim of the chunk
          it applies, not the owner's claim of chunk 0, as the sign that
          curTx is durable, so it skips its curTx write-back and can make
          a data word durable ahead of the durable curTx *)
}

val faults : t -> faults

(** {1 Protocol internals} — exposed for the crash-point and
    seeded-violation tests, which exercise the commit protocol one step at
    a time.  Not for normal use. *)

val curtx_cell : int
val req_cell : t -> int -> int
val entry_cell : t -> int -> int -> int
val res_cell : t -> int -> int
val ack_cell : t -> int -> int
(** Thread [tid]'s WF result and acknowledgment cells, adjacent and
    written in the commit that runs its operation.  A WF operation is
    announced in volatile memory only (see {!published}). *)

val published : t -> int -> bool
(** Step-free debug view: whether thread [tid] has a WF operation
    announced and not yet taken back by its owner. *)

val read_curtx : t -> Pmem.Word.t
val is_open : t -> Pmem.Word.t -> bool

val put_one : t -> seq:int -> int -> int -> unit
(** Sequence-guarded DCAS of one redo-log entry (Alg. 1 lines 10-15), as
    a one-entry apply pass: it makes its own version-capture decision.
    Unlike a helper's put, it never writes back curTx, so tests can stage
    a data word ahead of the durable curTx. *)

val close_request : t -> tid:int -> seq:int -> unit
val publish_log : t -> me:int -> Writeset.t -> seq:int -> split:bool -> unit
(** Publish [me]'s redo log for [seq], sorted by address.  Its request
    word carries the entry count, which [(layout t).log_len] decodes, and
    [split], which marks the log as applied chunk by chunk (a WF
    aggregate of more than one chunk). *)

val help : t -> me:int -> ?waited:bool -> Pmem.Word.t -> unit
(** Help the open commit [ct] as thread [me].  The helper of a one-chunk
    log first polls the owner's request for [claim_budget] (64) polls
    and returns at its close having applied nothing; [waited] (default
    false) says the caller already waited that long.  Past that wait the
    helper presumes the owner stalled: it writes curTx back and claims
    the log's chunks from chunk 0. *)
