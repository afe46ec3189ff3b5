(** Tmcheck — runtime sanitizer for the OneFile opacity/durability
    invariants.

    OneFile's correctness argument rests on invariants the algorithm never
    checks at runtime.  This checker attaches to a {!Pmem.Region} through
    its observer hook and validates, on every shared-memory step of a
    deterministic {!Runtime.Sched} run:

    - {b (a) sequence monotonicity} — a data word's sequence strictly
      increases on every successful write (the DCAS ABA argument,
      Prop. 2); curTx itself advances by exactly +1, only over a closed
      request, and only with a published log.
    - {b (b) persistence ordering} — no data word is ever durable with a
      sequence newer than the durable [curTx] sequence (checked at every
      [pwb] and over the whole durable image at every crash); otherwise a
      crash could resurrect a half-persisted transaction that null
      recovery no longer knows about.
    - {b (c) apply-before-close} — when a request cell is closed, every
      entry of its published redo log is already applied with exactly the
      committed sequence.
    - {b (d) opacity} — every accepted transactional read is the version
      current at the transaction's snapshot (and in particular not newer
      than the snapshot), validated against the checker's shadow version
      history at the access itself.
    - {b (e) hazard-era discipline} — no published operation descriptor is
      executed after hazard-era reclamation freed it.
    - {b (f) allocator discipline} — a committed transaction never frees a
      block that is not live in its snapshot (double free), and never
      touches heap cells outside a live block.  Its accesses are checked
      in program order, each against the blocks live at that point of
      the transaction: a block it allocates may be written and then
      freed, and no block may be touched after its free.  Accesses of
      aborted attempts are exempt: optimistic reads of freed blocks
      followed by an abort are exactly what the paper's reclamation
      scheme allows.

    The sanitizer is {b simulation-only}: it relies on observer callbacks
    and transaction hooks running between scheduling points of the
    cooperative scheduler (or in plain sequential code).  Do not attach it
    to an instance driven by real domains.

    Attach via {!Onefile.Onefile_lf.sanitize} / [Onefile_wf.sanitize]; the
    hooks below are called by [Onefile.Core0] and by tests that seed
    violations. *)

(** Where the checked algorithm keeps its metadata (provided by
    [Onefile.Core0.layout]). *)
type layout = {
  curtx_cell : int;
  max_threads : int;
  ws_cap : int;
  req_cell : int -> int;
  log_len : Pmem.Word.t -> int;
      (** the entry count of the redo log a request word announces *)
  entry_cell : int -> int -> int;
  req_tid_of : int -> int option;
      (** inverse of [req_cell]: which thread's request cell is this? *)
  data_base : int;
      (** first cell governed by the sequence discipline (the roots);
          everything below is algorithm metadata with free-form fields *)
  heap_base : int;  (** first allocator-managed cell *)
}

type violation = { rule : string; detail : string }

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

type mode =
  | Raise  (** raise {!Violation} at the faulting access (default) *)
  | Collect  (** record and continue; read back with {!violations} *)

type t

val create : ?mode:mode -> layout -> Pmem.Region.t -> t
(** Snapshot the region and build a checker.  The caller (normally
    [Core0.sanitize]) must also install {!on_event} as the region
    observer.  Attach only to a quiescent instance — right after [create]
    or between runs — so the allocation tracking starts consistent. *)

val on_event : t -> Pmem.Region.event -> unit
(** The region observer: validates invariants (a)–(c) and maintains the
    shadow state, version history and crash resynchronization. *)

val violations : t -> violation list
(** All recorded violations, oldest first (empty on a clean run). *)

val events_checked : t -> int
(** Number of region events observed (sanity aid: proves the sanitizer
    actually watched the run). *)

(** {1 Transaction hooks} — called by [Core0]; tests drive them directly
    to seed violations. *)

val tx_begin : t -> read_only:bool -> start_seq:int -> unit
val tx_abort : t -> unit

val tx_load : t -> addr:int -> v:int -> s:int -> unit
(** An accepted transactional read of [addr] observing [(v,#s)]. *)

val tx_store : t -> addr:int -> unit

val tx_end : t -> committed:int option -> unit
(** Attempt finished: [committed = Some seq] for a won commit CAS at
    [seq]; [None] for a read-only or empty-write-set completion.  Runs the
    commit-time allocator checks (f) and publishes the transaction's
    alloc/free effects into the checker's world. *)

val alloc_enter : t -> unit
val alloc_exit : t -> unit
(** Bracket allocator-internal accesses (free-list manipulation), which
    are exempt from the heap-access rule. *)

val note_alloc : t -> payload:int -> cells:int -> unit
val note_free : t -> payload:int -> unit

(** {1 Closure-reclamation hooks} *)

val closure_free : t -> opid:int -> unit
(** Hazard eras decided descriptor [opid] is unreachable and freed it. *)

val closure_exec : t -> opid:int -> freed:bool -> unit
(** Descriptor [opid] is about to be executed by an aggregating
    transaction; flags invariant (e) if it was freed. *)
