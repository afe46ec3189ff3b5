(** Oracle-checked schedule and crash-point exploration of OneFile.

    The TM-specific driver over {!Runtime.Explore}: a random transaction
    program ({!Proggen}) is dealt round-robin onto [threads] fibers and run
    under a controlled schedule on a fresh OneFile instance (lock-free or
    wait-free, volatile or persistent).  Three strategies search the
    schedule space:

    - {!explore_exhaustive} — every interleaving within a preemption bound
      (CHESS-style iterative preemption bounding), for tiny configurations;
    - {!explore_pct} — randomized PCT priority schedules, for
      configurations too large to enumerate;
    - {!explore_crashes} — along one schedule, force a crash plus recovery
      at every persistence event (or every mutation), with deterministic
      adversarial cache-eviction variants: nothing evicted, everything
      evicted, and each single dirty line evicted alone.

    Every execution optionally runs under the {!Check.Tmcheck} sanitizer
    (protocol invariants); its results and final state are then diffed
    against the sequential {!Tm.Seqtm} oracle: a completed execution must
    match {e some} serialization of the program consistent with the
    per-thread order, and a crashed one must match some serialization of a
    set of per-thread transaction prefixes that includes every transaction
    that returned before the crash (returned transactions are durably
    committed — OneFile persists [curTx] before applying, so commit
    durability is monotone along the commit order).  The existential check
    replays candidate orders on fresh Seqtm instances, capped at
    [oracle_cap] replays and memoized on the observable outcome.

    A failure carries everything needed to reproduce it — program,
    schedule, crash point, fault flags — serializes to JSON
    ({!Bench_json}) and replays deterministically; {!shrink} minimizes
    first the program (greedy delta-debugging) and then the schedule
    prefix.  [bin/explore.exe] is the CLI. *)

(** Which planted bug, if any, to re-open in the instance under test
    (see [Onefile.Core0.faults]) — the explorer's self-check that the
    harness catches once-real bugs. *)
type fault =
  | No_fault
  | Durability_hole  (** drop the request-cell pwb in [publish_log] *)
  | Lost_update  (** refresh the curTx snapshot right before the commit CAS *)
  | Stale_dedup
      (** never advance the flush-dedup generation: a committed write can
          skip its data pwb because an earlier transaction flushed the line *)
  | Torn_commit_record
      (** persist cross-shard commit records torn across shards (see
          [Tm.Tm_shard.Make(_).faults]); needs [shards >= 2], a no-op on
          an unsharded instance *)
  | Torn_batch_record
      (** persist the router's batch commit record truncated to the first
          member's contribution (see [Tm.Tm_shard.Make(_).faults]):
          a crash between the record commit and the per-shard applies
          replays half a batch.  Needs [shards >= 2] and a schedule that
          forms a batch of >= 2 members; a no-op on an unsharded
          instance *)
  | Stale_ro_snapshot
      (** snapshot readers pin the raw curTx sequence instead of the
          newest fully-applied one (see [Onefile.Core0.faults]), so a
          read-only transaction can observe a half-published epoch —
          the wait-free read path's analogue of a lost update.  Only
          the serialization oracle catches it (the per-word sanitizer
          accepts any in-window version); needs a schedule that parks a
          writer mid-apply under a concurrent reader *)
  | Skip_nocap
      (** a snapshot reader registering while a commit is applied without
          version capture ignores that commit (see
          [Onefile.Core0.faults]): it can pin below it and then find the
          version of a word the commit overwrote missing from the store,
          which raises.  Needs a schedule that registers the reader after
          the writer's capture decision and before its apply ends *)
  | Torn_migration
      (** settle live range migrations with a half-length persistent map
          entry (see [Tm.Tm_shard.Make(_).faults]): crash-free runs stay
          correct, but after a crash the reopened router routes the torn
          upper half back to the stale pre-migration copy, losing
          post-flip writes.  Needs [shards >= 2]; the explorer then adds
          a migrator fiber (fiber 0, one extra router thread) that runs
          [split ~src:0 ~dst:1] before the program fibers, and sizes the
          shards at 6 roots so the torn half covers a root slot the
          program addresses.  Only the crash strategy can expose it — a
          no-op on an unsharded instance *)
  | Help_curtx
      (** a helper DCASes a foreign commit's entries without writing back
          curTx first (see [Onefile.Core0.faults]), so a data word can be
          durable ahead of the durable curTx: the sanitizer's
          durable-ahead-of-curtx rule fires once the helper's flush pass
          writes that word back.  Needs a persistent region and a schedule
          in which a helper applies an entry before the owner does *)
  | Early_retry
      (** an LF claim loser retries at the winner's commit without waiting
          for its request to close (see [Onefile.Core0.faults]): the retry
          reads a half-applied snapshot, and its commit CAS lands while
          that request is still open, which the sanitizer's
          curtx-discipline rule reports.  Needs a schedule in which a
          claim loser sees [curTx] move and resumes before the winner's
          apply ends *)
  | Early_chunk_done
      (** an applier of a chunked WF redo log marks its chunk done before
          it writes the chunk's lines back (see [Onefile.Core0.faults]):
          the owner can close the commit while those lines are volatile,
          and a crash that finds the close durable loses committed words,
          which the oracle reports.  Needs WF commits of more than one
          chunk of 8 entries, a helper that applies a chunk, and a crash
          between the close and the helper's write-back: a crash sweep
          over an interleaved baseline ([explore_crashes ~interleave])
          with several threads *)

val fault_name : fault -> string
(** The fault's name in traces and on the [bin/explore.exe] command line
    (["none"], ["durability-hole"], ["lost-update"], ...). *)

val fault_of_name : string -> fault option
(** Inverse of {!fault_name}; [None] for an unknown name. *)

type config = {
  wf : bool;  (** wait-free algorithm instead of lock-free *)
  threads : int;
  shards : int;
      (** [> 1] runs the program over that many per-shard OneFile
          instances behind the {!Tm.Tm_shard} router (one partitioned
          device; crash points count device events, including the
          router's control-block setup); [1] (the default) keeps the
          plain single-instance path *)
  persistent : bool;
      (** region mode for interleaving exploration; crash exploration is
          always persistent.  Volatile makes pwb/pfence free, shrinking
          traces — preferable when crashes are not being explored. *)
  sanitize : bool;  (** attach {!Check.Tmcheck} to every execution *)
  fault : fault;
  migrate : bool;
      (** add the migrator fiber (and the 6-root shard geometry) of
          {!fault}'s [Torn_migration] {e without} arming the fault: every
          execution then runs a healthy live [split ~src:0 ~dst:1] ahead
          of the program, so the crash sweep enumerates sites inside the
          migration's record publish, chunked copy loop and settle/retire
          — all of which must recover silently.  Implied by
          [Torn_migration]; ignored with fewer than 2 shards *)
  max_steps : int;  (** per-execution scheduler step budget *)
  oracle_cap : int;  (** max sequential replays per oracle verdict *)
  telemetry : Runtime.Telemetry.t option;
      (** attach every execution's instance to this registry; sources are
          cleared between executions ({!Runtime.Telemetry.clear_sources}),
          counters accumulate *)
}

val default : config
(** lock-free, 2 threads, 1 shard, volatile, sanitized, no fault, no
    migrator, [max_steps = 50_000], [oracle_cap = 50_000], no
    telemetry. *)

(** Deterministic eviction choice at a forced crash: which dirty lines
    survive (are written back) at the crash point. *)
type evict =
  | Evict_none
  | Evict_all
  | Evict_line of int
      (** the [k]-th dirty line in ascending order at crash time *)

type crash_spec = { event : int; evict : evict }
(** Crash after the [event]-th region event (1-based, counted across the
    whole execution: loads, stores, CASes, pwbs, pfences). *)

type failure = {
  config : config;
  program : Proggen.program;
  schedule : int array;
      (** replay with {!Runtime.Explore.pick_prefix}; the tail past the
          recorded prefix continues non-preemptively *)
  crash : crash_spec option;
  reason : string;
}

val pp_failure : Format.formatter -> failure -> unit
val failure_to_json : failure -> Bench_json.json

val failure_of_json : Bench_json.json -> failure
(** @raise Bench_json.Parse_error on documents not written by
    {!failure_to_json} (the [telemetry] field is not serialized and comes
    back [None]). *)

val replay : failure -> string option
(** Re-execute the failure's program under its schedule (and crash point):
    [Some reason] if it still fails, [None] if it passes.  Deterministic. *)

type report = {
  strategy : string;
  executions : int;
  coverage : Runtime.Explore.coverage option;  (** exhaustive only *)
  crash_sites : int;  (** crash strategy: sites actually enumerated *)
  inconclusive : int;
      (** executions whose oracle verdict hit [oracle_cap] (counted as
          passes — an exhaustiveness claim is only as strong as this is
          zero) *)
  failure : failure option;
}

val pp_report : Format.formatter -> report -> unit

val explore_exhaustive :
  ?config:config ->
  ?preemption_bound:int ->
  ?max_executions:int ->
  Proggen.program ->
  report
(** All schedules with at most [preemption_bound] (default 2) preemptions,
    in order of increasing preemption count; stops at the first failure or
    after [max_executions]. *)

val explore_pct :
  ?config:config ->
  ?depth:int ->
  ?executions:int ->
  ?seed:int ->
  Proggen.program ->
  report
(** One free-schedule baseline (which also calibrates the PCT trace
    length), then [executions] (default 200) random PCT schedules of bug
    depth [depth] (default 3), all derived deterministically from
    [seed]. *)

val explore_crashes :
  ?config:config ->
  ?sites:[ `Persist | `Every ] ->
  ?max_sites:int ->
  ?schedule:int array ->
  ?interleave:bool ->
  Proggen.program ->
  report
(** Run the baseline [schedule] (default [[||]], the free schedule) on a
    persistent region — with [interleave] (default [false]) followed by
    a round-robin of the runnable fibers, one step each in turn, instead
    of running each fiber to its end, so that WF operations of several
    threads meet in one commit and waiters help it — then re-run it once per crash site — each [pwb] /
    [pfence] event for [`Persist] (default), additionally every store and
    successful CAS for [`Every] — times each eviction variant:
    [Evict_none], [Evict_all], and [Evict_line k] for each line dirty at
    that point.  [max_sites] subsamples the sites evenly when given.
    Stops at the first failure. *)

val shrink : find:(Proggen.program -> failure option) -> failure -> failure
(** Minimize a failure: greedily delete transactions and operations while
    [find] (typically the bounded strategy call that found the failure)
    still fails, then truncate the schedule to the shortest prefix whose
    deterministic replay still fails. *)
