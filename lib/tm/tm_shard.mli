(** Cross-shard router: N instances of any {!Tm_intf.S} behind the
    single-instance signature.

    OneFile serializes every mutative transaction on one [curTx] word;
    [Make (T)] recovers multi-instance scalability by routing addresses
    to shards ([shard * span + local], [span] = the equal shard region
    size) and running single-shard transactions entirely on their home
    shard, in parallel across shards.  A single-shard transaction keeps
    [T]'s progress guarantee only while its shard is not frozen by a
    cross-shard batch: it then waits for the batch's leader, which it
    can help only once the batch is published.

    Cross-shard transactions go through a lock-free batched 2PC commit
    pipeline (DESIGN.md §12): owners publish requests into per-shard
    MPSC prepare queues; a leader (elected by one CAS) drains a
    generation of requests and executes them serially under strict 2PL
    over per-shard persistent lock cells; the whole batch then commits
    through ONE durable commit record — amortizing the record write and
    its persistence fence across every member — and is completed by one
    idempotent atomic apply transaction per participant shard.  The
    published batch can be completed by any thread that observes it
    (OneFile-style helping), so no thread ever waits on the leader's
    scheduling once a batch is in flight; recovery replays or discards
    a torn batch as a unit (null recovery per shard is preserved).

    The structure functors and examples run over [Make (Onefile_wf)]
    unchanged: the router satisfies {!Tm_intf.S} and only adds [make]
    (from an array of shards), [recover], telemetry attachment and
    introspection. *)

module Make (T : Tm_intf.S) : sig
  include Tm_intf.S

  val make :
    ?max_threads:int ->
    ?batch_watermark:int ->
    ro_snapshot:T.t Tm_intf.snapshot_ops ->
    T.t array ->
    t
  (** Build a router over 1–62 shards (equal region sizes and root
      counts; at least 2 roots each — the last root slot of every shard
      is reserved for the router's control block).  Fixed caps: 32
      write-ahead allocations per shard, and 64 buffered writes and 32
      buffered frees per batch commit record (a drained generation that
      would overflow the record is split into consecutive sub-batches),
      and 8 simultaneously migrated ranges in the persistent shard-map
      range table.
      [max_threads] (default 64) caps the per-shard prepare-queue
      slots.  [batch_watermark] (7) closes the
      leader's group-commit accumulation window early once that many
      requests are queued; arrivals are at most one per thread, so a
      value near the expected thread count maximizes batch size (the
      window is step-capped regardless).  Adopts an existing control block
      when the reserved root is non-null (a re-opened device), including
      its persistent shard map; call {!recover} before use in that case.

      [ro_snapshot] supplies the shards' wait-free snapshot-read
      primitives (e.g. [Onefile_wf.snapshot_ops]).  Cross-shard
      read-only transactions pin a per-shard epoch vector — a pub/done
      generation seqlock around the batch apply window plus an
      atomic-snapshot double collect make the vector a consistent cut —
      and resolve every load at its shard's pinned epoch, without
      entering the batched-2PC prepare queues or taking any lock
      (DESIGN.md §13).  Single-shard read-only transactions run on the
      shard's own wait-free [read_tx].

      Requirement on [T]: a transaction function that raises anything
      but {!Tm_intf.Abort} must hand the exception to [T.update_tx]'s or
      [T.read_tx]'s caller with nothing committed.  A single-shard
      execution reports its routing verdict that way — it raises when
      it touches a second shard, or finds its shard frozen by a batch —
      and the router then re-runs it.  OneFile's front-ends guarantee
      this, also when a WF aggregate of another thread runs the
      function.  TinySTM and [Seqtm] write in place and do not; only
      OneFile supplies [ro_snapshot], which already limits [T] to it. *)

  val shards : t -> T.t array

  val span : t -> int
  (** Cells per shard: global address [g] is {e natively} homed on shard
      [g / span] at local offset [g mod span].  With shards on
      consecutive equal views of one partitioned {!Pmem.Region}, global
      addresses coincide with device addresses and {!region} returns the
      device (the shared crash/eviction driver). *)

  val shard_of : t -> int -> int
  (** Where global address [g] currently lives — a {e shard-map lookup},
      not arithmetic.

      Since the elastic-sharding refactor the [g / span] contract is
      {b deprecated}: the router keeps an epoch-versioned persistent
      range table (the shard map, stored in the shard-0 control block)
      that overrides the native home for ranges rehomed by
      {!migrate_range}/{!split}.  [shard_of] reads the published
      immutable image of that table once and looks [g] up in it — one
      scheduler step whatever the table size, transaction-free, and
      exact even mid-migration.  Callers must not
      reconstruct routes from [span] arithmetic; use this lookup (or
      {!map_entries} for the whole table).  Global names never change
      across a migration — only their routes do. *)

  val map_entries : t -> (int * int * int * int) array
  (** The current shard-map range table as [(lo, len, shard, local_base)]
      rows: global addresses [lo .. lo+len-1] live on [shard] starting at
      shard-local cell [local_base].  Addresses covered by no row are
      natively homed ([g / span]).  Empty on a never-migrated router. *)

  val map_epoch : t -> int
  (** The shard-map epoch: bumped by every completed migration (durably,
      in the same transaction that settles the map entry). *)

  val migrate_range :
    t -> lo:int -> len:int -> dst:int -> [ `Ok | `Busy | `Invalid of string ]
  (** Live, crash-safe rehoming of the global range [lo .. lo+len-1]
      onto shard [dst], concurrent with traffic (readers never block;
      writers to the range detour through the cross path, which
      dual-writes both copies while the move is live).  The protocol is
      OneFile's own: elect a migrator (one CAS — [`Busy] if a move is
      already live), durably publish a migration record on shard 0, copy
      the range in bounded chunks through ordinary cross-shard
      transactions, then flip the map epoch (drain the batcher, publish
      the settled routing image, settle entry + epoch + record in ONE durable
      transaction) and retire the old copy.  A crash after the record
      rolls {e forward} in {!recover}; before it, write-ahead holds roll
      the allocation {e back}.  Valid moves: a natively-homed range (no
      overlap with existing map rows, one native shard, disjoint from
      the control block and reserved root slot) to a fresh shard, or an
      exact existing row back to its native home ([`Invalid] otherwise).
      The retired source cells of a fresh move stay allocated
      (quarantined): global names must keep resolving after the range
      moves back. *)

  val split : t -> src:int -> dst:int -> [ `Ok | `Busy | `Invalid of string ]
  (** Rehome the upper half of [src]'s user-root block (the cells
      {!root} addresses) onto [dst] — the elastic "split a hot shard"
      operation, a {!migrate_range} under the hood. *)

  val merge : t -> src:int -> dst:int -> [ `Ok | `Busy | `Invalid of string ]
  (** Retire every migrated range hosted by [src] whose native home is
      [dst] — the inverse of {!split} ([`Invalid] when there is none). *)

  val recover : shard_recover:(T.t -> unit) -> t -> unit
  (** After {!Pmem.Region.crash}: run [shard_recover] (e.g.
      [Onefile_wf.recover]) on every shard, then complete the batched
      cross-shard protocol — replay a COMMITTED-but-unfinalized batch
      record into every participant shard that missed its apply, roll
      back write-ahead allocations and stale locks of a batch that never
      committed, and reset the router's volatile state (leader flag,
      published batch, prepare queues).  Migrations recover like batches:
      a published (status 1) migration record is rolled {e forward} — the
      source copy is write-current for the record's whole life, so a full
      recopy plus the settle transaction always lands the post-flip
      state — and orphaned write-ahead host blocks (held but referenced
      by no map entry) are rolled back and freed. *)

  val attach_telemetry : t -> Runtime.Telemetry.t -> unit
  (** Surface the router's counters in [reg]:
      [router.batch_commits] (completed batches, read-only ones
      included), [router.helps] (helping iterations that observed an
      in-flight published batch), [router.enqueues] (requests published
      into the prepare queues), [router.migrations] (completed
      migrations), [router.map_epoch] (epoch flips observed by this
      incarnation), [router.escapes] (single-shard updates whose home
      execution touched a second shard and re-ran cross) and
      [router.blocked] (single-shard updates whose home execution found
      the shard frozen by a batch and retried), plus the
      [router.batch_size] span (members per committed batch) and the
      [router.migration_stall] span (per migration: single-shard
      executions forced onto the cross path by the live move — the
      price traffic paid for elasticity; a WF aggregate or a re-run of
      the same update counts again).  The shards keep their own
      telemetry attachment. *)

  val detach_telemetry : t -> unit

  type faults = {
    mutable torn_commit_record : bool;
        (** persist batch records torn across {e shards} (only the first
            participant's effects) — the classic distributed torn-write
            bug (PR 5). *)
    mutable torn_batch_record : bool;
        (** persist batch records truncated to the first {e member}'s
            contribution, so a crash between the record commit and the
            per-shard applies replays half a batch.  Manifests only on
            batches with >= 2 contributing members. *)
    mutable torn_migration : bool;
        (** settle fresh migrations with a {e half-length} persistent map
            entry while the routing image keeps the full range: crash-
            free runs stay correct, but a crash after the flip makes the
            reopened router route the upper half of the range back to the
            stale source copy — post-flip writes to it are lost. *)
  }
  (** Test-only planted faults for the explorer's self-checks.  Crash-
      free runs are unaffected.  Never set outside tests. *)

  val faults : t -> faults
end
