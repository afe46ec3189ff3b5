(* Cross-shard router (see DESIGN.md §10 and §12-§14).

   [Make (T)] runs N independent instances of any [Tm_intf.S] — the
   shards — behind the single-instance signature.  Global addresses are
   natively [shard * span + local] with [span] the (equal) shard region
   size, so when the shards live on consecutive views of one partitioned
   [Pmem.Region] a global address IS the device address.  Migrated
   ranges override that through the shard map: routing is one read of
   the published immutable [Shard_map.image] plus a pure lookup, so it
   is wait-free without conditions, even mid-migration.

   Single-shard transactions run entirely on their home shard as one
   ordinary [T] transaction (wait-free when T is, parallel across
   shards).  Routing is decided by a transaction-free classify pre-pass:
   the closure runs once with every load returning 0 and every effect
   discarded, recording only the set of shards touched (allocs commit to
   a rotating fresh home).  A pure run routes nowhere, a single-shard
   run routes straight to its home, a multi-shard run (or one exceeding
   the classify op budget) routes to the cross path — all without a
   durable transaction.  Classification is advisory, not load-bearing:
   if the real data makes the closure touch a different shard set, the
   home execution "escapes" by committing only a per-owner escape token
   and re-routing cross, and the cross path handles single-shard members
   under its locks.  All routed effects are buffered per execution
   (stores, frees) or compensated (allocs), so an escaping execution
   commits nothing else — this matters under OneFile-WF, where helpers
   may run the closure and only the committed execution's verdict
   counts.

   Cross-shard transactions go through a lock-free batched 2PC pipeline
   (DESIGN.md §12).  An owner publishes its request into a per-shard
   MPSC prepare queue (one atomic ticket + one atomic slot store), then
   loops: try to become the leader (one CAS on [leader]), else help the
   in-flight batch; either way it re-checks its request's [closed] state
   every iteration.  The leader drains a generation of requests from all
   queues and executes them serially against one shared batch context —
   strict 2PL over per-shard persistent lock cells acquired on first
   touch and held for the whole batch, writes/frees buffered into a
   batch union, allocations logged write-ahead into per-shard persistent
   pending lists.  The batch then commits through ONE durable commit
   record on shard 0 (participant set, union writes, union frees —
   amortizing the record and its fence across every member), is
   published in [cur], and is completed by one atomic apply transaction
   per participant (writes + frees + clear pending + applied-id +
   unlock).  The record is finalized lazily: its status is stamped DONE
   by recovery or simply overwritten by the next batch's record — the
   per-shard applied ids alone make a COMMITTED record's replay
   idempotent.  Everything after publication is idempotent — the applies
   are guarded in-transaction by the monotone per-shard applied id — so
   any thread that observes the published batch can complete it
   (OneFile-style helping): no thread waits on the leader's scheduling
   once the batch is in flight.

   Recovery (after the per-shard null recoveries) replays a COMMITTED
   batch record into every participant that missed its apply, then rolls
   back pending allocations and stale locks of a batch that never
   committed — the whole batch is replayed or discarded as a unit.

   Progress: single-shard transactions keep T's guarantee; the
   cross-shard pipeline is lock-free — a stalled leader can only stall
   pre-publication, where it holds no published batch, and every
   published batch is completed by whoever observes it.

   Cross-shard read-only transactions never enter the pipeline: they pin
   a consistent per-shard epoch vector and read at it (DESIGN.md §13). *)
(* relaxed-ok: the migration-stall sample handed to Telemetry.observe is
   read step-free, so attaching a registry never changes a schedule. *)
(* mutable-ok: the per-execution buffers (exec, overlay) are confined to
   the fiber running the transaction — under batching that is the
   leader's fiber, which executes members serially; the batch context
   (bctx) and the queue heads are leader-confined by the [leader] CAS;
   a request's result cell is written by the leader and read by the
   owner only after the [closed] flag flips (one Satomic cell); the
   faults flags are test-only sequential set-up.  Shared counters
   (leader, cur, tickets, ids) go through Satomic. *)

open Runtime

exception Abort = Tm_intf.Abort
exception Store_in_read_tx = Tm_intf.Store_in_read_tx

(* Control-block caps: write-ahead allocations per shard, and buffered
   writes and frees per batch commit record. *)
let max_pending = 32
let max_writes = 64
let max_frees = 32

module Make (T : Tm_intf.S) = struct
  let name = "Shard(" ^ T.name ^ ")"

  exception Cross_escape

  type faults = {
    mutable torn_commit_record : bool;
    mutable torn_batch_record : bool;
    mutable torn_migration : bool;
  }

  (* A live range migration (volatile descriptor; the durable truth is
     the migration record on shard 0).  While the descriptor is
     installed, every mutative access to [g_lo .. g_lo+g_len-1] is
     dual-written — to its primary route AND to the other copy (pinned
     addressing, below) — so whichever side the epoch flip leaves
     authoritative carries every committed write.  [sbase]/[dbase] are
     the range's shard-local bases on the source resp. destination. *)
  type mig = {
    g_lo : int;
    g_len : int;
    m_src : int;
    m_dst : int;
    m_sbase : int;
    m_dbase : int;
    m_back : bool; (* retiring a remapped range to its native home *)
    m_epoch : int; (* the map epoch this migration will establish *)
    stalled : int Satomic.t; (* single-update escapes forced by the move *)
  }

  (* The routing state: the published map image and the live migration
     descriptor, swapped together as one immutable value.  An execution
     that reads it once therefore never pairs an image with a descriptor
     from another stage of a move (say, the pre-flip image with the
     cleared descriptor of a retired move). *)
  type routing = { img : Shard_map.image; live : mig option }

  (* One cross-shard request: [run] is executed only by the batch leader
     (it returns [false] when the member is deferred to the next
     sub-batch on record overflow); [state] flips 0 -> 1 exactly when
     the member's batch has been fully applied.  Requests are fresh per
     invocation and never reused, so a stale helper marking an old
     request done is idempotent. *)
  type req = {
    run : bctx -> bool;
    state : int Satomic.t;
  }

  (* Shared state of one batch execution (leader-confined). *)
  and bctx = {
    locked : bool array;
    pins : int array;
        (* per-shard snapshot epoch the batch reads a frozen shard at
           (-1 = none): pinned on the first read after the lock, dropped
           before any leader transaction on that shard and before the
           record (see the Cross arm of [load]) *)
    uwrites : (int, int) Hashtbl.t; (* union: global addr -> last value *)
    ucache : (int, int) Hashtbl.t;
        (* read cache over the frozen shards: a locked shard's cells
           cannot change under the batch except through [uwrites], so a
           once-read value stays valid for every later member *)
    mutable uworder : int list; (* reversed first-store order *)
    mutable ufrees : int list; (* reversed; global addrs *)
    mutable nmerged : int; (* members that contributed effects *)
    mutable mark_w : int; (* union sizes after the first such member *)
    mutable mark_f : int;
    mutable has_alloc : bool;
  }

  (* The published, immutable image of a committed batch: everything a
     helper needs to drive it to completion. *)
  and batch = {
    gen : int; (* durable record id, strictly increasing *)
    pgen : int; (* pub_gen at publication (snapshot seqlock, below) *)
    parts : int; (* participant bitmap *)
    bws : (int * int) array; (* (gaddr, value), first-store order *)
    bfs : int array; (* global free addrs *)
    members : req array;
    ro : bool; (* no writes/frees/allocs: no durable record *)
    done_hint : int Satomic.t;
        (* volatile progress hint: bit s = shard s applied.  Purely an
           optimization — a lost update can only clear bits, and a
           cleared bit just re-runs the idempotent,
           in-transaction-guarded apply.  Correctness never depends on
           it (it dies with a crash along with [cur]). *)
  }

  type t = {
    shards : T.t array;
    span : int; (* virtual cells per shard: native home of g is g / span *)
    usable_roots : int; (* per shard; the last T root slot is reserved *)
    ctl : int array; (* per-shard control block, shard-local address *)
    rec_base : int; (* batch commit record, local to shard 0 *)
    map_base : int; (* persistent shard map (epoch + range table), shard 0 *)
    mig_base : int; (* persistent migration record, local to shard 0 *)
    max_ranges : int;
    max_threads : int;
    watermark : int; (* close the accumulation window at this many queued *)
    (* per-shard MPSC prepare queues: a ticket ring per shard, capacity
       [max_threads] (each thread has at most one outstanding request) *)
    qslots : req option Satomic.t array array;
    qtail : int Satomic.t array;
    qhead : int array; (* leader-confined drain cursor *)
    leader : int Satomic.t; (* 1 while a leader drains/executes *)
    cur : batch option Satomic.t; (* the in-flight published batch *)
    locked_mask : int Satomic.t;
        (* advisory freeze mask: bit s is set just before shard s's lock
           transaction and cleared just after its apply/unlock commits.
           Single-shard transactions consult it to wait a freeze out on
           volatile state; it is a hint only — a lost set just means one
           wasted "blocked" probe, a lost clear is bounded by the
           batcher-quiescent escape in [wait_unfrozen] — so correctness
           always rests on the in-transaction lock check. *)
    next_token : int Satomic.t;
    next_txid : int Satomic.t;
    next_home : int Satomic.t; (* round-robin home for alloc-first txs *)
    snap : T.t Tm_intf.snapshot_ops;
        (* per-shard wait-free snapshot primitives (epoch pin / load-at-
           epoch / unpin): cross-shard read-only transactions pin a
           per-shard epoch vector and never enter the prepare queues *)
    routing : routing Satomic.t;
        (* the routing image, mirrored from the persistent table on shard
           0, plus the live migration (at most one).  Published whole and
           never mutated, so one read routes every access of an execution
           without blocking or taking a transaction.  Writers: [make] and
           [recover] (decoding the persistent table) and the migrator
           (under [mig_claim]): descriptor install, epoch flip, retire. *)
    mig_claim : int Satomic.t; (* migrator election: one CAS *)
    pub_gen : int Satomic.t;
    done_gen : int Satomic.t;
        (* the snapshot seqlock (DESIGN.md §13): [pub_gen] is bumped by
           the leader just before a mutative batch's FIRST effect
           application (the durable record, which fuses shard 0's apply)
           and [done_gen] is raised to the batch's [pgen] only after
           every participant's apply committed.  [done_gen = pub_gen]
           therefore means no batch is partially applied anywhere —
           the window in which a per-shard epoch vector could straddle
           a cross-shard transaction.  Volatile; reset by recovery. *)
    tele : Telemetry.sink;
    c_batches : Telemetry.handle; (* router.batch_commits *)
    c_helps : Telemetry.handle; (* router.helps *)
    c_enqueues : Telemetry.handle; (* router.enqueues *)
    c_migs : Telemetry.handle; (* router.migrations *)
    c_epoch : Telemetry.handle; (* router.map_epoch (flips observed) *)
    s_bsize : Telemetry.span_handle; (* router.batch_size *)
    s_stall : Telemetry.span_handle; (* router.migration_stall *)
    faults : faults;
  }

  (* control block: lock | applied_id | pending count | pending slots
     (max_pending) | escape tokens (max_threads) | blocked tokens
     (max_threads) | migration hold; shard 0 appends the batch commit
     record: status (0 none / 1 committed / 2 done) | id | participants
     bitmap | nwrites | nfrees | (gaddr,value) pairs (max_writes) | free
     gaddrs (max_frees); then the persistent shard map (layout owned by
     [Shard_map]); then the migration record: status (0 none / 1
     published / 2 settled) |
     lo | len | src | dst | sbase | dbase | epoch. *)
  let lock_cell t s = t.ctl.(s)
  let applied_cell t s = t.ctl.(s) + 1
  let pcount_cell t s = t.ctl.(s) + 2
  let pslot_cell t s i = t.ctl.(s) + 3 + i
  let esc_cell t s tid = t.ctl.(s) + 3 + max_pending + tid
  let blk_cell t s tid = t.ctl.(s) + 3 + max_pending + t.max_threads + tid

  let mighold_cell t s = t.ctl.(s) + 3 + max_pending + (2 * t.max_threads)

  (* ---------------------------------------------------------------- *)
  (* The shard map                                                     *)

  (* Global addresses are map lookups, not arithmetic (DESIGN.md §14).
     [g / span] names the native home; the range table overrides it for
     migrated ranges, also translating into the hosting block on the
     owner.  A global name NEVER changes across a migration — only its
     route does — so pointers stored inside cells stay valid.

     Negative addresses are PINNED: [pin t s l] names shard-local cell
     [l] on shard [s] directly, bypassing the map.  The migration
     machinery uses them for the secondary copy of a dual-write, so a
     batch that straddles an epoch flip still applies (and replays from
     its record) to the exact cells it wrote. *)
  let global t s l = (s * t.span) + l
  let pin t s l = Shard_map.pin ~span:t.span s l

  (* one read of the published image (none for a pinned address) *)
  let route t g =
    let img = if g < 0 then Shard_map.empty else (Satomic.get t.routing).img in
    Shard_map.lookup img ~span:t.span g

  let shard_of t g = fst (route t g)

  (* the migration of [live] covering [g], if any *)
  let mig_range live g =
    match live with
    | Some m when g >= m.g_lo && g < m.g_lo + m.g_len -> Some m
    | _ -> None

  (* the same against the published descriptor (one volatile read) *)
  let live_mig t g =
    if g < 0 then None else mig_range (Satomic.get t.routing).live g

  (* the secondary copy of a dual-write: whichever side of the move the
     primary route does not currently name *)
  let mig_alias t (m : mig) g =
    let off = g - m.g_lo in
    if fst (route t g) = m.m_dst then pin t m.m_src (m.m_sbase + off)
    else pin t m.m_dst (m.m_dbase + off)

  (* decode the persistent table on shard 0 — sequential set-up /
     recovery code (no concurrent readers) *)
  let read_map sh0 map_base =
    Shard_map.decode (fun i -> T.read_tx sh0 (fun itx -> T.load itx (map_base + i)))

  let make ?(max_threads = 64) ?(batch_watermark = 7) ?(max_ranges = 8)
      ~ro_snapshot shards =
    let n = Array.length shards in
    if n < 1 then invalid_arg "Tm_shard.make: need at least one shard";
    if n > 62 then
      invalid_arg "Tm_shard.make: at most 62 shards (participant bitmap)";
    let span = Pmem.Region.size (T.region shards.(0)) in
    let nroots = T.num_roots shards.(0) in
    Array.iter
      (fun sh ->
        if Pmem.Region.size (T.region sh) <> span then
          invalid_arg "Tm_shard.make: shards must have equal region sizes";
        if T.num_roots sh <> nroots then
          invalid_arg "Tm_shard.make: shards must have equal num_roots")
      shards;
    if nroots < 2 then
      invalid_arg "Tm_shard.make: shards need >= 2 roots (one is reserved)";
    let ctl_cells = 4 + max_pending + (2 * max_threads) in
    let rec_cells = 5 + (2 * max_writes) + max_frees in
    let map_cells = Shard_map.cells ~max_ranges in
    let mig_cells = 8 in
    let ctl =
      Array.init n (fun s ->
          let sh = shards.(s) in
          let slot = T.root sh (nroots - 1) in
          let existing = T.read_tx sh (fun itx -> T.load itx slot) in
          if existing <> 0 then existing
          else
            let cells =
              ctl_cells + if s = 0 then rec_cells + map_cells + mig_cells else 0
            in
            T.update_tx sh (fun itx ->
                let a = T.alloc itx cells in
                T.store itx slot a;
                a))
    in
    let map_base = ctl.(0) + ctl_cells + rec_cells in
    (* an adopted device may carry migrated ranges from an earlier
       incarnation *)
    let routing =
      Satomic.make { img = read_map shards.(0) map_base; live = None }
    in
    let tele = Telemetry.sink () in
    let t =
      {
        shards;
        span;
        usable_roots = nroots - 1;
        ctl;
        rec_base = ctl.(0) + ctl_cells;
        map_base;
        mig_base = ctl.(0) + ctl_cells + rec_cells + map_cells;
        max_ranges;
        max_threads;
        watermark = max 1 batch_watermark;
        qslots =
          Array.init n (fun _ ->
              Array.init max_threads (fun _ -> Satomic.make None));
        qtail = Array.init n (fun _ -> Satomic.make 0);
        qhead = Array.make n 0;
        leader = Satomic.make 0;
        locked_mask = Satomic.make 0;
        cur = Satomic.make None;
        next_token = Satomic.make 0;
        next_txid = Satomic.make 0;
        next_home = Satomic.make 0;
        snap = ro_snapshot;
        routing;
        mig_claim = Satomic.make 0;
        pub_gen = Satomic.make 0;
        done_gen = Satomic.make 0;
        tele;
        c_batches = Telemetry.counter tele "router.batch_commits";
        c_helps = Telemetry.counter tele "router.helps";
        c_enqueues = Telemetry.counter tele "router.enqueues";
        c_migs = Telemetry.counter tele "router.migrations";
        c_epoch = Telemetry.counter tele "router.map_epoch";
        s_bsize = Telemetry.span tele "router.batch_size";
        s_stall = Telemetry.span tele "router.migration_stall";
        faults =
          {
            torn_commit_record = false;
            torn_batch_record = false;
            torn_migration = false;
          };
      }
    in
    (* fresh batch ids must stay above any persisted applied id, and
       fresh escape/blocked tokens above every token cell: an adopted
       device may carry state from an earlier incarnation, and a freshly
       allocated control block is not zeroed.  A stale token equal to a
       fresh one would make [single_update] mistake a genuine [-token]
       result for an escape and run the closure again. *)
    let hi = ref (T.read_tx shards.(0) (fun itx -> T.load itx (t.rec_base + 1))) in
    let tok = ref 0 in
    for s = 0 to n - 1 do
      let applied =
        T.read_tx shards.(s) (fun itx ->
            for tid = 0 to max_threads - 1 do
              tok := max !tok (T.load itx (esc_cell t s tid));
              tok := max !tok (T.load itx (blk_cell t s tid))
            done;
            T.load itx (applied_cell t s))
      in
      hi := max !hi applied
    done;
    Satomic.set t.next_txid !hi;
    Satomic.set t.next_token !tok;
    t

  let shards t = t.shards
  let span t = t.span
  let faults t = t.faults
  let attach_telemetry t reg = Telemetry.attach t.tele reg
  let detach_telemetry t = Telemetry.detach t.tele

  let root t i =
    let n = Array.length t.shards in
    if i < 0 || i >= n * t.usable_roots then invalid_arg "root";
    let s = i mod n and slot = i / n in
    global t s (T.root t.shards.(s) slot)

  let num_roots t = Array.length t.shards * t.usable_roots

  let region t =
    let r0 = T.region t.shards.(0) in
    match Pmem.Region.parent r0 with Some device -> device | None -> r0

  (* ---------------------------------------------------------------- *)
  (* Transaction contexts                                              *)

  type exec = {
    (* one single-shard execution's buffered effects (shard-local addrs) *)
    stores : (int, int) Hashtbl.t; (* addr -> last value *)
    mutable sorder : int list; (* reversed first-store order *)
    mutable sfrees : int list;
    mutable sallocs : int list;
  }

  type overlay = {
    (* one batch member's private effects, merged into the batch union
       only when the closure returns (so an Abort retry or a deferred
       member leaves no trace in the union) *)
    owrites : (int, int) Hashtbl.t; (* global addr -> last value *)
    mutable oworder : int list; (* reversed first-store order *)
    mutable ofrees : int list; (* global addrs *)
    mutable oallocs : (int * int) list; (* (shard, local), newest first *)
  }

  (* Routing pre-pass state: which shards has the closure touched so
     far?  [Classified] aborts the pre-pass as soon as the verdict is
     decided (second distinct shard seen, or op budget exhausted). *)
  type cls = {
    crs : routing; (* read once per pre-pass *)
    mutable cfirst : int; (* first touched shard, -1 = none yet *)
    mutable cmulti : bool; (* touched a second distinct shard *)
    mutable cops : int; (* tx ops served so far *)
  }

  exception Classified

  type kind =
    | Classify of cls
    | Single of { home : int; itx : T.tx; ex : exec; rs : routing }
    | Read_single of { home : int; itx : T.tx; img : Shard_map.image }
        (* single-shard executions route every access through the routing
           state read once at the start of the execution *)
    | Cross of { bc : bctx; ov : overlay }
    | Snap of { eps : int array; img : Shard_map.image }
        (* cross-shard snapshot read: every load resolves through the
           captured map image [img] on its shard at the pinned epoch
           [eps.(shard)]; never queues, never locks, never aborts *)

  type tx = { rt : t; kind : kind }

  (* the budget bounds closures whose control flow diverges on the
     garbage values the pre-pass serves *)
  let classify_budget = 128

  let cbump (c : cls) =
    c.cops <- c.cops + 1;
    if c.cops > classify_budget then raise Classified

  let cnote (c : cls) s =
    if c.cfirst < 0 then c.cfirst <- s
    else if s <> c.cfirst then begin
      c.cmulti <- true;
      raise Classified
    end;
    cbump c

  let ensure_locked t (bc : bctx) s =
    if not bc.locked.(s) then begin
      Satomic.set t.locked_mask (Satomic.get t.locked_mask lor (1 lsl s));
      ignore (T.update_tx t.shards.(s) (fun itx -> T.store itx (lock_cell t s) 1; 0));
      bc.locked.(s) <- true
    end

  let fresh_home t =
    Satomic.fetch_and_add t.next_home 1 mod Array.length t.shards

  (* Per-shard snapshot primitives, as named functions so the lint's
     pin-domination rule sees them (it classifies calls by callee name;
     record-field applications are invisible to it). *)
  let snap_pin t s = t.snap.Tm_intf.snap_pin t.shards.(s)
  let snap_load t s e l = t.snap.Tm_intf.snap_load t.shards.(s) e l
  let snap_unpin t s = t.snap.Tm_intf.snap_unpin t.shards.(s)

  (* drop the batch's pin on frozen shard [s], if it holds one: a leader
     transaction on [s] would release it silently (orphan-pin release),
     and a pin held across the record would make its apply capture *)
  let unpin_frozen t (bc : bctx) s =
    if bc.pins.(s) >= 0 then begin
      snap_unpin t s;
      bc.pins.(s) <- -1
    end

  (* a migrating range is dual-homed: the classify pre-pass reports BOTH
     ends, which routes every mutative touch of the range to the cross
     path (where stores dual-write) for as long as the move is live *)
  let cnote_addr t c g =
    if g = 0 then cbump c
    else
      match mig_range c.crs.live g with
      | Some m ->
          cnote c m.m_src;
          cnote c m.m_dst
      | None -> cnote c (fst (Shard_map.lookup c.crs.img ~span:t.span g))

  (* the local cell of [g] on [home] under [img]; any other shard escapes *)
  let home_local t img home g =
    let s, l = if g = 0 then (home, 0) else Shard_map.lookup img ~span:t.span g in
    if s <> home then raise Cross_escape;
    l

  (* mutating a migrating cell needs the dual-write, which only the cross
     path provides; count the forced detour *)
  let escape_migrating rs g =
    match mig_range rs.live g with
    | Some m ->
        Satomic.set m.stalled (Satomic.get m.stalled + 1);
        raise Cross_escape
    | None -> ()

  let load tx g =
    let t = tx.rt in
    match tx.kind with
    | Classify c ->
        cnote_addr t c g;
        0
    | Single { home; itx; ex; rs } -> (
        let l = home_local t rs.img home g in
        match Hashtbl.find ex.stores l with
        | v -> v
        | exception Not_found -> T.load itx l)
    | Read_single { home; itx; img } -> T.load itx (home_local t img home g)
    | Snap { eps; img } ->
        if g = 0 then 0
        else
          (* the image captured with the epoch vector, not the published
             one: a concurrent flip cannot retarget this load to a copy
             whose pinned epoch predates it *)
          let s, l = Shard_map.lookup img ~span:t.span g in
          (* flowlint: ok unpinned-snapshot-load the pin vector is acquired (and held) by snap_cross_read, which is the only constructor of a Snap tx *)
          snap_load t s eps.(s) l
    | Cross { bc; ov } -> (
        if g = 0 then 0
        else
          match Hashtbl.find ov.owrites g with
          | v -> v
          | exception Not_found -> (
              (* earlier members of the same batch serialize before this
                 one: their union writes are visible *)
              match Hashtbl.find bc.uwrites g with
              | v -> v
              | exception Not_found -> (
                  match Hashtbl.find bc.ucache g with
                  | v -> v
                  | exception Not_found ->
                      let s, l = route t g in
                      let v =
                        if not bc.locked.(s) then begin
                          (* fuse the freeze with the batch's first load
                             of the shard: the lock store and the read
                             commit in ONE shard transaction, so no
                             single-shard commit can slip between them *)
                          Satomic.set t.locked_mask
                            (Satomic.get t.locked_mask lor (1 lsl s));
                          let v =
                            T.update_tx t.shards.(s) (fun itx ->
                                T.store itx (lock_cell t s) 1;
                                T.load itx l)
                          in
                          bc.locked.(s) <- true;
                          v
                        end
                        else begin
                          (* the shard is frozen (locked) for the whole
                             batch: its user cells cannot change until
                             this batch's own apply (single-shard
                             commits there see the lock and commit only
                             a blocked token, and the previous batch was
                             reconciled before this one), so one epoch,
                             pinned after the lock transaction raised
                             [ro_stable] past it, serves every later
                             read of the batch *)
                          if bc.pins.(s) < 0 then bc.pins.(s) <- snap_pin t s;
                          (* flowlint: ok unpinned-snapshot-load the pin is taken just above when absent and held in bc.pins until unpin_frozen *)
                          snap_load t s bc.pins.(s) l
                        end
                      in
                      Hashtbl.replace bc.ucache g v;
                      v)))

  let store tx g v =
    let t = tx.rt in
    match tx.kind with
    | Classify c -> cnote_addr t c g
    | Read_single _ | Snap _ -> raise Store_in_read_tx
    | Single { home; ex; rs; _ } ->
        escape_migrating rs g;
        let l = home_local t rs.img home g in
        if not (Hashtbl.mem ex.stores l) then ex.sorder <- l :: ex.sorder;
        Hashtbl.replace ex.stores l v
    | Cross { bc; ov } ->
        let s = shard_of t g in
        ensure_locked t bc s;
        if not (Hashtbl.mem ov.owrites g) then ov.oworder <- g :: ov.oworder;
        Hashtbl.replace ov.owrites g v;
        (* dual-write: while a migration covers [g], the same value also
           lands on the other copy (pinned address), so the epoch flip
           can leave either side authoritative without losing this store *)
        (match live_mig t g with
        | Some m ->
            let a = mig_alias t m g in
            (* flowlint: lock-order batch lockers are serialized by the leader election (one CAS), so no two lock holders ever interleave acquisition; order within the unique leader's batch is free *)
            ensure_locked t bc (fst (route t a));
            if not (Hashtbl.mem ov.owrites a) then ov.oworder <- a :: ov.oworder;
            Hashtbl.replace ov.owrites a v
        | None -> ())

  let alloc tx nw =
    let t = tx.rt in
    match tx.kind with
    | Classify c ->
        (* pick (and commit to) a home the way the real execution would;
           the fake address stays on that shard, so follow-up ops on it
           cannot fabricate a cross verdict *)
        if c.cfirst < 0 then c.cfirst <- fresh_home t;
        cbump c;
        global t c.cfirst 1
    | Read_single _ | Snap _ -> raise Store_in_read_tx
    | Single { home; itx; ex; _ } ->
        let a = T.alloc itx nw in
        ex.sallocs <- a :: ex.sallocs;
        global t home a
    | Cross { bc; ov } ->
        let s = fresh_home t in
        ensure_locked t bc s;
        unpin_frozen t bc s;
        (* write-ahead: the allocation and its pending-list entry commit
           in one T transaction, so a crash either never allocated or
           left a pending entry for recovery to roll back *)
        let a =
          T.update_tx t.shards.(s) (fun itx ->
              let a = T.alloc itx nw in
              let pc = T.load itx (pcount_cell t s) in
              if pc >= max_pending then
                failwith "Tm_shard: cross-shard pending-alloc overflow";
              T.store itx (pslot_cell t s pc) a;
              T.store itx (pcount_cell t s) (pc + 1);
              a)
        in
        ov.oallocs <- (s, a) :: ov.oallocs;
        global t s a

  let free tx g =
    let t = tx.rt in
    match tx.kind with
    | Classify c -> cnote_addr t c g
    | Read_single _ | Snap _ -> raise Store_in_read_tx
    | Single { home; ex; rs; _ } ->
        escape_migrating rs g;
        ex.sfrees <- home_local t rs.img home g :: ex.sfrees
    | Cross { bc; ov } ->
        let s = shard_of t g in
        ensure_locked t bc s;
        ov.ofrees <- g :: ov.ofrees

  (* ---------------------------------------------------------------- *)
  (* Batch execution (leader side)                                     *)

  let flush_exec (ex : exec) itx =
    List.iter
      (fun l -> T.store itx l (Hashtbl.find ex.stores l))
      (List.rev ex.sorder);
    List.iter (fun l -> T.free itx l) (List.rev ex.sfrees)

  (* undo one member's write-ahead allocations: the leader executes
     members serially, so this overlay's entries are exactly the newest
     ones of each shard's pending list *)
  let rollback_allocs t (bc : bctx) (ov : overlay) =
    if ov.oallocs <> [] then
      for s = 0 to Array.length t.shards - 1 do
        let mine = List.filter (fun (s', _) -> s' = s) ov.oallocs in
        if mine <> [] then begin
          unpin_frozen t bc s;
          ignore
            (T.update_tx t.shards.(s) (fun itx ->
                 let pc = T.load itx (pcount_cell t s) in
                 T.store itx (pcount_cell t s) (pc - List.length mine);
                 List.iter (fun (_, a) -> T.free itx a) mine;
                 0))
        end
      done

  let merge_overlay (bc : bctx) (ov : overlay) =
    List.iter
      (fun g ->
        if not (Hashtbl.mem bc.uwrites g) then bc.uworder <- g :: bc.uworder;
        Hashtbl.replace bc.uwrites g (Hashtbl.find ov.owrites g))
      (List.rev ov.oworder);
    bc.ufrees <- ov.ofrees @ bc.ufrees;
    if ov.oallocs <> [] then bc.has_alloc <- true;
    bc.nmerged <- bc.nmerged + 1;
    if bc.nmerged = 1 then begin
      bc.mark_w <- List.length bc.uworder;
      bc.mark_f <- List.length bc.ufrees
    end

  (* would merging [ov] overflow the commit record's capacity? *)
  let overflow_writes (bc : bctx) (ov : overlay) =
    let fresh =
      List.fold_left
        (fun k g -> if Hashtbl.mem bc.uwrites g then k else k + 1)
        0 ov.oworder
    in
    List.length bc.uworder + fresh > max_writes

  let overflow_frees (bc : bctx) (ov : overlay) =
    List.length bc.ufrees + List.length ov.ofrees > max_frees

  (* Apply a committed batch [gen] to shard [s] inside [itx]: the writes
     and frees that [s] owns, then commit the write-ahead allocations
     (clear the pending list), stamp the applied id and unlock.  The one
     apply of the fused shard-0 record, [complete_batch] and recovery.
     Every entry routes through ONE image read: the batcher does not stop
     for the migrator's drain, so an epoch flip can land mid-apply, and
     two reads per entry could pick the owner from one image and the
     local cell from the other. *)
  let apply_shard t itx s ~gen ws fs =
    let img = (Satomic.get t.routing).img in
    let lookup g = Shard_map.lookup img ~span:t.span g in
    Array.iter (fun (g, v) -> let s', l = lookup g in if s' = s then T.store itx l v) ws;
    Array.iter (fun g -> let s', l = lookup g in if s' = s then T.free itx l) fs;
    T.store itx (pcount_cell t s) 0;
    T.store itx (applied_cell t s) gen;
    T.store itx (lock_cell t s) 0

  (* the ONE durable commit record of the whole batch: its status store
     is the durability (and linearization) point of every member *)
  let write_record t (bc : bctx) (b : batch) =
    let ws = List.rev bc.uworder in
    let fs = List.rev bc.ufrees in
    (* planted fault: persist a record truncated to the FIRST member's
       contribution.  Volatile applies below use the full union, so
       crash-free runs stay correct; a crash between the record commit
       and the applies makes recovery replay half a batch, which the
       crash oracle must catch.  Needs >= 2 contributing members. *)
    let take k l = List.filteri (fun i _ -> i < k) l in
    let ws, fs =
      if t.faults.torn_batch_record && bc.nmerged > 1 then
        (take bc.mark_w ws, take bc.mark_f fs)
      else (ws, fs)
    in
    (* planted fault (PR 5): a record torn across shards — only the
       first participant's effects survive *)
    let ws, fs =
      if not t.faults.torn_commit_record then (ws, fs)
      else begin
        let first =
          (* flowlint: bounded the participant set is non-empty, so a locked shard exists below Array.length *)
          let rec go s = if bc.locked.(s) then s else go (s + 1) in
          go 0
        in
        ( List.filter (fun g -> shard_of t g = first) ws,
          List.filter (fun g -> shard_of t g = first) fs )
      end
    in
    ignore
      (T.update_tx t.shards.(0) (fun itx ->
           let rb = t.rec_base in
           T.store itx (rb + 1) b.gen;
           T.store itx (rb + 2) b.parts;
           T.store itx (rb + 3) (List.length ws);
           T.store itx (rb + 4) (List.length fs);
           List.iteri
             (fun i g ->
               T.store itx (rb + 5 + (2 * i)) g;
               T.store itx (rb + 5 + (2 * i) + 1) (Hashtbl.find bc.uwrites g))
             ws;
           List.iteri
             (fun i g -> T.store itx (rb + 5 + (2 * max_writes) + i) g)
             fs;
           T.store itx rb 1;
           (* fuse shard 0's apply into the record transaction: the
              record and shard 0's effects (always the full volatile
              union, even under a planted torn-record fault) become
              durable atomically, which is indistinguishable from
              record-then-apply and saves a whole durable transaction on
              the most common participant.  On crash replay the
              per-shard applied-id guard skips shard 0. *)
           if b.parts land 1 <> 0 then apply_shard t itx 0 ~gen:b.gen b.bws b.bfs;
           0));
    if b.parts land 1 <> 0 then begin
      Satomic.set b.done_hint (Satomic.get b.done_hint lor 1);
      Satomic.set t.locked_mask (Satomic.get t.locked_mask land lnot 1)
    end

  (* ---------------------------------------------------------------- *)
  (* Batch completion (leader AND helpers; fully idempotent)           *)

  let complete_batch t (b : batch) =
    (* one atomic apply per participant.  The in-transaction applied-id
       guard makes the apply idempotent and neutralizes stale helpers:
       batch ids are strictly increasing, so once a shard's applied id
       reaches [b.gen] every re-apply (and every late helper of an older
       batch) is a no-op — in particular no double-free and no unlocking
       of a later batch's freeze.  [done_hint] short-cuts the common
       case where another completer already drove a step, so a helper
       racing a healthy leader costs volatile reads, not a cascade of
       no-op durable transactions.  Each completer starts the walk at a
       thread-dependent shard, so the leader and a helper drive
       *different* shards' applies concurrently instead of queueing up
       behind the same one — the shards are independent TM instances, so
       the applies genuinely overlap.  Cross-shard apply order is free:
       recovery tolerates any applied prefix via the same per-shard
       guard.

       There is deliberately no eager DONE stamp on the record: a fully
       applied record (every participant's applied id >= its id) is
       inert on replay because of the per-shard guard, so the status=2
       transition is left to recovery and the next batch's record simply
       overwrites a stale status=1 one in its own atomic transaction.
       That saves a durable transaction per batch on the hot path. *)
    let n = Array.length t.shards in
    let start = Sched.self () mod n in
    for i = 0 to n - 1 do
      let s = (start + i) mod n in
      if
        b.parts land (1 lsl s) <> 0
        && Satomic.get b.done_hint land (1 lsl s) = 0
      then begin
        ignore
          (T.update_tx t.shards.(s) (fun itx ->
               if T.load itx (applied_cell t s) < b.gen then
                 apply_shard t itx s ~gen:b.gen b.bws b.bfs;
               0));
        Satomic.set b.done_hint (Satomic.get b.done_hint lor (1 lsl s));
        Satomic.set t.locked_mask
          (Satomic.get t.locked_mask land lnot (1 lsl s))
      end
    done;
    (* close the snapshot seqlock window: every participant's apply has
       committed (each [done_hint] bit is set only after its apply
       transaction), so epochs taken from here on cannot straddle this
       batch.  CAS-max: helpers race the leader and each other, and
       [done_gen] is monotone. *)
    (* flowlint: bounded CAS-max retries only while another completer raises done_gen, which is monotone and capped by pub_gen *)
    let rec raise_done () =
      let cur = Satomic.get t.done_gen in
      if cur < b.pgen && not (Satomic.compare_and_set t.done_gen cur b.pgen)
      then raise_done ()
    in
    raise_done ();
    Array.iter (fun r -> Satomic.set r.state 1) b.members;
    (* retire the published batch (physical-equality CAS: a later batch
       in [cur] is left alone) *)
    match Satomic.get t.cur with
    | Some b' as cur when b' == b ->
        ignore (Satomic.compare_and_set t.cur cur None)
    | _ -> ()

  let help t =
    match Satomic.get t.cur with
    | Some b ->
        Telemetry.tick t.c_helps;
        complete_batch t b
    | None -> ()

  (* Wait out a (possible) freeze of [home] without touching the shard:
     locks are only ever held while a leader is active, and once a batch
     is published its participant bitmap names every held lock, so
     volatile reads alone tell whether [home] can still be frozen.
     Helping drives a published batch's applies — which release the
     locks — and the backoff keeps a crowd of frozen waiters from
     thundering onto the same idempotent apply (or onto the leader's
     own shard transactions with durable lock probes). *)
  let wait_unfrozen t home =
    (* flowlint: bounded the freeze lifts when the in-flight batch completes; helping drives its apply/unlock steps, and a pre-publication leader holds the freeze only across its own bounded execution *)
    let rec loop bo =
      if
        Satomic.get t.locked_mask land (1 lsl home) <> 0
        && (Satomic.get t.leader <> 0 || Satomic.get t.cur <> None)
        (* second conjunct: with the batcher quiescent the locks are all
           clear, so a stale advisory bit (lost clear) cannot wedge us *)
      then begin
        help t;
        loop (Backoff.once ~max:16 bo)
      end
    in
    loop 1

  (* ---------------------------------------------------------------- *)
  (* Prepare queues and the batcher                                    *)

  let enqueue t home r =
    let tid = Sched.self () in
    if tid >= t.max_threads then
      invalid_arg "Tm_shard: thread id >= max_threads";
    let k = Satomic.fetch_and_add t.qtail.(home) 1 in
    Satomic.set t.qslots.(home).(k mod t.max_threads) (Some r);
    Telemetry.tick t.c_enqueues

  (* drain every queue up to the first unpublished ticket (a producer
     preempted between its ticket and its slot store keeps later tickets
     for the next batch; their owners keep trying to lead, and the
     gapped producer's own await drains them once its store lands) *)
  let drain t =
    let acc = ref [] in
    for s = 0 to Array.length t.shards - 1 do
      let q = t.qslots.(s) in
      let stop = ref false in
      (* flowlint: bounded scans at most one ring of pending requests: the ring holds <= max_threads entries and the scan stops at the first empty slot *)
      while not !stop do
        let i = t.qhead.(s) mod t.max_threads in
        match Satomic.exchange q.(i) None with
        | Some r ->
            acc := r :: !acc;
            t.qhead.(s) <- t.qhead.(s) + 1
        | None -> stop := true
      done
    done;
    List.rev !acc

  (* execute one sub-batch: run members serially against a fresh batch
     context, then commit the union through one durable record and
     publish for completion.  Members whose merge would overflow the
     record are deferred (in order) to the next sub-batch. *)
  let run_batch t reqs =
    let bc =
      {
        locked = Array.make (Array.length t.shards) false;
        pins = Array.make (Array.length t.shards) (-1);
        uwrites = Hashtbl.create 16;
        ucache = Hashtbl.create 16;
        uworder = [];
        ufrees = [];
        nmerged = 0;
        mark_w = 0;
        mark_f = 0;
        has_alloc = false;
      }
    in
    let members = ref [] and deferred = ref [] in
    List.iter
      (fun r ->
        if !deferred <> [] then deferred := r :: !deferred
        else if r.run bc then members := r :: !members
        else deferred := r :: !deferred)
      reqs;
    for s = 0 to Array.length t.shards - 1 do
      unpin_frozen t bc s
    done;
    let parts = ref 0 in
    Array.iteri
      (fun s locked -> if locked then parts := !parts lor (1 lsl s))
      bc.locked;
    let ro = bc.uworder = [] && bc.ufrees = [] && not bc.has_alloc in
    let gen = Satomic.fetch_and_add t.next_txid 1 + 1 in
    (* snapshot seqlock: open the window (pub_gen > done_gen) BEFORE the
       batch's first effect application — write_record fuses shard 0's
       apply — so a snapshot reader never builds an epoch vector that
       straddles a half-applied batch.  Read-only batches apply nothing
       user-visible and leave the generations alone.  Leader-confined
       (the [leader] CAS), so a plain read-increment-store suffices. *)
    let pgen =
      if ro then Satomic.get t.pub_gen
      else begin
        let g = Satomic.get t.pub_gen + 1 in
        Satomic.set t.pub_gen g;
        g
      end
    in
    let ws = List.rev bc.uworder in
    let b =
      {
        gen;
        pgen;
        parts = !parts;
        bws =
          Array.of_list (List.map (fun g -> (g, Hashtbl.find bc.uwrites g)) ws);
        bfs = Array.of_list (List.rev bc.ufrees);
        members = Array.of_list (List.rev !members);
        ro;
        done_hint = Satomic.make 0;
      }
    in
    if not ro then write_record t bc b;
    (* publication: from here on anybody can (and helpers do) complete
       the batch; the leader pipelines — it opens the next accumulation
       window while owners drive this batch's remaining applies — and
       only reconciles (complete_batch) before taking new locks *)
    Satomic.set t.cur (Some b);
    Telemetry.tick t.c_batches;
    Telemetry.observe t.s_bsize (Array.length b.members);
    (List.rev !deferred, b)

  (* Group-commit accumulation: after winning leadership the leader
     idles up to this many scheduling steps before the second drain.  No
     lock is taken yet, so single-shard traffic flows freely while more
     cross-shard arrivals queue up — the batch that then forms amortizes
     its one durable record and its freeze window over more members.
     The window closes early once the queues hold [t.watermark] requests
     (arrivals are at most one per thread, so a watermark near the
     thread count is as large as batches can get); the cap keeps
     leadership bounded either way. *)
  let accumulation_window = 512

  let queued t =
    let q = ref 0 in
    for s = 0 to Array.length t.shards - 1 do
      q := !q + (Satomic.get t.qtail.(s) - t.qhead.(s))
    done;
    !q

  let window t base =
    let got = ref base and k = ref 0 in
    (* flowlint: bounded the window is capped at accumulation_window steps *)
    while !k < accumulation_window && !got < t.watermark do
      for _ = 1 to 16 do
        Sched.step_point ()
      done;
      k := !k + 16;
      got := base + queued t
    done

  let run_leader t =
    match drain t with
    | [] -> ()
    | reqs ->
        window t (List.length reqs);
        let pending = ref (reqs @ drain t) in
        let prev = ref None in
        (* flowlint: bounded every round retires at least one request: the first member of a round either joins its batch or overflows alone, which fails it *)
        while !pending <> [] do
          (* reconcile the previous batch before taking any new lock: a
             new freeze may not observe a shard whose apply is still
             outstanding.  Usually the owners finished it during our
             window and this is a few volatile reads. *)
          (match !prev with
          | Some b -> complete_batch t b
          | None -> ());
          let deferred, b = run_batch t !pending in
          prev := Some b;
          pending := deferred;
          (* pipeline: accumulate the next batch while the owners drive
             the published one to completion *)
          if !pending <> [] || queued t > 0 then window t (queued t)
        done;
        (match !prev with
        | Some b -> complete_batch t b
        | None -> ())

  (* has the request's batch been fully applied?  The helping loops
     below re-check this every iteration (their early exit). *)
  let closed (r : req) = Satomic.get r.state <> 0

  (* The owner's wait loop — the batcher's helping loop.  Each iteration
     either becomes the leader (and then drains/executes, which always
     completes its own request), helps the in-flight batch to
     completion, or observes [closed] and returns. *)
  let await t r =
    (* flowlint: bounded each iteration either leads (which completes the request) or helps the published batch; the backoff only spaces the iterations *)
    let rec loop bo =
      if not (closed r) then
        if Satomic.compare_and_set t.leader 0 1 then begin
          (* a previous leader may have drained and completed us *)
          if not (closed r) then run_leader t;
          Satomic.set t.leader 0;
          loop bo
        end
        else begin
          help t;
          (* spacing the help attempts keeps a whole batch of owners
             from thundering onto the same idempotent apply
             transaction at publication *)
          loop (Backoff.once ~max:16 bo)
        end
    in
    loop 1

  (* flowlint: bounded each Abort retry follows the member's own raise; the batch holds its locks so there is no cross-member conflict to wait out *)
  let attempt_member t ~out f bc =
    let rec attempt () =
      let ov =
        { owrites = Hashtbl.create 8; oworder = []; ofrees = []; oallocs = [] }
      in
      match f { rt = t; kind = Cross { bc; ov } } with
      | r ->
          if overflow_writes bc ov || overflow_frees bc ov then begin
            rollback_allocs t bc ov;
            if bc.nmerged = 0 then
              failwith
                (if overflow_writes bc ov then
                   "Tm_shard: cross-shard write-set overflow"
                 else "Tm_shard: cross-shard free-set overflow");
            false (* defer to the next sub-batch *)
          end
          else begin
            merge_overlay bc ov;
            out := `Done r;
            true
          end
      | exception Abort ->
          rollback_allocs t bc ov;
          Sched.step_point ();
          attempt ()
      | exception e ->
          (* the member fails alone: its allocations are rolled back, it
             contributes nothing, and the owner re-raises after the
             batch completes *)
          rollback_allocs t bc ov;
          out := `Failed e;
          true
    in
    attempt ()

  let cross_tx t ~home f =
    let out = ref `Pending in
    let r = { run = attempt_member t ~out f; state = Satomic.make 0 } in
    enqueue t home r;
    await t r;
    match !out with
    | `Done v -> v
    | `Failed e -> raise e
    | `Pending -> assert false

  (* ---------------------------------------------------------------- *)
  (* Drivers                                                           *)

  (* flowlint: bounded recursion re-enters only after a freeze observed via the blk token, i.e. after a batch completed; see the freeze-wait below *)
  let rec single_update t home f =
    let tid = Sched.self () in
    if tid >= t.max_threads then
      invalid_arg "Tm_shard: thread id >= max_threads";
    let token = Satomic.fetch_and_add t.next_token 1 + 1 in
    let sh = t.shards.(home) in
    let esc = esc_cell t home tid and blk = blk_cell t home tid in
    (* cheap freeze pre-check: one volatile read rules out the common
       (no batcher around) case, and a frozen shard is waited out on
       volatile state instead of burning a full transaction just to
       commit a "blocked" verdict.  The in-transaction lock check below
       still catches a freeze that lands after this. *)
    wait_unfrozen t home;
    let wrapped itx =
      if T.load itx (lock_cell t home) <> 0 then begin
        (* shard frozen by a cross-shard batch: report "blocked" through
           the transaction itself — helpers may run this closure, and only
           the committed execution's verdict counts *)
        T.store itx blk token;
        -token
      end
      else begin
        let ex =
          { stores = Hashtbl.create 8; sorder = []; sfrees = []; sallocs = [] }
        in
        (* read per execution, so a retry routes with a fresh image *)
        let rs = Satomic.get t.routing in
        let rtx = { rt = t; kind = Single { home; itx; ex; rs } } in
        match f rtx with
        | r ->
            flush_exec ex itx;
            r
        | exception Cross_escape ->
            (* undo this execution's eager allocations and commit only the
               escape token; the router then re-runs on the cross path *)
            List.iter (fun a -> T.free itx a) ex.sallocs;
            T.store itx esc token;
            -token
      end
    in
    let r = T.update_tx sh wrapped in
    if r <> -token then r
      (* -token can also be a genuine user result: the token cells, written
         only by a committed escaped/blocked execution, disambiguate *)
    else if T.read_tx sh (fun itx -> T.load itx esc) = token then
      cross_tx t ~home f
    else if T.read_tx sh (fun itx -> T.load itx blk) = token then begin
      (* wait for the freeze to lift before retrying, helping the
         in-flight batch along: once the batch is published its applies
         (which release the locks) can be driven by this thread *)
      wait_unfrozen t home;
      single_update t home f
    end
    else r

  (* Routing pre-pass: run the closure once OUTSIDE any transaction,
     serving every load with 0 and only recording which shards it
     touches.  The verdict is a hint, not a commitment — a mis-routed
     single still escapes through the in-transaction token fallback, and
     the batch path executes a single-shard member correctly under its
     lock — so the garbage values cannot break correctness, only pick a
     slower path.  What the pre-pass buys: a cross-shard transaction
     goes straight to the prepare queues instead of first paying a
     durable escape transaction on its (contended) home shard just to
     learn it is cross. *)
  let classify t f =
    let c =
      { crs = Satomic.get t.routing; cfirst = -1; cmulti = false; cops = 0 }
    in
    match f { rt = t; kind = Classify c } with
    | r ->
        (* no tx op ran: the closure is pure and [r] is its real result *)
        if c.cops = 0 then `Pure r else `Home (max c.cfirst 0)
    | exception Classified ->
        if c.cmulti then `Cross (max c.cfirst 0) else `Home (max c.cfirst 0)
    | exception e ->
        (* with no op served the raise is the closure's own doing and
           deterministic — surface it; after garbage loads it may be an
           artifact, so re-run on the real (single-shard) path *)
        if c.cops = 0 then raise e else `Home (max c.cfirst 0)

  let update_tx t f =
    match classify t f with
    | `Pure r -> r
    | `Home home -> single_update t home f
    | `Cross home -> cross_tx t ~home f

  (* Cross-shard snapshot read (DESIGN.md §13): acquire a consistent
     per-shard epoch vector, run the closure against it, unpin.  Never
     enters the prepare queues, takes no locks, and cannot abort — the
     only repeated step is the acquisition loop, which retries exactly
     when a writer committed during the collect (lock-free; wait-free
     in the absence of concurrent mutative commits, and single-shard
     reads never come here at all).

     The vector is consistent when (a) the seqlock is closed on both
     sides of the collect — no batch anywhere between its first and
     last per-shard apply — and (b) a second collect re-pins the same
     epoch on every shard, i.e. no single-shard commit moved any shard
     between the two passes (the classic atomic-snapshot double
     collect).  (a) without (b) misses independent single-shard
     commits that a thread may have issued in a real-time order across
     shards; (b) without (a) misses a batch whose applies all landed
     before the first pass on one shard but after the second on
     another — both passes then see quiescent shards that straddle the
     batch.  The map image is captured with the vector and must still be
     the published one after the pins, so every load routes through the
     image its epochs were taken under. *)
  let snap_cross_read t f =
    let n = Array.length t.shards in
    let eps = Array.make n 0 in
    (* flowlint: bounded each retry follows an observed generation or image change, i.e. a concurrent mutative commit or epoch flip; helping drives the in-flight batch to completion *)
    let rec acquire () =
      let d1 = Satomic.get t.done_gen in
      let p1 = Satomic.get t.pub_gen in
      let rs = Satomic.get t.routing in
      if d1 <> p1 then begin
        (* a batch is mid-apply somewhere: drive it, then retry *)
        help t;
        Sched.step_point ();
        acquire ()
      end
      else begin
        for s = 0 to n - 1 do
          eps.(s) <- snap_pin t s
        done;
        let consistent =
          ref (Satomic.get t.pub_gen = p1 && Satomic.get t.routing == rs)
        in
        if !consistent then
          for s = 0 to n - 1 do
            (* re-pin: overwrites this thread's era slot on shard s with
               the fresh (>=) epoch, so protection is continuous when the
               epochs agree and correctly renewed when we retry *)
            let e = snap_pin t s in
            if e <> eps.(s) then consistent := false;
            eps.(s) <- e
          done;
        if not !consistent then begin
          help t;
          Sched.step_point ();
          acquire ()
        end
        else rs.img
      end
    in
    let img = acquire () in
    let unpin_all () =
      for s = 0 to n - 1 do
        snap_unpin t s
      done
    in
    match f { rt = t; kind = Snap { eps; img } } with
    | r ->
        unpin_all ();
        r
    | exception e ->
        unpin_all ();
        raise e

  let read_tx t f =
    match classify t f with
    | `Pure r -> r
    | `Cross _ -> snap_cross_read t f
    | `Home home ->
        let escaped = ref false in
        let r =
          T.read_tx t.shards.(home) (fun itx ->
              let img = (Satomic.get t.routing).img in
              let rtx = { rt = t; kind = Read_single { home; itx; img } } in
              try f rtx
              with Cross_escape ->
                escaped := true;
                0)
        in
        (* a stale flag from an aborted execution merely re-runs the pure
           read on the (consistent) cross-shard path *)
        if !escaped then snap_cross_read t f else r

  (* ---------------------------------------------------------------- *)
  (* Live range migration (DESIGN.md §14)                               *)

  (* Map introspection (one read of the published image). *)
  let map_entries t = Array.copy (Satomic.get t.routing).img.entries
  let map_epoch t = (Satomic.get t.routing).img.epoch

  (* The user-root block of shard [s]: the contiguous root slot cells
     [T.root s 0 .. T.root s (usable_roots - 1)] (shard-local).  The
     reserved control slot is excluded.  Contiguity is a property of the
     underlying TM's root layout; [split] verifies it at run time. *)
  let root_block t s =
    let sh = t.shards.(s) in
    (T.root sh 0, t.usable_roots)

  (* wait until no batch is in flight anywhere (published-incomplete or
     mid-apply), helping it along — the "drained-or-helped" barrier on
     both sides of the epoch flip *)
  let drain_batches t =
    (* flowlint: bounded every published batch is completed by whoever observes it (helping below); the waits only space the observations *)
    let rec loop bo =
      if
        Satomic.get t.pub_gen <> Satomic.get t.done_gen
        || Satomic.get t.cur <> None
      then begin
        help t;
        loop (Backoff.once ~max:16 bo)
      end
    in
    loop 1

  (* The durable migration record: publishing it (status = 1) is the
     point of no return — recovery rolls the move FORWARD from here,
     which is sound because the source copy stays write-current (every
     mutative touch of the range dual-writes) for as long as status = 1.
     One T transaction = flushed and fenced before the first chunk. *)
  let publish_migration_record t (m : mig) =
    ignore
      (T.update_tx t.shards.(0) (fun itx ->
           let mb = t.mig_base in
           T.store itx (mb + 1) m.g_lo;
           T.store itx (mb + 2) m.g_len;
           T.store itx (mb + 3) m.m_src;
           T.store itx (mb + 4) m.m_dst;
           T.store itx (mb + 5) m.m_sbase;
           T.store itx (mb + 6) m.m_dbase;
           T.store itx (mb + 7) m.m_epoch;
           T.store itx (mb) 1;
           0))

  (* Copy one bounded chunk of the live range, interleaved with traffic:
     an ordinary cross-shard transaction (2PL over src and dst), so it
     serializes against every concurrent dual-writing batch — a chunk
     never overwrites a newer dual-written value with an older one. *)
  let migrate_chunk t (m : mig) ~off ~len =
    ignore
      (update_tx t (fun tx ->
           for i = off to off + len - 1 do
             (* flowlint: lock-order the chunk is one batch member; the unique leader (one-CAS election) serializes all batch lock acquisition, so no concurrent taker exists to deadlock against *)
             let v = load tx (m.g_lo + i) in
             store tx (pin t m.m_dst (m.m_dbase + i)) v
           done;
           0))

  (* [img] with [m] settled: a fresh move gains (or overwrites) its
     entry, [len] cells long; a back move loses it *)
  let settled (img : Shard_map.image) (m : mig) ~len =
    {
      Shard_map.epoch = m.m_epoch;
      entries =
        Shard_map.settle img.entries ~lo:m.g_lo ~len ~dst:m.m_dst
          ~dbase:m.m_dbase ~back:m.m_back;
    }

  (* write a settled image to the persistent table and mark the
     migration record settled, in ONE durable transaction *)
  let persist_settled t (img : Shard_map.image) =
    ignore
      (T.update_tx t.shards.(0) (fun itx ->
           Shard_map.encode (fun i v -> T.store itx (t.map_base + i) v) img;
           T.store itx t.mig_base 2;
           0))

  (* The epoch flip: drain the batcher, publish the settled image (the
     descriptor stays installed), then settle the persistent map +
     migration record in ONE durable transaction.  Readers straddling the
     flip are safe either way — both copies carry every committed write
     while the descriptor is installed — and a crash on either side of
     the settle transaction replays cleanly: before it, status = 1 rolls
     the copy forward; after it, the map entry is the (complete) truth.
     [old] is the image the move was validated against: under the claim
     nobody else publishes one.  Returns the settled image. *)
  let flip_map_epoch t old (m : mig) =
    drain_batches t;
    let img = settled old m ~len:m.g_len in
    Satomic.set t.routing { img; live = Some m };
    (* planted fault: persist a half-length entry while the published
       image keeps the full range *)
    let tear = t.faults.torn_migration && not m.m_back && m.g_len >= 2 in
    persist_settled t (settled old m ~len:(if tear then m.g_len / 2 else m.g_len));
    Telemetry.tick t.c_migs;
    Telemetry.tick t.c_epoch;
    img

  (* control-block extent of shard [s] in shard-local cells *)
  let ctl_extent t s =
    let ctl_cells = t.rec_base - t.ctl.(0) in
    let extra = if s = 0 then t.mig_base + 8 - t.rec_base else 0 in
    (t.ctl.(s), ctl_cells + extra)

  let rec migrate_range t ~lo ~len ~dst =
    let n = Array.length t.shards in
    let invalid msg = `Invalid msg in
    if len <= 0 || lo < 0 then invalid "migrate_range: empty or negative range"
    else if dst < 0 || dst >= n then invalid "migrate_range: no such shard"
    else if not (Satomic.compare_and_set t.mig_claim 0 1) then `Busy
    else begin
      (* under the claim the map only changes under our own flip, so the
         validation below reads a stable table *)
      let img = (Satomic.get t.routing).img in
      let exact = ref None and overlap = ref false in
      Array.iter
        (fun ((elo, elen, _, _) as e) ->
          if elo = lo && elen = len then exact := Some e
          else if lo < elo + elen && elo < lo + len then overlap := true)
        img.entries;
      let release r = Satomic.set t.mig_claim 0; r in
      match !exact with
      | _ when !overlap ->
          release (invalid "migrate_range: range straddles a migrated range")
      | Some (_, _, owner, sbase) ->
          (* retire the range back to its native home *)
          let native = lo / t.span in
          if dst <> native then
            release (invalid "migrate_range: can only retire back to the native home")
          else if owner = dst then
            release (invalid "migrate_range: range already home")
          else begin
            let m =
              {
                g_lo = lo;
                g_len = len;
                m_src = owner;
                m_dst = dst;
                m_sbase = sbase;
                m_dbase = lo mod t.span;
                m_back = true;
                m_epoch = img.epoch + 1;
                stalled = Satomic.make 0;
              }
            in
            (* condemn the host block: once the record settles it is
               garbage; until then the hold is inert (reconciliation
               frees a held block only when no map entry references it) *)
            ignore
              (T.update_tx t.shards.(owner) (fun itx ->
                   T.store itx (mighold_cell t owner) sbase;
                   0));
            run_migration t img m
          end
      | None ->
          let native = lo / t.span in
          if (lo + len - 1) / t.span <> native then
            release (invalid "migrate_range: range crosses a shard boundary")
          else if native = dst then
            release (invalid "migrate_range: already on that shard")
          else begin
            let l0 = lo mod t.span in
            let cb, clen = ctl_extent t native in
            let slot = T.root t.shards.(native) t.usable_roots in
            if l0 < cb + clen && cb < l0 + len then
              release (invalid "migrate_range: range overlaps the control block")
            else if slot >= l0 && slot < l0 + len then
              release (invalid "migrate_range: range covers the reserved root slot")
            else if Array.length img.entries >= t.max_ranges then
              release (invalid "migrate_range: range table full")
            else begin
              (* write-ahead host allocation: the block and its hold
                 commit in one transaction, so a crash before the
                 migration record leaves a held, unreferenced block for
                 recovery to free *)
              let dbase =
                T.update_tx t.shards.(dst) (fun itx ->
                    let a = T.alloc itx len in
                    T.store itx (mighold_cell t dst) a;
                    a)
              in
              let m =
                {
                  g_lo = lo;
                  g_len = len;
                  m_src = native;
                  m_dst = dst;
                  m_sbase = l0;
                  m_dbase = dbase;
                  m_back = false;
                  m_epoch = img.epoch + 1;
                  stalled = Satomic.make 0;
                }
              in
              run_migration t img m
            end
          end
    end

  (* the common tail: descriptor install -> durable record -> chunked
     copy -> epoch flip -> drain -> retire *)
  and run_migration t img (m : mig) =
    (* dual-writes start here, strictly before the record exists: the
       source copy is write-current for the record's whole status=1 life *)
    Satomic.set t.routing { img; live = Some m };
    publish_migration_record t m;
    let chunk = 8 in
    let off = ref 0 in
    (* flowlint: bounded the copy advances one bounded chunk per iteration over a fixed-length range *)
    (* flowlint: lock-order each chunk is its own batch member under the unique leader's serial execution; no concurrent lock taker exists *)
    while !off < m.g_len do
      let k = min chunk (m.g_len - !off) in
      migrate_chunk t m ~off:!off ~len:k;
      off := !off + k
    done;
    let img = flip_map_epoch t img m in
    (* second drain: no batch that executed under the pre-flip route (and
       therefore relied on the dual-write) may still be in flight when
       the descriptor — and with it the dual-write obligation — goes away *)
    drain_batches t;
    Satomic.set t.routing { img; live = None };
    (* retire: a back-move frees the condemned host block; a fresh move's
       block is live now (the map entry references it) — just lift the
       hold.  Either way one transaction on the holding shard. *)
    let hold_shard = if m.m_back then m.m_src else m.m_dst in
    ignore
      (T.update_tx t.shards.(hold_shard) (fun itx ->
           if m.m_back then T.free itx m.m_sbase;
           T.store itx (mighold_cell t hold_shard) 0;
           0));
    Telemetry.observe t.s_stall (Satomic.get_relaxed m.stalled);
    Satomic.set t.mig_claim 0;
    `Ok

  (* Elastic operations over the user-root block (the cells programs
     address through [root]): [split] rehomes the upper half of [src]'s
     root block onto [dst]; [merge] retires every migrated range that
     [src] hosts whose native home is [dst]. *)
  let split t ~src ~dst =
    let n = Array.length t.shards in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      `Invalid "split: no such shard"
    else begin
      let r0, nr = root_block t src in
      if T.root t.shards.(src) (nr - 1) <> r0 + nr - 1 then
        `Invalid "split: root slots are not contiguous"
      else
        let half = nr / 2 in
        let len = nr - half in
        if len = 0 then `Invalid "split: root block too small"
        else migrate_range t ~lo:(global t src (r0 + half)) ~len ~dst
    end

  let merge t ~src ~dst =
    let candidates =
      Array.to_list (map_entries t)
      |> List.filter (fun (lo, _, owner, _) ->
             owner = src && lo / t.span = dst)
    in
    if candidates = [] then `Invalid "merge: no migrated range to retire"
    else
      List.fold_left
        (fun acc (lo, len, _, _) ->
          match acc with
          | `Ok -> migrate_range t ~lo ~len ~dst
          | err -> err)
        `Ok candidates

  (* ---------------------------------------------------------------- *)
  (* Recovery                                                          *)

  let recover ~shard_recover t =
    Array.iter shard_recover t.shards;
    (* reset the volatile batcher: pre-crash requests are dead *)
    Satomic.set t.leader 0;
    Satomic.set t.cur None;
    Satomic.set t.locked_mask 0;
    (* the snapshot seqlock is volatile too: after the per-shard
       recoveries and the batch-record replay below, no batch is
       partially applied, so the closed state (equal generations) is
       the truth *)
    Satomic.set t.pub_gen 0;
    Satomic.set t.done_gen 0;
    for s = 0 to Array.length t.shards - 1 do
      Satomic.set t.qtail.(s) 0;
      t.qhead.(s) <- 0;
      for i = 0 to t.max_threads - 1 do
        Satomic.set t.qslots.(s).(i) None
      done
    done;
    (* the pre-crash migrator is dead with its fiber: drop the volatile
       descriptor/claim and re-decode the image from the persistent
       table, so the batch-record replay below routes with the PRE-flip
       map whenever the crash beat the settle transaction *)
    Satomic.set t.mig_claim 0;
    Satomic.set t.routing { img = read_map t.shards.(0) t.map_base; live = None };
    let n = Array.length t.shards in
    let sh0 = t.shards.(0) in
    let rd sh l = T.read_tx sh (fun itx -> T.load itx l) in
    let b = t.rec_base in
    (if rd sh0 b = 1 then begin
       (* roll the committed batch forward, as a unit *)
       let id = rd sh0 (b + 1) and parts = rd sh0 (b + 2) in
       let nw = rd sh0 (b + 3) and nf = rd sh0 (b + 4) in
       let ws =
         Array.init nw (fun i ->
             (rd sh0 (b + 5 + (2 * i)), rd sh0 (b + 5 + (2 * i) + 1)))
       in
       let fs = Array.init nf (fun i -> rd sh0 (b + 5 + (2 * max_writes) + i)) in
       for s = 0 to n - 1 do
         if parts land (1 lsl s) <> 0 then
           if rd t.shards.(s) (applied_cell t s) < id then
             (* pending allocations belong to the committed batch: the
                apply clears the list without freeing *)
             ignore
               (T.update_tx t.shards.(s) (fun itx ->
                    apply_shard t itx s ~gen:id ws fs;
                    0))
       done;
       ignore (T.update_tx sh0 (fun itx -> T.store itx b 2; 0))
     end);
    (* roll a published migration FORWARD (status = 1: the record is the
       point of no return and the source copy was write-current —
       dual-writes — for its whole life, so a full recopy over whatever
       the chunk loop managed is always correct).  Then settle the map
       exactly as the flip would have: torn settles re-run to the same
       fixpoint. *)
    let mb = t.mig_base in
    (if rd sh0 mb = 1 then begin
       let lo = rd sh0 (mb + 1) and len = rd sh0 (mb + 2) in
       let src = rd sh0 (mb + 3) and dst = rd sh0 (mb + 4) in
       let sbase = rd sh0 (mb + 5) and dbase = rd sh0 (mb + 6) in
       let m =
         {
           g_lo = lo;
           g_len = len;
           m_src = src;
           m_dst = dst;
           m_sbase = sbase;
           m_dbase = dbase;
           m_back = dst = lo / t.span && dbase = lo mod t.span;
           m_epoch = rd sh0 (mb + 7);
           stalled = Satomic.make 0;
         }
       in
       let chunk = 8 in
       let off = ref 0 in
       (* flowlint: bounded sequential recovery recopy over a fixed-length range, one chunk per iteration *)
       while !off < len do
         let k = min chunk (len - !off) in
         let o = !off in
         let vs = Array.init k (fun i -> rd t.shards.(src) (sbase + o + i)) in
         ignore
           (T.update_tx t.shards.(dst) (fun itx ->
                Array.iteri (fun i v -> T.store itx (dbase + o + i) v) vs;
                0));
         off := !off + k
       done;
       let img = settled (Satomic.get t.routing).img m ~len in
       persist_settled t img;
       Satomic.set t.routing { img; live = None }
     end);
    (* roll back the leftovers of a batch that never committed: free
       write-ahead allocations, clear stale locks *)
    for s = 0 to n - 1 do
      let sh = t.shards.(s) in
      let leftovers =
        rd sh (pcount_cell t s) > 0 || rd sh (lock_cell t s) <> 0
      in
      if leftovers then
        ignore
          (T.update_tx sh (fun itx ->
               let pc = T.load itx (pcount_cell t s) in
               for i = 0 to pc - 1 do
                 T.free itx (T.load itx (pslot_cell t s i))
               done;
               T.store itx (pcount_cell t s) 0;
               T.store itx (lock_cell t s) 0;
               0))
    done;
    (* migration-hold reconciliation: a held block that no map entry
       references is an orphan — either a fresh move's host that never
       reached its record (roll back: free it) or a retired back-move's
       old host whose settle beat the crash (roll forward: free it).  A
       referenced hold is a fresh move that settled before its release
       transaction — the block is live, just lift the hold. *)
    let entries = (Satomic.get t.routing).img.entries in
    for s = 0 to n - 1 do
      let h = rd t.shards.(s) (mighold_cell t s) in
      if h <> 0 then begin
        let referenced =
          Array.exists (fun (_, _, dst, dbase) -> dst = s && dbase = h) entries
        in
        ignore
          (T.update_tx t.shards.(s) (fun itx ->
               if not referenced then T.free itx h;
               T.store itx (mighold_cell t s) 0;
               0))
      end
    done;
    (* fresh batch ids must stay above every persisted applied id *)
    let hi = ref (rd sh0 (b + 1)) in
    for s = 0 to n - 1 do
      hi := max !hi (rd t.shards.(s) (applied_cell t s))
    done;
    if Satomic.get t.next_txid < !hi then Satomic.set t.next_txid !hi
end
