(* Shared core of the OneFile algorithms (internal module).

   Region layout (cells; one cell = one TMType = value + seq):

     0..3                       null pointer + padding (cell 0 is NULL)
     4                          curTx            (v = seq, s = tid)
     ws_base + t*ws_stride      per-thread log:  request | entries
                                (request: v = seq while open, s = 2n + split
                                for its n entries; a log of up to 3 entries
                                shares the request's cache line)
     wf_base + 2t/2t+1          results[t] / acks[t]  (wait-free; two
                                threads' pairs per cache line)
     roots_base ..              user roots
     meta_base ..               allocator metadata
     heap_base .. size          transactional heap

   Everything below roots_base is algorithm metadata; everything from
   roots_base up survives crashes via the ordinary transactional protocol.

   A WF operation is announced in its volatile [pending] slot only: after
   a crash nothing reads an announcement, since [recover] empties
   [pending], so the region keeps just each thread's result and
   acknowledgment, written by the commit that runs the operation.

   Persistence ordering note: the paper flushes curTx right after the
   commit CAS (step 7) and any thread entering the apply phase (steps 8-10)
   has done so too.  We make this explicit: a helper pwbs curTx before its
   first DCAS of a commit ([put]), so no data word can become durable with
   a sequence newer than the durable curTx — otherwise a crash could
   resurrect a half-persisted transaction that recovery no longer knows
   about.  A helper of a split WF log skips that write-back once chunk 0's
   claim word shows a claim: only a thread that already wrote curTx back
   claims chunk 0 — the owner, or a helper that presumes the owner
   stalled and so applies what the owner held ([put], [help]).

   That note, and the rest of the correctness argument, are checkable: the
   [Check.Tmcheck] sanitizer (attached with [sanitize]) observes every
   region access plus the transaction-lifecycle hooks below and validates
   seq monotonicity, persistence ordering, apply-before-close, opacity,
   hazard-era discipline and allocator discipline on every step.

   Hot-path discipline: a steady-state load or store must not touch the
   minor heap — lookups are sentinel-returning ([Writeset.find_idx]),
   checker hooks are inlined matches rather than closure-taking helpers,
   telemetry uses pre-resolved handles, and the interposition ops record
   is built once per thread slot.  tm_lint's hotpath rule keeps it that
   way. *)
(* relaxed-ok: curtx_info/capture_info/claim_info/chunk_info/published/
   allocated_cells are step-free debug views, usable from a scheduler
   on_round hook without perturbing the schedule; the ro.snapshot_lag
   sample in snap_read_tx is telemetry, read step-free so attaching a
   registry never changes a schedule. *)
(* mutable-ok: tx records and the desc freed flag are confined to their
   owning fiber / the reclamation epoch; the checker slot is written from
   sequential set-up code only; the curTx stamps and request words are
   confined to their thread slot;
   [pub_once.(i)] is written only by thread [i] and sequential
   recovery. *)

module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats
module Hazard_eras = Reclaim.Hazard_eras
open Runtime

exception Abort = Tm.Tm_intf.Abort

let curtx_cell = 4
let round4 n = (n + 3) land lnot 3

(* redo-log entries per chunk of a cooperative apply (see [apply]) *)
let chunk_len = 8
let nchunks n = (n + chunk_len - 1) / chunk_len

(* bits of a write-set position in a redo-log sort key ([sort_log]),
   and of an address digit per pass of its radix sort ([radix_passes]) *)
let idx_bits = 20
let radix_bits = 4

(* flowlint: bounded n halves at every call until it reaches 0 *)
let rec bits_of n = if n <= 0 then 0 else 1 + bits_of (n lsr 1)

module Tmcheck = Check.Tmcheck

(* One overwritten value of a data word, kept for pinned snapshot readers
   (DESIGN.md §13): [vval] was the content of [vaddr] over the commit
   interval [vbirth, vdel] (both inclusive).  Records are immutable and
   published through Satomic cells, so every version-store access is a
   scheduling step the explorer can interleave. *)
type version = { vaddr : int; vval : int; vbirth : int; vdel : int }

(* The volatile version store backing wait-free snapshot reads: a fixed
   hash table of [vbuckets] buckets with [vslots_per] direct slots each
   plus a per-bucket overflow list.  [ro_stable] is the newest fully
   applied commit sequence — the epoch a new reader pins.  [pin_floor] is
   a sound lower bound on the epoch of every active and future reader;
   versions whose [vdel] sits below it are invisible to all readers and
   may be dropped.  [pin_watermark] bounds the floor scan: it is a
   monotone upper bound (exclusive) on the slot of every thread that has
   ever pinned, so the floor scan never touches the era slot of a thread
   that never read.

   Capture is paid only while a reader exists.  [capst] is one word,
   [(nocap lsl 8) lor readers]: [readers] counts the slots registered as
   snapshot readers, and [nocap] is the highest commit sequence some
   apply pass applied without capturing (see [decide_capture] and
   [snap_pin]).  [regst] is each slot's side of that count: 0 none,
   1 counted (a registration abandoned before its handshake finished),
   2 registered.  Every count change is paired with its [regst] store
   with no scheduling step between them, so the count always equals the
   number of slots in state 1 or 2.  [pin_mine] mirrors the era this
   slot last published through [snap_pin] (0 = none) so a transaction
   driver reusing the slot of a fiber that was abandoned mid-read can
   release the orphaned pin without paying a step in the common case
   (mutable-ok: cell [i] of either array is written only by thread [i],
   plus sequential recovery). *)
type vstore = {
  vslots : version option Satomic.t array; (* vbuckets * vslots_per *)
  voverflow : version list Satomic.t array; (* one per bucket *)
  ro_stable : int Satomic.t;
  pin_floor : int Satomic.t;
  pin_watermark : int Satomic.t;
  capst : int Satomic.t;
  regst : int array;
  pin_mine : int array;
}

(* [capst] fields; [readers] is at most [max_threads] <= 255 *)
let cap_readers c = c land 0xff
let cap_nocap c = c lsr 8

type tx = {
  txregion : Region.t;
  txalloc : Tm.Tm_alloc.t;
  mutable start_seq : int;
  mutable read_only : bool;
  mutable snap_epoch : int; (* pinned snapshot epoch; -1 = not a snap read *)
  ws : Writeset.t;
  txchk : Tmcheck.t option ref; (* shared with the owning instance *)
  vst : vstore; (* shared with the owning instance *)
  ops : Tm.Tm_intf.alloc_ops; (* interposition record, built once per slot *)
}

type desc = { opid : int; fn : tx -> int; mutable freed : bool }

(* A thread slot's published WF operation.  [Solo] marks one whose
   closure raised inside some aggregate: aggregators skip it and its
   owner runs it alone, so an exception reaches only its caller. *)
type pending = Empty | Published of desc | Solo of desc

(* Test-only fault injection: each flag re-opens a specific, once-real bug
   so the explorer's planted-bug self-checks can prove the harness would
   catch it.  All flags default to false and must never be set outside
   tests. *)
type faults = {
  mutable drop_publish_pwb : bool;
      (* skip the request-cell flush at the top of [publish_log] — the PR 1
         durability hole (volatile close vs. log recycling) *)
  mutable stale_commit_snapshot : bool;
      (* refresh curTx right before the commit CAS, ignoring everything
         committed since the snapshot, and retry a lost CAS the same way
         with the same write-set: a blind-retry lost update *)
  mutable stale_dedup_flush : bool;
      (* a write-back pass starts with its own first line marked as
         already written back, so a committed write can silently skip its
         data pwb *)
  mutable stale_ro_snapshot : bool;
      (* pin snapshot readers at the raw curTx sequence instead of the
         fully-applied ro_stable epoch: a reader then observes a
         half-published epoch and mixes pre- and post-transaction words *)
  mutable skip_nocap : bool;
      (* a registering reader ignores [nocap]: it can pin below a commit
         that was applied without capture and then miss the version of a
         word that commit overwrote *)
  mutable skip_help_curtx_pwb : bool;
      (* a helper treats its curTx stamp as set: it DCASes a foreign
         commit's entries without writing back curTx first, so a data word
         can become durable ahead of the durable curTx *)
  mutable early_retry : bool;
      (* an LF claim loser treats the winner's request as closed without
         reading it: its retry runs at a curTx that is still open, reads
         a half-applied snapshot and commits over the open request *)
  mutable early_chunk_done : bool;
      (* an applier of a split log marks its chunk done before it writes
         the chunk's lines back: the owner can close, and a later commit
         persist, while those lines are still only in the cache *)
  mutable early_curtx_signal : bool;
      (* a helper of a split log takes the claim of the chunk it applies,
         instead of chunk 0's, as the owner's curTx write-back: it can
         DCAS and write back data words while the durable curTx is
         still older than their sequence *)
}

type t = {
  region : Region.t;
  instance : string; (* telemetry key prefix; "" = sole instance *)
  max_threads : int;
  ws_cap : int;
  ws_stride : int;
  ws_base : int;
  wf_base : int;
  roots_base : int;
  num_roots : int;
  heap_base : int;
  ws_threshold : int; (* Writeset linear/hash switchover, instance config *)
  alloc : Tm.Tm_alloc.t;
  vst : vstore;
  txs : tx array;
  read_tries : int; (* read-only attempts before WF fallback *)
  (* wait-free state *)
  pending : pending Satomic.t array;
  he : desc Hazard_eras.t;
  next_opid : int Satomic.t;
  (* [pub_watermark] is a monotone upper bound (exclusive) on the slot of
     every thread that has ever published, raised once per slot
     ([pub_once] is written only by its slot, plus sequential recovery),
     so an aggregate scans only the slots in use *)
  pub_watermark : int Satomic.t;
  pub_once : bool array;
  (* the commit claim: [(seq lsl 8) lor tid] of the thread that commits
     [seq] — an LF updater with its write-set ready, or the elected WF
     aggregator (see [claim_commit]) *)
  claim : int Satomic.t;
  (* per-thread scratch: an owner's sorted redo log, or the entries a
     helper copied from a foreign one *)
  scratch_addrs : int array array;
  scratch_vals : int array array;
  (* [chunk_st.(k)]: [2 seq] once chunk [k] of a split commit [seq] is
     claimed, [2 seq + 1] once it is done (see [apply]) *)
  chunk_st : int Satomic.t array;
  (* the redo-log sort's per-thread digit counters and the bits of a
     cell address in this region (see [radix_passes]) *)
  sort_count : int array array;
  addr_bits : int;
  (* [curtx_stamp.(i)]: the newest commit sequence for which thread [i]
     wrote back curTx (see [put]) *)
  curtx_stamp : int array;
  (* [req_word.(i)]: the request word thread [i]'s last [publish_log]
     stored, so its commit closes the request with one CAS *)
  req_word : Word.t array;
  checker : Tmcheck.t option ref;
  tele : Telemetry.sink; (* no-op counters until a registry is attached *)
  (* pre-resolved telemetry handles (no string hash on the hot paths) *)
  c_commits : Telemetry.handle;
  c_ro_commits : Telemetry.handle;
  c_aborts : Telemetry.handle;
  c_helps : Telemetry.handle;
  c_help_exits : Telemetry.handle;
  c_recycles : Telemetry.handle;
  c_wf_published : Telemetry.handle;
  c_wf_aggregated : Telemetry.handle;
  c_wf_fallbacks : Telemetry.handle;
  c_claims : Telemetry.handle;
  c_waits : Telemetry.handle;
  c_wait_timeouts : Telemetry.handle;
  c_rec_runs : Telemetry.handle;
  c_rec_helped : Telemetry.handle;
  c_ro_pins : Telemetry.handle;
  c_captures : Telemetry.handle;
  s_latency : Telemetry.span_handle;
  s_ro_lag : Telemetry.span_handle;
  faults : faults;
}

let req_cell inst tid = inst.ws_base + (tid * inst.ws_stride)
let entry_cell inst tid i = req_cell inst tid + 1 + i
let res_cell inst tid = inst.wf_base + (2 * tid)
let ack_cell inst tid = inst.wf_base + (2 * tid) + 1

(* the entry count of the redo log a request word announces *)
let log_len (req : Word.t) = req.Word.s lsr 1

(* [claim] fields; a tid fits 8 bits since [max_threads] <= 255 *)
let claim_seq c = c lsr 8
let claim_tid c = c land 0xff
let stats inst = Region.stats inst.region

(* ------------------------------------------------------------------ *)
(* Snapshot version store, reader side (DESIGN.md §13)                  *)

let vbuckets = 512
let vslots_per = 2
let vbucket addr = (addr lxor (addr lsr 7)) land (vbuckets - 1)

(* Resolve [addr] at snapshot epoch [epoch]: the current word when it is
   old enough, else the captured version covering [epoch].  Never aborts,
   never retries, never flushes.  The version is guaranteed present:
   every overwrite captures its predecessor before the winning DCAS
   ([put_one]), and replacement drops only versions with
   [vdel < pin_floor <= every pinned epoch]. *)
let snap_resolve ~region ~chk vst epoch addr =
  let w = Region.load region addr in
  if w.Word.s <= epoch then begin
    (match !chk with
    | None -> ()
    | Some c -> Tmcheck.tx_load c ~addr ~v:w.Word.v ~s:w.Word.s);
    w.Word.v
  end
  else begin
    let base = vbucket addr * vslots_per in
    let hit = ref None in
    for i = 0 to vslots_per - 1 do
      match Satomic.get vst.vslots.(base + i) with
      | Some u when u.vaddr = addr && u.vbirth <= epoch && epoch <= u.vdel ->
          hit := Some u
      | _ -> ()
    done;
    (match !hit with
    | Some _ -> ()
    | None ->
        List.iter
          (fun u ->
            if u.vaddr = addr && u.vbirth <= epoch && epoch <= u.vdel then
              hit := Some u)
          (Satomic.get vst.voverflow.(vbucket addr)));
    match !hit with
    | Some u ->
        (match !chk with
        | None -> ()
        | Some c -> Tmcheck.tx_load c ~addr ~v:u.vval ~s:u.vbirth);
        u.vval
    | None -> failwith "OneFile: snapshot version missing from the version store"
  end

(* ------------------------------------------------------------------ *)
(* Interposition — defined before [create] so each tx slot can cache its
   ops record instead of rebuilding two closures per allocator call.     *)

let load_shared tx addr =
  let w = Region.load tx.txregion addr in
  if w.Word.s > tx.start_seq then raise Abort;
  (match !(tx.txchk) with
  | None -> ()
  | Some c -> Tmcheck.tx_load c ~addr ~v:w.Word.v ~s:w.Word.s);
  w.Word.v

let load tx addr =
  (* flowlint: ok unpinned-snapshot-load the snap_epoch guard means snap_read_tx pinned this epoch and unpins only after the closure returns *)
  if tx.snap_epoch >= 0 then
    snap_resolve ~region:tx.txregion ~chk:tx.txchk tx.vst tx.snap_epoch addr
  else if tx.read_only then load_shared tx addr
  else
    let i = Writeset.find_idx tx.ws addr in
    if i >= 0 then Writeset.val_at tx.ws i else load_shared tx addr

let store tx addr v =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  (match !(tx.txchk) with None -> () | Some c -> Tmcheck.tx_store c ~addr);
  Writeset.put tx.ws addr v

let create ?mode ?size ?region:backing ?(instance = "") ?(max_threads = 64)
    ?(ws_cap = 2048) ?(num_roots = 8) ?(read_tries = 4) ?linear_threshold () =
  if max_threads > 255 then
    invalid_arg "Core0.create: max_threads > 255 (packed reader count and claim tid)";
  if ws_cap > 1 lsl idx_bits then
    invalid_arg "Core0.create: ws_cap > 2^20 (packed sort keys of the redo log)";
  let region =
    match backing with
    | Some r ->
        (match mode with
        | Some m when m <> Region.mode r ->
            invalid_arg "Core0.create: ~mode contradicts ~region"
        | _ -> ());
        (match size with
        | Some s when s <> Region.size r ->
            invalid_arg "Core0.create: ~size contradicts ~region"
        | _ -> ());
        r
    | None ->
        Region.create
          ~mode:(Option.value mode ~default:Region.Persistent)
          ~id:instance
          (Option.value size ~default:(1 lsl 18))
  in
  let mode = Region.mode region and size = Region.size region in
  (* pre-resolved handle names carry the instance id so two instances
     attached to one registry stay separable ("shard3.tx.commits") *)
  let key n = if instance = "" then n else instance ^ "." ^ n in
  let ws_stride = round4 (1 + ws_cap) in
  let ws_base = 8 in
  let wf_base = ws_base + (max_threads * ws_stride) in
  let roots_base = round4 (wf_base + (2 * max_threads)) in
  let meta_base = roots_base + num_roots in
  let heap_base = meta_base + Tm.Tm_alloc.meta_cells in
  if heap_base + 64 > size then invalid_arg "Core0.create: region too small";
  let alloc = Tm.Tm_alloc.create ~meta_base ~heap_base ~heap_end:size in
  let checker = ref None in
  let free_desc d =
    d.freed <- true;
    match !checker with
    | Some c -> Tmcheck.closure_free c ~opid:d.opid
    | None -> ()
  in
  let tele = Telemetry.sink () in
  let vst =
    {
      vslots = Array.init (vbuckets * vslots_per) (fun _ -> Satomic.make None);
      voverflow = Array.init vbuckets (fun _ -> Satomic.make []);
      ro_stable = Satomic.make 1;
      pin_floor = Satomic.make 1;
      pin_watermark = Satomic.make 0;
      capst = Satomic.make 0;
      regst = Array.make max_threads 0;
      pin_mine = Array.make max_threads 0;
    }
  in
  let mk_tx () =
    let rec tx =
      {
        txregion = region;
        txalloc = alloc;
        start_seq = 0;
        read_only = true;
        snap_epoch = -1;
        ws = Writeset.create ?linear_threshold ws_cap;
        txchk = checker;
        vst;
        ops =
          {
            Tm.Tm_intf.aload = (fun a -> load tx a);
            astore = (fun a v -> store tx a v);
          };
      }
    in
    tx
  in
  let txs = Array.init max_threads (fun _ -> mk_tx ()) in
  let inst =
    {
      region;
      instance;
      max_threads;
      ws_cap;
      ws_stride;
      ws_base;
      wf_base;
      roots_base;
      num_roots;
      heap_base;
      ws_threshold = Writeset.threshold txs.(0).ws;
      alloc;
      vst;
      txs;
      read_tries;
      pending = Array.init max_threads (fun _ -> Satomic.make Empty);
      he = Hazard_eras.create ~max_threads ~free:free_desc ();
      next_opid = Satomic.make 0;
      pub_watermark = Satomic.make 0;
      pub_once = Array.make max_threads false;
      claim = Satomic.make 0;
      scratch_addrs = Array.init max_threads (fun _ -> Array.make ws_cap 0);
      scratch_vals = Array.init max_threads (fun _ -> Array.make ws_cap 0);
      chunk_st = Array.init (nchunks ws_cap) (fun _ -> Satomic.make 0);
      sort_count = Array.init max_threads (fun _ -> Array.make (1 lsl radix_bits) 0);
      addr_bits = bits_of (size - 1);
      curtx_stamp = Array.make max_threads 0;
      req_word = Array.make max_threads Word.zero;
      checker;
      tele;
      c_commits = Telemetry.counter tele (key "tx.commits");
      c_ro_commits = Telemetry.counter tele (key "tx.ro_commits");
      c_aborts = Telemetry.counter tele (key "tx.aborts");
      c_helps = Telemetry.counter tele (key "tx.helps");
      c_help_exits = Telemetry.counter tele (key "tx.help_exits");
      c_recycles = Telemetry.counter tele (key "log.recycles");
      c_wf_published = Telemetry.counter tele (key "wf.published");
      c_wf_aggregated = Telemetry.counter tele (key "wf.aggregated");
      c_wf_fallbacks = Telemetry.counter tele (key "wf.fallbacks");
      c_claims = Telemetry.counter tele (key "tx.claims");
      c_waits = Telemetry.counter tele (key "tx.waits");
      c_wait_timeouts = Telemetry.counter tele (key "tx.wait_timeouts");
      c_rec_runs = Telemetry.counter tele (key "recovery.runs");
      c_rec_helped = Telemetry.counter tele (key "recovery.helped");
      c_ro_pins = Telemetry.counter tele (key "tx.ro_epoch_pins");
      c_captures = Telemetry.counter tele (key "ro.captures");
      s_latency = Telemetry.span tele (key "tx.latency");
      s_ro_lag = Telemetry.span tele (key "ro.snapshot_lag");
      faults =
        {
          drop_publish_pwb = false;
          stale_commit_snapshot = false;
          stale_dedup_flush = false;
          stale_ro_snapshot = false;
          skip_nocap = false;
          skip_help_curtx_pwb = false;
          early_retry = false;
          early_chunk_done = false;
          early_curtx_signal = false;
        };
    }
  in
  (* initial state: seq 1 committed by nobody; requests closed *)
  Region.store region curtx_cell (Word.make 1 0);
  let init_ops =
    {
      Tm.Tm_intf.aload = (fun a -> (Region.load region a).Word.v);
      astore = (fun a v -> Region.store region a (Word.make v 0));
    }
  in
  Tm.Tm_alloc.init inst.alloc init_ops;
  (match mode with
  | Region.Persistent ->
      Region.pwb_range region 0 heap_base;
      Region.pfence region
  | Region.Volatile -> ());
  Pstats.reset (stats inst);
  inst

let linear_threshold inst = inst.ws_threshold
let instance inst = inst.instance

(* ------------------------------------------------------------------ *)
(* Sanitizer attachment                                                 *)

let layout inst =
  {
    Tmcheck.curtx_cell;
    max_threads = inst.max_threads;
    ws_cap = inst.ws_cap;
    req_cell = req_cell inst;
    log_len;
    entry_cell = entry_cell inst;
    req_tid_of =
      (fun a ->
        if a >= inst.ws_base && a < inst.wf_base && (a - inst.ws_base) mod inst.ws_stride = 0
        then Some ((a - inst.ws_base) / inst.ws_stride)
        else None);
    data_base = inst.roots_base;
    heap_base = inst.heap_base;
  }

let set_checker inst c =
  inst.checker := c;
  Region.set_observer inst.region
    (match c with Some c -> Some (Tmcheck.on_event c) | None -> None)

let sanitize ?mode inst =
  let c = Tmcheck.create ?mode (layout inst) inst.region in
  set_checker inst (Some c);
  c

let desanitize inst = set_checker inst None
let checker inst = !(inst.checker)
let with_chk r f = match !r with Some c -> f c | None -> ()

(* ------------------------------------------------------------------ *)
(* Telemetry attachment                                                 *)

let attach_telemetry inst t =
  Telemetry.attach inst.tele t;
  Region.attach_telemetry inst.region t;
  Hazard_eras.set_telemetry inst.he (Some t)

let detach_telemetry inst =
  Telemetry.detach inst.tele;
  Hazard_eras.set_telemetry inst.he None

let telemetry inst = !(inst.tele)
let faults inst = inst.faults

let read_curtx inst = Region.load inst.region curtx_cell

let req_closed inst ~tid ~seq =
  (Region.load inst.region (req_cell inst tid)).Word.v <> seq

let is_open inst (ct : Word.t) = not (req_closed inst ~tid:ct.Word.s ~seq:ct.Word.v)

(* ------------------------------------------------------------------ *)
(* Snapshot version store, writer side (DESIGN.md §13)                  *)

(* Monotone CAS-max: raise [cell] to at least [v]. *)
(* flowlint: bounded a CAS miss means another thread raised the cell concurrently, which is progress toward the target *)
let rec cas_max cell v =
  let cur = Satomic.get cell in
  if cur < v && not (Satomic.compare_and_set cell cur v) then cas_max cell v

let stable_bump vst s = cas_max vst.ro_stable s

(* Recompute [pin_floor] as min(published reader eras, ro_stable).
   [ro_stable] must be read BEFORE the era scan: a reader is pin-ordered
   as (register in pin_watermark; e := ro_stable; publish era e;
   r := ro_stable; read at r).  If the scan sees its era, the floor is
   <= e <= r.  If it does not — including when the watermark cut the
   scan short of its slot — the reader registered or published after
   that was checked, hence read ro_stable after we read [s0], so its
   epoch r >= s0 >= the floor.  Either way no version with vdel < floor
   can be the one a reader at r needs (which has vdel >= r).  Returns
   the refreshed floor. *)
let refresh_floor inst =
  let vst = inst.vst in
  let s0 = Satomic.get vst.ro_stable in
  let wm = Satomic.get vst.pin_watermark in
  let c = ref s0 in
  for i = 0 to wm - 1 do
    let e = Hazard_eras.era inst.he i in
    if e <> 0 && e < !c then c := e
  done;
  let f = !c in
  cas_max vst.pin_floor f;
  f

(* Install one captured version into its bucket.  Preference order: a
   slot already holding the same (addr, del) record — a racing helper
   captured the identical overwrite — then an empty slot, then a slot
   whose version expired below the floor; otherwise the bucket's
   overflow list, pruning expired entries in the same CAS. *)
let vinstall inst b (v : version) =
  let vst = inst.vst in
  let base = b * vslots_per in
  let installed = ref false in
  let floor = ref (-1) in
  let get_floor () =
    if !floor < 0 then floor := Satomic.get vst.pin_floor;
    !floor
  in
  let try_slots () =
    for i = 0 to vslots_per - 1 do
      if not !installed then begin
        let cell = vst.vslots.(base + i) in
        match Satomic.get cell with
        | Some u when u.vaddr = v.vaddr && u.vdel = v.vdel -> installed := true
        | None as cur ->
            if Satomic.compare_and_set cell cur (Some v) then installed := true
        | Some u as cur when u.vdel < get_floor () ->
            if Satomic.compare_and_set cell cur (Some v) then installed := true
        | Some _ -> ()
      end
    done
  in
  Telemetry.tick inst.c_captures;
  try_slots ();
  if not !installed then begin
    floor := refresh_floor inst;
    try_slots ();
    if not !installed then begin
      let floor = !floor in
      let cell = vst.voverflow.(b) in
      (* flowlint: bounded a CAS miss means a racing capture replaced the list — progress — and the duplicate check then stops this one *)
      let rec go () =
        let cur = Satomic.get cell in
        if not (List.exists (fun u -> u.vaddr = v.vaddr && u.vdel = v.vdel) cur)
        then
          let keep = List.filter (fun u -> u.vdel >= floor) cur in
          if not (Satomic.compare_and_set cell cur (v :: keep)) then go ()
      in
      go ()
    end
  end

(* The capture decision of one apply pass for commit [seq]: [true] when
   some reader may still need the words this pass overwrites.  A pass
   skips capture only at a read or CAS of [capst] that sees no reader,
   and that same word then carries [nocap >= seq]; a registering reader
   counts itself in that word with one fetch-and-add, whose result hands
   it [nocap] ([snap_pin]).  So either this pass captures, or the reader
   sees [nocap >= seq] and helps [seq] to completion before it pins, and
   never needs a version this pass overwrote.  Decided once per pass,
   before its puts: one step with a reader registered or [nocap] already
   past [seq], two otherwise. *)
(* flowlint: bounded a CAS miss means another thread changed the word since the read: a reader (de)registered or another pass raised nocap *)
let rec decide_capture inst ~seq =
  let cell = inst.vst.capst in
  let c = Satomic.get cell in
  if cap_readers c > 0 then true
  else if cap_nocap c >= seq then false
  else if Satomic.compare_and_set cell c (seq lsl 8) then false
  else decide_capture inst ~seq

(* Sequence-guarded DCAS of one redo-log entry (Alg. 1 lines 10-15).
   [cap] is the pass's capture decision ([decide_capture]).

   A thread writes curTx back before its first DCAS for [seq];
   [curtx_stamp] records that it did.  A data word gets sequence [seq]
   only through a DCAS for [seq], so the durable curTx is >= [seq] before
   any word carries it (Tmcheck rule (b)), and a helper whose puts all
   fail the guard writes nothing back.  The owner's commit writes curTx
   back right after its CAS and sets its stamp there.  Against the
   paper's write-back on entry to [help] (benchmark/run.exe --seconds 10,
   seeds 1-3): pwb/op wf-kv-write 8.30 -> 8.46-8.48 (+1.9-2.2%),
   lf-list-read90 0.853 -> 0.874-0.876 (+2.4-2.8%), shard-cross 6.21 ->
   6.28 (+1.1-1.2%), shard-local unchanged (LF claim losers no longer
   help); no other simulator metric worse by over 1.4%.  The benchmark's
   pwb/op bound is 2%, so the stamp stays.

   Only a helper of a split log that has not presumed its owner stalled
   ([help]) reaches that DCAS without its stamp; it writes curTx back
   only when chunk [signal]'s claim word (chunk 0's, but for the planted
   [early_curtx_signal]) is below [2 seq].  Chunk 0 is claimed, with a
   CAS, only after a curTx write-back for [seq], and every other raise
   of the word (a done mark) follows DCASes for [seq] that obeyed this
   rule, so a word at [2 seq] or above means the durable curTx is >=
   [seq] already (DESIGN.md §6).

   Under a capturing decision the word about to be overwritten is
   installed in the version store before the winning CAS: it covered the
   commit interval [w.s, seq - 1], exactly what a reader pinned inside
   that interval still needs.  Capture precedes the CAS so no reader can
   observe the new word while the old version is absent from the store;
   racing helpers capture the identical record and dedup on (addr, del). *)
(* flowlint: bounded a CAS miss means a helper already installed this entry with sequence >= seq, so the seq guard fails on the next round *)
let rec put inst ~me ~signal ~seq ~cap addr v =
  let w = Region.load inst.region addr in
  if w.Word.s < seq then begin
    if inst.curtx_stamp.(me) < seq then begin
      if Satomic.get inst.chunk_st.(signal) < 2 * seq then
        Region.pwb inst.region curtx_cell;
      inst.curtx_stamp.(me) <- seq
    end;
    if cap && addr >= inst.roots_base then
      vinstall inst (vbucket addr)
        { vaddr = addr; vval = w.Word.v; vbirth = w.Word.s; vdel = seq - 1 };
    if not (Region.cas inst.region addr w (Word.make v seq)) then
      put inst ~me ~signal ~seq ~cap addr v
  end

(* thread 0's put, counted as its curTx write-back for [seq] *)
let put_one inst ~seq addr v =
  inst.curtx_stamp.(0) <- max seq inst.curtx_stamp.(0);
  put inst ~me:0 ~signal:0 ~seq ~cap:(decide_capture inst ~seq) addr v

(* A close moves the request word's [v] past [seq] and keeps its count. *)
let close_request inst ~tid ~seq =
  let cell = req_cell inst tid in
  let w = Region.load inst.region cell in
  if w.Word.v = seq then
    if Region.cas1 inst.region cell w (Word.make (seq + 1) w.Word.s) then
      Telemetry.tick inst.c_recycles

(* ------------------------------------------------------------------ *)
(* Sorted redo logs, chunks and the one apply routine

   Every redo log is published sorted by address ([publish_log]), so the
   entries of one cache line sit next to each other and a write-back
   pass flushes each line exactly once by comparing it with the previous
   entry's line.  A log is cut into chunks of [chunk_len] entries, the
   end of each moved forward to the next cache-line boundary
   ([chunk_start]), so no line spans two chunks.

   A WF aggregator's log of more than one chunk is applied
   cooperatively (DESIGN.md §2 item 10): per chunk, one volatile word
   [chunk_st.(k)] holds [2 seq] once some thread claimed chunk [k] of
   commit [seq] and [2 seq + 1] once it is done.  The words only grow,
   so a word left by an earlier commit reads as unclaimed; recovery
   resets them, because a sequence lost in a crash is reused.  The
   aggregator and every helper claim chunks, apply their puts, write
   back their lines and then mark them done; each then waits for the
   chunks others claimed ([apply]).  Chunk 0 is claimed only after a
   curTx write-back — the aggregator's, or that of a helper that
   presumes it stalled — which spares the other helpers theirs ([put]).
   Every other log — an LF commit's, or one of at most [chunk_len]
   entries — counts as one chunk, chunk 0: its owner applies it whole,
   the single pass the paper describes, and a helper claims its chunks
   only once it presumes the owner stalled ([help]). *)

(* Logs the WF aggregator splits: those of more than one chunk.  Keeping
   logs of two chunks whole takes hotpath OF-WF update-8w, whose
   16-entry aggregates split in two, from 43.35 to 45.95 ops/kround,
   but raises pwb/tx in 10 of the shards figure's 16 WF cells (2.79 ->
   3.17 at 4 shards, 0% cross) and changes nothing on wf-kv-write
   (EXPERIMENTS.md, "A WF commit persists only what changed"). *)
let splits n = n > chunk_len

(* The redo-log sort: an LSD radix sort of packed keys on their address
   part, [radix_bits] bits per pass, so the region's address width
   ([addr_bits]) takes 4-5 passes; [buf] is the values array, [count] a
   per-thread array of 16 counters.  No allocation and O(n) per pass.
   Small digits keep the sort of a 3-entry transfer's log cheap; an
   in-place heapsort, the first version, took a set-up of 80 commits of
   260-514 entries from 13.5 to 19.4 ms, and 8-bit digits cost
   shard-local 10-15% of its cpu_ops_per_s (EXPERIMENTS.md, "WF helpers
   split the apply"). *)
(* flowlint: bounded shift grows by radix_bits at every call and the recursion stops once it reaches stop *)
let rec radix_passes ~keys src dst count ~n ~shift ~stop =
  if shift >= stop then begin
    if src != keys then Array.blit src 0 keys 0 n
  end
  else begin
    let digits = Array.length count in
    Array.fill count 0 digits 0;
    for i = 0 to n - 1 do
      let d = (src.(i) lsr shift) land (digits - 1) in
      count.(d) <- count.(d) + 1
    done;
    let sum = ref 0 in
    for d = 0 to digits - 1 do
      let c = count.(d) in
      count.(d) <- !sum;
      sum := !sum + c
    done;
    for i = 0 to n - 1 do
      let k = src.(i) in
      let d = (k lsr shift) land (digits - 1) in
      dst.(count.(d)) <- k;
      count.(d) <- count.(d) + 1
    done;
    radix_passes ~keys dst src count ~n ~shift:(shift + radix_bits) ~stop
  end

(* Copy [ws] into [addrs]/[vals] sorted by address.  The sort moves one
   packed key per entry, its address above its write-set position
   ([idx_bits]), and the values are fetched by position afterwards. *)
let sort_log inst ~me (ws : Writeset.t) addrs vals =
  let n = Writeset.size ws in
  for i = 0 to n - 1 do
    addrs.(i) <- (Writeset.addr_at ws i lsl idx_bits) lor i
  done;
  radix_passes ~keys:addrs addrs vals inst.sort_count.(me) ~n ~shift:idx_bits
    ~stop:(idx_bits + inst.addr_bits);
  let mask = (1 lsl idx_bits) - 1 in
  for j = 0 to n - 1 do
    let k = addrs.(j) in
    addrs.(j) <- k lsr idx_bits;
    vals.(j) <- Writeset.val_at ws (k land mask)
  done

(* flowlint: bounded i strictly increases to n *)
let rec past_line addrs ~n i =
  if i < n && Region.line_of addrs.(i) = Region.line_of addrs.(i - 1) then
    past_line addrs ~n (i + 1)
  else i

(* The first entry of chunk [k] of a sorted [n]-entry log: entry
   [k * chunk_len], moved past the entries on the line of the entry
   before it; [chunk_start addrs ~n (nchunks n)] is [n].  It reads
   [addrs] from entry [k * chunk_len - 1] up to the result only. *)
let chunk_start addrs ~n k =
  if k = 0 then 0 else past_line addrs ~n (min n (k * chunk_len))

(* A claim is one read, plus one CAS when the chunk is unclaimed for
   [seq]; a missed CAS means another thread claimed it. *)
let claim_chunk inst ~seq k =
  let cell = inst.chunk_st.(k) in
  let w = Satomic.get cell in
  w < 2 * seq && Satomic.compare_and_set cell w (2 * seq)

(* done for [seq], or a later commit's word, which [seq]'s close precedes *)
let chunk_done inst ~seq k = Satomic.get inst.chunk_st.(k) > 2 * seq

(* The done mark is a CAS: it follows the chunk's write-backs the way the
   owner's close CAS follows its own (DESIGN.md §6).  The blind CAS from
   the claimed word is the claimer's case; a thread that applied a chunk
   another thread claimed raises the word from whatever it holds. *)
let mark_done inst ~seq k =
  let cell = inst.chunk_st.(k) in
  if not (Satomic.compare_and_set cell (2 * seq) ((2 * seq) + 1)) then
    cas_max cell ((2 * seq) + 1)

(* Puts of entries [lo, hi) of commit [seq], in ascending address
   order. *)
let put_range inst ~me ~signal ~seq ~cap addrs vals ~lo ~hi =
  for i = lo to hi - 1 do
    put inst ~me ~signal ~seq ~cap addrs.(i) vals.(i)
  done

(* The write-back pass over the sorted entries [lo, hi): one pwb per
   cache line, since a line's entries are adjacent and comparing with the
   previous entry's line flushes each line once.  The planted
   [stale_dedup_flush] starts it with its own first line marked as
   already written back. *)
let write_back inst addrs ~lo ~hi =
  let stale = inst.faults.stale_dedup_flush && lo < hi in
  let last = ref (if stale then Region.line_of addrs.(lo) else -1) in
  for i = lo to hi - 1 do
    let line = Region.line_of addrs.(i) in
    if line <> !last then Region.pwb inst.region addrs.(i);
    last := line
  done

(* Copy into [addrs]/[vals], at their log positions, the entries of
   [tid]'s log from [i] on: up to entry [past], and then while an entry
   shares the line of the one before it — so [chunk_start] of the chunk
   that ends at [past] is known. *)
(* flowlint: bounded i strictly increases to n *)
let rec copy_entries inst ~tid ~n ~past addrs vals i =
  if i < n then begin
    let e = Region.load inst.region (entry_cell inst tid i) in
    addrs.(i) <- e.Word.v;
    vals.(i) <- e.Word.s;
    if i < past || Region.line_of addrs.(i) = Region.line_of addrs.(i - 1) then
      copy_entries inst ~tid ~n ~past addrs vals (i + 1)
  end

(* Apply chunk [k] of commit [seq] of [tid]'s [n]-entry log.  The owner's
   [addrs]/[vals] hold its whole sorted log; a helper first copies the
   entries that fix the chunk's bounds and re-reads the request, which
   validates the copy (an open request's log is not recycled), and
   returns [false] if it closed.  Then the puts, with chunk 0's claim as
   the curTx signal ([put]), the write-back of the chunk's lines, and the
   done mark. *)
let run_chunk inst ~me ~tid ~seq ~n ~cap ~owner addrs vals k =
  (owner
  ||
  (copy_entries inst ~tid ~n ~past:((k + 1) * chunk_len) addrs vals
     (max 0 ((k * chunk_len) - 1));
   not (req_closed inst ~tid ~seq)))
  &&
  let lo = chunk_start addrs ~n k and hi = chunk_start addrs ~n (k + 1) in
  let signal = if inst.faults.early_curtx_signal then k else 0 in
  put_range inst ~me ~signal ~seq ~cap addrs vals ~lo ~hi;
  let early = inst.faults.early_chunk_done in
  if early then mark_done inst ~seq k;
  write_back inst addrs ~lo ~hi;
  if not early then mark_done inst ~seq k;
  true

(* [start]'s [i]-th successor in the ring of chunks [first, nc) *)
let nth_chunk ~first ~nc start i =
  if start + i >= nc then start + i - nc + first else start + i

(* Claim and run every chunk of [first, nc) still unclaimed, from chunk
   [start] round. *)
(* flowlint: bounded i strictly increases to nc - first *)
let rec claim_pass inst ~me ~tid ~seq ~n ~first ~nc ~cap ~owner addrs vals
    start i =
  if i >= nc - first then true
  else
    let k = nth_chunk ~first ~nc start i in
    if
      claim_chunk inst ~seq k
      && not (run_chunk inst ~me ~tid ~seq ~n ~cap ~owner addrs vals k)
    then false
    else
      claim_pass inst ~me ~tid ~seq ~n ~first ~nc ~cap ~owner addrs vals start
        (i + 1)

(* A thread that waits on another thread polls at most this many times
   per wait before it goes on without it:
   - the WF election ([elect]), per operation: loop iterations of six
     steps each;
   - an LF claim loser ([wait_claim]), per attempt: one budget of curTx
     reads while the claim's winner has not committed, then a fresh one
     of reads of the winning commit's request while it is open;
   - a helper of a running owner's one-chunk log ([help]): reads of its
     request;
   - the chunk wait of a split apply ([wait_pass]), per applier and
     commit: reads of a chunk word that another thread claimed.
   tx.waits counts the polls that found the wait going on,
   tx.wait_timeouts the waits that spent the budget.  64 is the smallest
   budget at the knee of the WF workloads whose closures touch a few
   words: there the elected aggregator commits within it.  A list
   closure walks tens of nodes, so an aggregate of several outlasts any
   of the budgets swept, and there a longer one cuts the share of waits
   that spend it but not the throughput, and lengthens the wait bound
   (DESIGN.md §5).  At 64, tx.wait_timeouts reads 0 on wf-kv-write,
   lf-list-read90 and shard-local, and 9 in 198502 lost claims on
   shard-cross (benchmark/run.exe --seconds 10, seed 1).  The sweeps are
   in EXPERIMENTS.md ("One wait, and the count in the request word"). *)
let claim_budget = 64

(* The one poll loop: load [addr] while its [v] still reads [v], at most
   [budget] times, and return the word it read last — [v] unmoved when
   the budget is spent. *)
(* flowlint: bounded budget strictly decreases to 1, where the wait ends *)
let rec wait_while inst addr v budget =
  let w = Region.load inst.region addr in
  if w.Word.v <> v then w
  else begin
    Telemetry.tick inst.c_waits;
    if budget <= 1 then begin
      Telemetry.tick inst.c_wait_timeouts;
      w
    end
    else wait_while inst addr v (budget - 1)
  end

(* Wait for the chunks that other threads claimed, from chunk [start]
   round, on one [budget] of polls; once it is spent, run every chunk
   still not done.  [false] when a helper found the request closed. *)
(* flowlint: bounded each call advances i towards nc or spends one unit of budget, and at 0 budget it advances i *)
let rec wait_pass inst ~me ~tid ~seq ~n ~nc ~cap ~owner addrs vals start i
    budget =
  if i >= nc then true
  else
    let k = nth_chunk ~first:0 ~nc start i in
    if chunk_done inst ~seq k then
      wait_pass inst ~me ~tid ~seq ~n ~nc ~cap ~owner addrs vals start (i + 1)
        budget
    else if budget > 0 then begin
      Telemetry.tick inst.c_waits;
      if budget = 1 then Telemetry.tick inst.c_wait_timeouts;
      wait_pass inst ~me ~tid ~seq ~n ~nc ~cap ~owner addrs vals start i
        (budget - 1)
    end
    else
      run_chunk inst ~me ~tid ~seq ~n ~cap ~owner addrs vals k
      && wait_pass inst ~me ~tid ~seq ~n ~nc ~cap ~owner addrs vals start
           (i + 1) 0

(* Where an applier of [tid]'s commit starts among chunks [first, nc):
   the owner ([me = tid]) at [first], a helper spread by its tid
   distance. *)
let spread inst ~me ~tid ~first nc =
  let mt = inst.max_threads in
  first + ((me - tid + mt) mod mt * (nc - first) / mt)

(* The one apply routine, for the [owner] of commit [seq] ([tid = me],
   [addrs]/[vals] holding its sorted log) and for its helpers.  The owner
   of a one-chunk log applies it whole.  Otherwise the log is claimed
   chunk by chunk, then waited for; the owner starts at chunk 0 and a
   helper at a chunk spread by its tid distance from the owner.  Only a
   thread whose stamp shows curTx written back for [seq] claims chunk 0,
   the curTx signal ([put]); any other helper claims from chunk 1 and
   applies chunk 0 only once its wait for it spends the budget.  Puts
   run in ascending address order.  Returns [true] when every entry is
   applied and written back, by this thread or by the threads whose
   chunks it waited for; a helper returns [false] when it found the
   request closed, which its closer did only after that. *)
let apply inst ~me ~tid ~seq ~n ~split ~owner addrs vals =
  let cap = decide_capture inst ~seq in
  if owner && not split then begin
    put_range inst ~me ~signal:0 ~seq ~cap addrs vals ~lo:0 ~hi:n;
    write_back inst addrs ~lo:0 ~hi:n;
    true
  end
  else
    let nc = nchunks n
    and first = if inst.curtx_stamp.(me) >= seq then 0 else 1 in
    let start = spread inst ~me ~tid ~first nc in
    claim_pass inst ~me ~tid ~seq ~n ~first ~nc ~cap ~owner addrs vals start 0
    && wait_pass inst ~me ~tid ~seq ~n ~nc ~cap ~owner addrs vals start 0
         claim_budget

(* Help the committed-but-possibly-unapplied transaction [ct], applying
   nothing a running owner holds: chunk 0 of a split log ([apply]), or
   the whole of a one-chunk log, whose request the helper polls for one
   [claim_budget] ([wait_while]), returning at the close.  Once that
   budget is spent, or when the caller [waited] it out already (an LF
   claim loser, or recovery, which has no owner), the helper presumes the
   owner stalled: it writes curTx back and claims chunks from chunk 0, so
   the helpers of a stalled owner split its log instead of racing over
   it.  The request word, the helper's first load, carries the log's
   count and split bit.  The helper closes the request once the whole
   log is applied. *)
let help inst ~me ?(waited = false) (ct : Word.t) =
  let region = inst.region in
  let tid = ct.Word.s and seq = ct.Word.v in
  let cell = req_cell inst tid in
  let req = Region.load region cell in
  let split = req.Word.s land 1 = 1 in
  if
    req.Word.v = seq
    && (split || waited || (wait_while inst cell seq claim_budget).Word.v = seq)
  then begin
    let stalled = waited || not split in
    (* the planted [skip_help_curtx_pwb]: a helper takes its stamp as set *)
    if inst.faults.skip_help_curtx_pwb then
      inst.curtx_stamp.(me) <- max seq inst.curtx_stamp.(me);
    if stalled && inst.curtx_stamp.(me) < seq then begin
      Region.pwb region curtx_cell;
      inst.curtx_stamp.(me) <- seq
    end;
    if tid <> me then begin
      (stats inst).Pstats.helps <- (stats inst).Pstats.helps + 1;
      Telemetry.tick inst.c_helps
    end;
    if
      apply inst ~me ~tid ~seq ~n:(log_len req) ~split ~owner:false
        inst.scratch_addrs.(me) inst.scratch_vals.(me)
    then close_request inst ~tid ~seq
    else begin
      (stats inst).Pstats.help_exits <- (stats inst).Pstats.help_exits + 1;
      Telemetry.tick inst.c_help_exits
    end
  end;
  (* every exit above means [seq] is fully applied: either this thread ran
     the apply to completion, or whoever closed the request did first *)
  stable_bump inst.vst seq

(* Raise [ro_stable] to at least [seq] (a commit sequence that already
   won its CAS) before an update returns: a later snapshot reader must
   pin an epoch that includes it (strict serializability).  One pass
   suffices — curTx open at a later sequence proves [seq] applied (the
   commit CAS requires the predecessor closed), curTx open at [seq]
   itself is finished by helping, and a closed curTx is applied. *)
let ensure_stable inst ~me seq =
  if Satomic.get inst.vst.ro_stable < seq then begin
    let ct = read_curtx inst in
    if is_open inst ct then begin
      if ct.Word.v <= seq then help inst ~me ct
      else stable_bump inst.vst (ct.Word.v - 1)
    end
    else stable_bump inst.vst ct.Word.v
  end

(* Write the redo log, sorted by address, into this thread's persistent
   log area and open the request; one pwb per covered cache line, no
   fence (the commit CAS acts as the persistence fence, §III-D).  The
   sorted copy stays in this thread's scratch arrays for its own apply.
   The request word's [s] carries the entry count and [split] (1: the
   log is applied chunk by chunk), so a helper's one load of it tells it
   how to apply the log ([help]).

   The request cell is flushed BEFORE the log is overwritten: closing a
   request (close_request) is volatile, so without this pwb the durable
   request can still read "open at seq S" while we overwrite the entries
   for a later transaction — and a crash whose eviction persists some of
   the new entries but not the request cell would make null recovery
   re-apply a torn, mixed log at seq S.  Found by the Tmcheck sanitizer
   (close-before-applied fired during post-crash recovery).  The first
   three entries share the request's line, so only an old and a new log
   that both reach a second line can tear. *)
(* flowlint: preflush the durable request cell must be written back before the log overwrite; see the comment above (PR 1 torn-log hole) *)
let publish_log inst ~me (ws : Writeset.t) ~seq ~split =
  let region = inst.region in
  let base = req_cell inst me in
  if not inst.faults.drop_publish_pwb then Region.pwb region base;
  let n = Writeset.size ws in
  let addrs = inst.scratch_addrs.(me) and vals = inst.scratch_vals.(me) in
  sort_log inst ~me ws addrs vals;
  for i = 0 to n - 1 do
    Region.store region (base + 1 + i) (Word.make addrs.(i) vals.(i))
  done;
  let req = Word.make seq ((2 * n) + if split then 1 else 0) in
  inst.req_word.(me) <- req;
  Region.store region base req;
  Region.pwb_range region base (n + 1)

(* ------------------------------------------------------------------ *)
(* Attempt bookkeeping and the commit, shared by all transactions      *)

(* Ready slot [tx] for one attempt at snapshot [start_seq], dropping any
   epoch a fiber abandoned mid-snapshot-read left on the slot. *)
let begin_attempt inst tx ~read_only start_seq =
  tx.start_seq <- start_seq;
  tx.read_only <- read_only;
  tx.snap_epoch <- -1;
  if not read_only then Writeset.clear tx.ws;
  with_chk inst.checker (fun c -> Tmcheck.tx_begin c ~read_only ~start_seq)

let abort inst =
  with_chk inst.checker Tmcheck.tx_abort;
  let st = stats inst in
  st.Pstats.aborts <- st.Pstats.aborts + 1;
  Telemetry.tick inst.c_aborts

(* an attempt that ends without writing anything *)
let ro_end inst =
  with_chk inst.checker (fun c -> Tmcheck.tx_end c ~committed:None);
  Telemetry.tick inst.c_ro_commits

(* Commit the write-set of an update attempt begun at the closed curTx
   [ct] — WF commits its aggregated write-set the same way (§III-E):
   publish the redo log, CAS curTx to the next sequence, then persist
   curTx, apply and close the request.  With [may_split] (the WF
   aggregator) a log of more than one chunk is applied chunk by chunk
   with the helpers, and the apply returns only once every chunk is done.
   The close is one CAS from the request word [publish_log] stored: it
   fails, changing nothing, when a helper closed the request first.
   Returns whether the commit CAS won; a lost CAS aborts the attempt. *)
(* flowlint: bounded only the planted stale_commit_snapshot fault recurses, and only after a lost CAS, i.e. after another commit advanced curTx *)
let rec commit inst ~me ~may_split tx ct =
  let ct = if inst.faults.stale_commit_snapshot then read_curtx inst else ct in
  let seq = ct.Word.v + 1 in
  let n = Writeset.size tx.ws in
  let split = may_split && splits n in
  publish_log inst ~me tx.ws ~seq ~split;
  if Region.cas1 inst.region curtx_cell ct (Word.make seq me) then begin
    with_chk inst.checker (fun c -> Tmcheck.tx_end c ~committed:(Some seq));
    Region.pwb inst.region curtx_cell;
    inst.curtx_stamp.(me) <- seq;
    ignore
      (apply inst ~me ~tid:me ~seq ~n ~split ~owner:true inst.scratch_addrs.(me)
         inst.scratch_vals.(me));
    let req = inst.req_word.(me) in
    if Region.cas1 inst.region (req_cell inst me) req (Word.make (seq + 1) req.Word.s)
    then Telemetry.tick inst.c_recycles;
    stable_bump inst.vst seq;
    let st = stats inst in
    st.Pstats.commits <- st.Pstats.commits + 1;
    Telemetry.tick inst.c_commits;
    true
  end
  else if inst.faults.stale_commit_snapshot then
    (* the planted lost update retries blindly: the same write-set,
       re-published at the current curTx *)
    commit inst ~me ~may_split tx ct
  else begin
    abort inst;
    false
  end

(* ------------------------------------------------------------------ *)
(* Allocator interposition                                              *)

(* The allocator's own free-list traffic is exempt from the sanitizer's
   heap-access rule; bracket it so only user-level accesses are checked. *)
let in_allocator tx f =
  match !(tx.txchk) with
  | None -> f ()
  | Some c ->
      Tmcheck.alloc_enter c;
      Fun.protect ~finally:(fun () -> Tmcheck.alloc_exit c) f

let alloc tx n =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  let payload = in_allocator tx (fun () -> Tm.Tm_alloc.alloc tx.txalloc tx.ops n) in
  with_chk tx.txchk (fun c ->
      Tmcheck.note_alloc c ~payload ~cells:(Tm.Tm_alloc.block_cells n - 1));
  payload

let free tx a =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  with_chk tx.txchk (fun c -> Tmcheck.note_free c ~payload:a);
  in_allocator tx (fun () -> Tm.Tm_alloc.free tx.txalloc tx.ops a)

let root inst i =
  if i < 0 || i >= inst.num_roots then invalid_arg "root";
  inst.roots_base + i

let num_roots inst = inst.num_roots
let region inst = inst.region

(* ------------------------------------------------------------------ *)
(* Wait-free snapshot reads (DESIGN.md §13)                            *)

(* Publish a read epoch for the calling thread and return it: three
   steps, no loop, no curTx access.  The era is published between the
   two ro_stable reads; see [refresh_floor] for why the returned epoch
   is always protected.  The mirror is written BEFORE the era is
   published: a fiber abandoned between the two leaves a mirror with no
   era behind it, which the orphan release clears harmlessly; the
   opposite order would leak an unreleasable pin. *)
let pin_epoch inst ~me =
  let vst = inst.vst in
  (* planted fault: pin the raw curTx sequence, which may still be
     mid-apply — the reader then mixes pre- and post-transaction words *)
  let stale = inst.faults.stale_ro_snapshot in
  let e = if stale then (read_curtx inst).Word.v else Satomic.get vst.ro_stable in
  vst.pin_mine.(me) <- e;
  Hazard_eras.set_era inst.he e;
  if stale then e else Satomic.get vst.ro_stable

(* Pin a snapshot epoch, registering the slot as a reader first if it is
   not registered (DESIGN.md §13).  Registration raises the era-scan
   watermark before anything is published (see [refresh_floor]'s
   ordering proof), then counts the slot in [capst] with one
   fetch-and-add; every apply pass deciding after that captures.  The
   fetch-and-add's result carries [nocap], the newest commit some pass
   applied without capture before the count landed: if it lies beyond
   the pinned epoch, finish it and pin again past it.  A slot already
   registered (state 2) just pins — it has kept every later pass
   capturing.  A slot in state 1 is a registration abandoned by a kill
   after its count landed: it reuses that count, re-reads [nocap] (the
   word still carries every skip that preceded the count) and redoes
   the handshake.  The count change and its state store run with no
   scheduling step between them, and a killed fiber is dropped only at a
   step point, which comes before the atomic op, so no kill leaks a
   count. *)
let snap_pin inst =
  let vst = inst.vst in
  let me = Sched.self () in
  let st = vst.regst.(me) in
  let r =
    if st = 2 then pin_epoch inst ~me
    else begin
      let c =
        if st = 0 then begin
          cas_max vst.pin_watermark (me + 1);
          let c = Satomic.fetch_and_add vst.capst 1 in
          vst.regst.(me) <- 1;
          c
        end
        else Satomic.get vst.capst
      in
      let nc = if inst.faults.skip_nocap then 0 else cap_nocap c in
      let r = pin_epoch inst ~me in
      let r =
        if nc > r then begin
          ensure_stable inst ~me nc;
          pin_epoch inst ~me
        end
        else r
      in
      vst.regst.(me) <- 2;
      r
    end
  in
  Telemetry.tick inst.c_ro_pins;
  r

let unpin inst =
  Hazard_eras.clear inst.he;
  (* mirror cleared AFTER the era: the plain write runs in the same
     scheduling quantum as the clear, so no abandonment gap exists here *)
  inst.vst.pin_mine.(Sched.self ()) <- 0

(* Release the era pin of a fiber that was abandoned mid-snapshot-read
   on this thread slot (the simulation's stand-in for a killed thread):
   the stale pin would hold [pin_floor] down forever.  The [pin_mine]
   mirror makes the common no-orphan case a plain read — zero steps. *)
let release_orphan_pin inst ~me =
  if inst.vst.pin_mine.(me) <> 0 then unpin inst

(* End the slot's reader registration: until it pins again, apply passes
   on this instance need not capture for it.  The decrement and the
   state store run in one scheduling quantum (see [snap_pin]). *)
let deregister inst ~me =
  let vst = inst.vst in
  if vst.regst.(me) <> 0 then begin
    Satomic.decr vst.capst;
    vst.regst.(me) <- 0
  end

(* The unpin of [snapshot_ops]: a pin taken through the exported
   primitives (the router's cross-shard reads) stays visible to writers
   only until it is released.  [snap_read_tx] keeps its registration
   instead, until the slot's next update here. *)
let snap_unpin inst =
  unpin inst;
  deregister inst ~me:(Sched.self ())

(* flowlint: ok unpinned-snapshot-load instance-level resolver for Tm_shard, whose cross-shard driver pins every shard before loading *)
let snap_load inst epoch addr =
  snap_resolve ~region:inst.region ~chk:inst.checker inst.vst epoch addr

(* The wait-free read-only fast path: pin an epoch, run the closure
   against that frozen snapshot, unpin.  Zero aborts, zero restarts,
   bounded steps; pwbs only when a fresh registration finishes an
   uncaptured commit ([snap_pin]) — write churn never touches it
   otherwise.  The registration outlives the unpin: it ends at the
   slot's next update transaction here, so a slot that keeps reading
   registers once. *)
let snap_read_tx inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  let r = snap_pin inst in
  begin_attempt inst tx ~read_only:true r;
  tx.snap_epoch <- r;
  match f tx with
  | exception e ->
      tx.snap_epoch <- -1;
      with_chk inst.checker Tmcheck.tx_abort;
      unpin inst;
      raise e
  | v ->
      tx.snap_epoch <- -1;
      ro_end inst;
      (* a telemetry sample, step-free whether or not a registry is
         attached, so the traced and untraced schedules stay identical *)
      Telemetry.observe inst.s_ro_lag (Satomic.get_relaxed inst.vst.ro_stable - r);
      unpin inst;
      v

let snapshot_ops = { Tm.Tm_intf.snap_pin; snap_load; snap_unpin }

(* The pre-snapshot validating read path (§III-B, §III-E), kept as the
   comparison baseline for --figure readmix: optimistic reads against
   curTx, helping and restarting on conflict.  LF passes no [fallback]
   and restarts without bound; WF's runs once [read_tries] attempts
   have aborted. *)
let validating_read inst ~fallback f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  release_orphan_pin inst ~me;
  (* flowlint: bounded without a fallback (LF) a retry happens only when another transaction committed in the meantime (curtx advanced), which is global progress; with one (WF) k strictly decreases to it *)
  let rec attempt k =
    match fallback with
    | Some fallback when k <= 0 -> fallback inst f
    | _ ->
        let ct = read_curtx inst in
        if is_open inst ct then begin
          help inst ~me ct;
          attempt k
        end
        else begin
          begin_attempt inst tx ~read_only:true ct.Word.v;
          match f tx with
          | exception Abort ->
              abort inst;
              attempt (k - 1)
          | r ->
              ro_end inst;
              r
        end
  in
  attempt inst.read_tries

(* ------------------------------------------------------------------ *)
(* The commit claim, shared by LF commits and the WF election          *)

(* What a thread about to commit at a closed curTx finds in the claim. *)
type claim = Claimed | Held | Lost

(* Claim commit [ct + 1] at the closed curTx [ct]: one volatile word
   names the thread that commits it.  The first step is one blind CAS
   from [(ct lsl 8) lor tid], the word the committer of [ct] leaves,
   since it claimed [ct] and curTx names it.  Failing that, the word is
   read: a claim on an older sequence is taken with one CAS ([Lost] when
   that CAS misses); our own claim on [ct + 1] (an earlier attempt of
   ours at [ct]) is [Claimed]; another thread's is [Held]; a newer
   sequence means curTx moved since [ct] was read ([Lost]).  The claim
   only decides who writes a redo log: every commit still goes through
   the curTx CAS. *)
let claim_commit inst ~me (ct : Word.t) =
  let seq = ct.Word.v + 1 in
  let mine = (seq lsl 8) lor me in
  if Satomic.compare_and_set inst.claim ((ct.Word.v lsl 8) lor ct.Word.s) mine
  then begin
    Telemetry.tick inst.c_claims;
    Claimed
  end
  else
    let c = Satomic.get inst.claim in
    if claim_seq c < seq then
      if Satomic.compare_and_set inst.claim c mine then begin
        Telemetry.tick inst.c_claims;
        Claimed
      end
      else Lost
    else if claim_seq c > seq then Lost
    else if claim_tid c = me then Claimed
    else Held

(* ------------------------------------------------------------------ *)
(* Lock-free transactions (§III-B)                                     *)

let lf_read_tx = snap_read_tx
let lf_read_tx_validating inst f = validating_read inst ~fallback:None f

(* The wait of an LF updater that did not get the claim on [ct + 1]: it
   has published nothing.  Phase one polls curTx while it still names
   [ct]; a spent budget returns [ct] itself, and the caller then
   publishes and races for the CAS as the paper does.  Once curTx moved,
   the attempt aborts (its commit CAS would have failed) and phase two
   polls the new commit's request while it is open, on a fresh budget.
   Returns that commit, closed: the loser retries at it with no curTx
   load.  A spent second budget means the winner stalled or died
   mid-apply; the loser then helps, which closes the commit too.  The
   planted [early_retry] skips phase two. *)
let wait_claim inst ~me (ct : Word.t) =
  let cur = wait_while inst curtx_cell ct.Word.v claim_budget in
  if cur.Word.v <> ct.Word.v then begin
    abort inst;
    let cell = req_cell inst cur.Word.s in
    if
      (not inst.faults.early_retry)
      && (wait_while inst cell cur.Word.v claim_budget).Word.v = cur.Word.v
    then help inst ~me ~waited:true cur
  end;
  cur

(* Only the thread that will commit writes a redo log: an updater whose
   closure left a write-set claims the commit ([claim_commit]) before it
   publishes, and a claim loser waits in [wait_claim] until the winner's
   commit closes and retries at it.  Each phase of the wait polls for at
   most one [claim_budget], so a claimer killed between its claim and its
   CAS, or mid-apply, delays each attempt of a waiter by at most two
   budgets of polls: LF stays lock-free.

   [ro_stable] is raised by each return that reads without committing,
   and by a raise of the closure; a committing attempt is covered by
   [commit]'s bump after its close (DESIGN.md §13). *)
let lf_update_tx inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  let t0 = Sched.now () in
  release_orphan_pin inst ~me;
  deregister inst ~me;
  (* flowlint: bounded lock-free path: a retry happens only when another transaction committed in the meantime (curtx advanced), which is global progress, or after a claim loser's wait, which ends after at most claim_budget reads of curtx and claim_budget reads of the winner's request *)
  let rec attempt ~closed (ct : Word.t) =
    if (not closed) && is_open inst ct then begin
      stable_bump inst.vst (ct.Word.v - 1);
      help inst ~me ct;
      attempt ~closed:false (read_curtx inst)
    end
    else begin
      begin_attempt inst tx ~read_only:false ct.Word.v;
      match f tx with
      | exception Abort ->
          abort inst;
          attempt ~closed:false (read_curtx inst)
      | exception e ->
          (* a raise is the caller's result, read at [ct] *)
          stable_bump inst.vst ct.Word.v;
          raise e
      | result ->
          if Writeset.is_empty tx.ws then begin
            stable_bump inst.vst ct.Word.v;
            ro_end inst;
            result
          end
          else
            (* where this attempt goes on: [ct] to commit now, or the
               closed curTx a claim loser waited for, to retry at *)
            let next =
              (* the planted lost update commits from the current curTx:
                 it ignores the claim, whose verdict would otherwise send
                 a stale attempt back to retry, as well as the snapshot *)
              if inst.faults.stale_commit_snapshot then ct
              else
                match claim_commit inst ~me ct with
                | Claimed -> ct
                | Held | Lost -> wait_claim inst ~me ct
            in
            if next.Word.v <> ct.Word.v then attempt ~closed:true next
            else if commit inst ~me ~may_split:false tx ct then begin
              Telemetry.observe inst.s_latency (Sched.now () - t0 + 1);
              result
            end
            else attempt ~closed:false (read_curtx inst)
    end
  in
  attempt ~closed:false (read_curtx inst)

(* ------------------------------------------------------------------ *)
(* Wait-free transactions (§III-E)                                     *)

(* Run the published operation [d] of slot [u] inside [tx]: its closure,
   then its result and the opid acknowledgment that marks it committed,
   both written to the owner's cells transactionally.

   Deviation from the paper: the paper detects completion by comparing the
   sequence numbers of the operation and result TMTypes.  When a killed
   process is replaced by one reusing its thread slot, two publications can
   carry the same sequence tag and a laggard helper could complete the old
   operation in a way the seq comparison attributes to the new one.  An
   explicit opid acknowledgment cell (opids are globally unique) makes the
   routing exact; the cost is one extra modified word per operation,
   reported as such by the cost-table benchmark.  The paper's operation
   TMType has no durable counterpart here: the announcement lives in
   [pending], which recovery empties anyway. *)
let run_op inst tx u d =
  Telemetry.tick inst.c_wf_aggregated;
  let r = d.fn tx in
  store tx (res_cell inst u) r;
  store tx (ack_cell inst u) d.opid

(* Execute every published-but-unacknowledged operation inside [tx]: per
   slot, its [pending] announcement, then (for a [Published] one) its
   acknowledgment at the snapshot.  Only slots below the publication
   watermark are scanned: an operation published after the watermark
   read counts as published after its slot was scanned.  A closure that
   raises its own error, or overflows the combined write-set, must not
   reach other threads: its slot is marked [Solo], left to its owner,
   and this attempt aborts.  [Abort], a sanitizer verdict and fatal
   runtime errors pass through unchanged. *)
let aggregate inst tx =
  let wm = Satomic.get inst.pub_watermark in
  for u = 0 to wm - 1 do
    match Satomic.get inst.pending.(u) with
    | Published d as p when load tx (ack_cell inst u) <> d.opid -> (
        (match !(inst.checker) with
        | Some c -> Tmcheck.closure_exec c ~opid:d.opid ~freed:d.freed
        | None ->
            if d.freed then
              failwith "OneFile-WF: hazard-era violation (freed closure)");
        match run_op inst tx u d with
        | () -> ()
        | exception
            ((Abort | Tmcheck.Violation _ | Out_of_memory | Stack_overflow) as e)
          ->
            raise e
        | exception _ ->
            ignore (Satomic.compare_and_set inst.pending.(u) p (Solo d));
            raise Abort)
    | Empty | Published _ | Solo _ -> ()
  done

(* What a thread whose operation is unacknowledged does at a closed curTx. *)
type turn =
  | Run (* aggregate and commit at this curTx *)
  | Wait (* another thread aggregates this commit: spend one iteration *)
  | Reread (* the claim moved under us: loop without spending budget *)
  | Alone (* our operation became [Solo]: cancel it, then run it alone *)

(* The aggregator election at the closed curTx [ct]: the claim on
   [ct + 1] ([claim_commit]) names the thread that aggregates it.  A
   claim held by another thread is waited on while [budget] lasts; a
   spent budget aggregates as the paper does.  A lost claim re-reads
   without spending budget. *)
let elect inst ~me ~budget (ct : Word.t) =
  match Satomic.get inst.pending.(me) with
  | Solo _ -> Alone
  | Empty | Published _ -> (
      match claim_commit inst ~me ct with
      | Claimed -> Run
      | Lost -> Reread
      | Held when budget = 0 -> Run
      | Held ->
          Telemetry.tick inst.c_waits;
          if budget = 1 then Telemetry.tick inst.c_wait_timeouts;
          Wait)

(* A published operation is normally committed by the elected aggregator
   of some commit (§III-E, one redo-log flush per commit).  An operation
   marked [Solo] is cancelled first, in one transaction from a fresh
   snapshot: either the operation is already acknowledged — an
   aggregator that read it [Published] committed it, and that result
   stands — or the transaction acknowledges it itself, which moves curTx
   past every aggregate still running it, so none of them can commit it.
   A cancelled operation then runs as an LF transaction: its closure's
   exception reaches only this caller with nothing committed, and a lost
   commit CAS retries — lock-free, not wait-free. *)
let wf_update_tx inst f =
  let me = Sched.self () in
  let tx = inst.txs.(me) in
  let region_ = inst.region in
  let t0 = Sched.now () in
  release_orphan_pin inst ~me;
  deregister inst ~me;
  if not inst.pub_once.(me) then begin
    cas_max inst.pub_watermark (me + 1);
    inst.pub_once.(me) <- true
  end;
  (* publish the operation, volatile only (its "birth era" is the
     sequence of the result word it will overwrite) *)
  let opid = Satomic.fetch_and_add inst.next_opid 1 + 1 in
  let rs = (Region.load region_ (res_cell inst me)).Word.s in
  let d = { opid; fn = f; freed = false } in
  Satomic.set inst.pending.(me) (Published d);
  Telemetry.tick inst.c_wf_published;
  (* reclaim the closure descriptor through hazard eras *)
  let unpublish ~del =
    Satomic.set inst.pending.(me) Empty;
    Hazard_eras.retire_at inst.he ~birth:rs ~del d
  in
  let run_alone () =
    let ack = ack_cell inst me in
    let acked =
      lf_update_tx inst (fun tx ->
          if load tx ack = opid then 1
          else begin
            store tx ack opid;
            0
          end)
    in
    unpublish ~del:(Region.load region_ ack).Word.s;
    Hazard_eras.clear inst.he;
    (* a closed snapshot holding the acknowledgment holds the result too *)
    if acked = 1 then (Region.load region_ (res_cell inst me)).Word.v
    else lf_update_tx inst f
  in
  (* flowlint: bounded the op is published, so every aggregator that starts after a commit following the publication runs it; a thread waits on another's claim for at most claim_budget iterations per operation and re-reads without spending budget only after a claim or commit by another thread; a Solo op leaves the loop for two LF transactions *)
  let rec loop budget =
    let ackw = Region.load region_ (ack_cell inst me) in
    if ackw.Word.v = opid then begin
      (* every applier puts the result, one cell below the
         acknowledgment on its line, before the acknowledgment *)
      let r = (Region.load region_ (res_cell inst me)).Word.v in
      unpublish ~del:ackw.Word.s;
      (* session order for snapshot reads: a snap_read_tx issued by this
         thread after we return must observe this operation's commit *)
      ensure_stable inst ~me ackw.Word.s;
      Telemetry.observe inst.s_latency (Sched.now () - t0 + 1);
      r
    end
    else begin
      let ct = read_curtx inst in
      if is_open inst ct then begin
        stable_bump inst.vst (ct.Word.v - 1);
        help inst ~me ct;
        loop budget
      end
      else
        match elect inst ~me ~budget ct with
        | Wait -> loop (budget - 1)
        | Reread -> loop budget
        | Alone -> run_alone ()
        | Run -> (
            stable_bump inst.vst ct.Word.v;
            begin_attempt inst tx ~read_only:false ct.Word.v;
            Hazard_eras.set_era inst.he ct.Word.v;
            match aggregate inst tx with
            | exception Abort ->
                abort inst;
                loop budget
            | () ->
                (* an empty aggregate commits nothing, not even read-only *)
                if Writeset.is_empty tx.ws then
                  with_chk inst.checker (fun c -> Tmcheck.tx_end c ~committed:None)
                else ignore (commit inst ~me ~may_split:true tx ct);
                loop budget)
    end
  in
  let r = loop claim_budget in
  Hazard_eras.clear inst.he;
  r

let wf_read_tx = snap_read_tx

(* the bounded fallback: publish the read-only function as an operation *)
let wf_read_tx_validating inst f =
  validating_read inst f
    ~fallback:
      (Some
         (fun inst f ->
           Telemetry.tick inst.c_wf_fallbacks;
           wf_update_tx inst f))

(* Debug view of the commit state: (seq, tid, request still open).  Uses
   peeks — no scheduling steps, no counters; safe from an [on_round] hook. *)
let curtx_info inst =
  let ct = Region.peek inst.region curtx_cell in
  let req = Region.peek inst.region (req_cell inst ct.Word.s) in
  (ct.Word.v, ct.Word.s, req.Word.v = ct.Word.v)

(* Debug view of the capture word: (registered readers, nocap).  Step-free
   like [curtx_info]. *)
let capture_info inst =
  let c = Satomic.get_relaxed inst.vst.capst in
  (cap_readers c, cap_nocap c)

(* Debug view of the commit claim: (claimed sequence, claimer tid),
   (0, 0) when none.  Step-free like [curtx_info]. *)
let claim_info inst =
  let c = Satomic.get_relaxed inst.claim in
  (claim_seq c, claim_tid c)

(* Debug view of chunk [k]'s word: (the commit sequence it was last
   claimed for, whether it is done for that sequence); (0, false) when
   never claimed, as after [recover].  Step-free like [curtx_info]. *)
let chunk_info inst k =
  let w = Satomic.get_relaxed inst.chunk_st.(k) in
  (w / 2, w land 1 = 1)

(* Debug view of slot [u]'s WF announcement: whether an operation is
   published there ([Published] or [Solo]).  Step-free like
   [curtx_info]. *)
let published inst u =
  match Satomic.get_relaxed inst.pending.(u) with
  | Empty -> false
  | Published _ | Solo _ -> true

(* Allocator accounting over the quiescent volatile state (no transaction,
   no scheduling steps) — testing/diagnostics only. *)
let allocated_cells inst =
  let ops =
    {
      Tm.Tm_intf.aload = (fun a -> (Region.peek inst.region a).Word.v);
      astore = (fun _ _ -> invalid_arg "allocated_cells is read-only");
    }
  in
  Tm.Tm_alloc.allocated_cells inst.alloc ops

(* ------------------------------------------------------------------ *)
(* Null recovery (§III-D)                                              *)

let recover inst =
  Array.iter (fun tx -> Writeset.clear tx.ws) inst.txs;
  Array.iter (fun p -> Satomic.set p Empty) inst.pending;
  (* closures are not executable after a restart: orphaned published
     operations will never run, but committed ones already have their
     results applied by the help below.  The publication watermark and the
     commit claim are volatile too: a claim left by a killed fiber would
     otherwise delay the next waiter by up to [claim_budget].  So are the
     chunk words, which a reused sequence would find already done.  The curTx
     stamps are cleared too: a sequence lost in the crash is reused after
     it, and a stale stamp would skip that sequence's curTx write-back. *)
  Array.fill inst.pub_once 0 inst.max_threads false;
  Satomic.set inst.pub_watermark 0;
  Satomic.set inst.claim 0;
  Array.iter (fun c -> Satomic.set c 0) inst.chunk_st;
  Array.fill inst.curtx_stamp 0 inst.max_threads 0;
  Telemetry.tick inst.c_rec_runs;
  let ct = read_curtx inst in
  if is_open inst ct then begin
    Telemetry.tick inst.c_rec_helped;
    (* no owner is left to wait for *)
    help inst ~me:0 ~waited:true ct
  end;
  (* The snapshot version store is volatile: rebuild epoch bookkeeping from
     the durable image.  Pre-crash readers are gone, so no era pins or
     shadow versions survive; the recovered state is epoch [ct.v] exactly. *)
  Array.iter (fun c -> Satomic.set c None) inst.vst.vslots;
  Array.iter (fun c -> Satomic.set c []) inst.vst.voverflow;
  Hazard_eras.reset inst.he;
  Array.fill inst.vst.regst 0 (Array.length inst.vst.regst) 0;
  Array.fill inst.vst.pin_mine 0 (Array.length inst.vst.pin_mine) 0;
  Satomic.set inst.vst.pin_watermark 0;
  Satomic.set inst.vst.capst 0;
  Satomic.set inst.vst.ro_stable ct.Word.v;
  Satomic.set inst.vst.pin_floor ct.Word.v;
  Region.pfence inst.region
