(* Cross-shard router tests: structures over Shard.Make unchanged,
   single-shard parallelism, cross-shard transfer conservation under the
   scheduler (with a concurrent consistency observer), allocation
   accounting across shards, and whole-device crash + recovery. *)

open Runtime
module Region = Pmem.Region
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module Sh_wf = Tm.Tm_shard.Make (Wf)
module Sh_lf = Tm.Tm_shard.Make (Lf)
module E = Workloads.Explorer
module Proggen = Workloads.Proggen

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let mk_sharded ?(mode = Region.Persistent) ?(n = 4) ?(span = 4096) () =
  let device = Region.create ~mode (n * span) in
  let views = Region.partition device (List.init n (fun _ -> span)) in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Wf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  (device, Sh_wf.make ~max_threads:8 ~ro_snapshot:Wf.snapshot_ops shards)

let accounts = 8

let init_accounts tm v =
  for i = 0 to accounts - 1 do
    ignore
      (Sh_wf.update_tx tm (fun tx ->
           Sh_wf.store tx (Sh_wf.root tm i) v;
           0))
  done

let total tm =
  Sh_wf.read_tx tm (fun tx ->
      let s = ref 0 in
      for i = 0 to accounts - 1 do
        s := !s + Sh_wf.load tx (Sh_wf.root tm i)
      done;
      !s)

let transfer tm a b d =
  ignore
    (Sh_wf.update_tx tm (fun tx ->
         let ra = Sh_wf.root tm a and rb = Sh_wf.root tm b in
         let va = Sh_wf.load tx ra in
         let vb = Sh_wf.load tx rb in
         Sh_wf.store tx ra (va - d);
         Sh_wf.store tx rb (vb + d);
         0))

(* ------------------------------------------------------------------ *)

let test_structures_over_router () =
  let _dev, tm = mk_sharded () in
  let module L = Structures.Ll_set.Make (Sh_wf) in
  let s = L.create tm ~root:0 in
  for i = 0 to 20 do
    ignore (L.add s i)
  done;
  check int "cardinal" 21 (L.cardinal s);
  check bool "contains" true (L.contains s 13);
  ignore (L.remove s 13);
  check bool "removed" false (L.contains s 13);
  check bool "sorted" true (L.check_sorted s);
  let module Q = Structures.Tm_queue.Make (Sh_wf) in
  let q = Q.create tm ~root:1 in
  for i = 1 to 10 do
    Q.enqueue q i
  done;
  let got = List.init 10 (fun _ -> Q.dequeue q) in
  check (Alcotest.list (Alcotest.option int)) "fifo"
    (List.init 10 (fun i -> Some (i + 1)))
    got

let test_single_shard_parallel () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 0;
  (* worker w increments only account w: accounts 0..3 live on distinct
     shards, so all four workers commit wait-free in parallel *)
  let worker w () =
    for _ = 1 to 25 do
      ignore
        (Sh_wf.update_tx tm (fun tx ->
             let r = Sh_wf.root tm w in
             Sh_wf.store tx r (Sh_wf.load tx r + 1);
             0))
    done
  in
  ignore (Sched.run ~seed:11 (Array.init 4 (fun w () -> worker w ())));
  for w = 0 to 3 do
    let v =
      Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm w))
    in
    check int (Printf.sprintf "account %d" w) 25 v
  done;
  (* every shard committed its own transactions *)
  Array.iter
    (fun sh ->
      let st = Region.stats (Wf.region sh) in
      check bool "shard committed" true (st.Pmem.Pstats.commits > 0))
    (Sh_wf.shards tm)

let test_cross_transfer_conservation () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 100;
  let worker w () =
    let rng = Rng.create (100 + w) in
    for _ = 1 to 20 do
      let a = Rng.int rng accounts and b = Rng.int rng accounts in
      if a <> b then transfer tm a b (1 + Rng.int rng 5)
    done
  in
  (* the observer snapshots all accounts mid-run: cross-shard read
     transactions must always see a conserved total *)
  let violations = ref 0 in
  let observer () =
    for _ = 1 to 8 do
      if total tm <> accounts * 100 then incr violations
    done
  in
  ignore
    (Sched.run ~seed:5
       [| (fun () -> worker 0 ()); (fun () -> worker 1 ()); observer |]);
  check int "observer saw conservation" 0 !violations;
  check int "total conserved" (accounts * 100) (total tm)

let test_cross_alloc_free () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 100;
  let base = Array.map Wf.allocated_cells (Sh_wf.shards tm) in
  (* a cross-shard transaction that allocates: reads two shards, then
     allocates a 2-cell block and parks it in a root *)
  let p =
    Sh_wf.update_tx tm (fun tx ->
        let a = Sh_wf.load tx (Sh_wf.root tm 0) in
        let b = Sh_wf.load tx (Sh_wf.root tm 1) in
        let p = Sh_wf.alloc tx 2 in
        Sh_wf.store tx p (a + b);
        Sh_wf.store tx (Sh_wf.root tm 2) p;
        p)
  in
  check bool "allocated non-null" true (p <> 0);
  let v =
    Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.load tx (Sh_wf.root tm 2)))
  in
  check int "cross-allocated payload" 200 v;
  (* free it from another cross-shard transaction *)
  ignore
    (Sh_wf.update_tx tm (fun tx ->
         let q = Sh_wf.load tx (Sh_wf.root tm 2) in
         ignore (Sh_wf.load tx (Sh_wf.root tm 1));
         Sh_wf.free tx q;
         Sh_wf.store tx (Sh_wf.root tm 2) 0;
         0));
  Array.iteri
    (fun s sh ->
      check int
        (Printf.sprintf "shard %d allocation balance" s)
        base.(s) (Wf.allocated_cells sh))
    (Sh_wf.shards tm)

let test_crash_recovery () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 50;
  for i = 0 to 5 do
    transfer tm i ((i + 3) mod accounts) 7
  done;
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check int "total survives crash" (accounts * 50) (total tm);
  (* the router keeps working after recovery *)
  transfer tm 0 5 3;
  check int "total after post-recovery transfer" (accounts * 50) (total tm)

(* Roll-back recovery: a cross-shard transaction that crashed after every
   shard prepared — write-ahead allocations logged in the pending lists,
   locks held, the commit record's contents written — but before the
   record's status word became durable must be discarded entirely.
   Recovery frees the pending allocations, clears the stale locks, never
   replays the uncommitted record, and the router stays usable.  The
   prepared state is fabricated through the shards' own public API at
   the control-block addresses the router published in its reserved root
   slot, so the test exercises the exact durable footprint a crash
   between the final prepare and the record commit leaves behind. *)

(* mirror of the private control-block layout in tm_shard.ml: its
   max_pending = 32 and mk_sharded's max_threads = 8, plus the
   migration-hold cell appended by the elastic-sharding refactor *)
let ctl_cells = 4 + 32 + (2 * 8)

let ctl_base sh =
  Wf.read_tx sh (fun itx -> Wf.load itx (Wf.root sh (Wf.num_roots sh - 1)))

let test_rollback_recovery () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let base = Array.map Wf.allocated_cells shards in
  for round = 1 to 3 do
    (* every shard prepared: exactly the durable footprint of [alloc]'s
       write-ahead transaction plus [ensure_locked] *)
    Array.iter
      (fun sh ->
        let cb = ctl_base sh in
        ignore
          (Wf.update_tx sh (fun itx ->
               let a = Wf.alloc itx 64 in
               Wf.store itx (cb + 3) a (* pending slot 0 *);
               Wf.store itx (cb + 2) 1 (* pending count *);
               0));
        ignore (Wf.update_tx sh (fun itx -> Wf.store itx cb 1; 0)))
      shards;
    (* the commit record's contents are durable but its status word is
       not: a poison write that would zero account 0 if ever replayed *)
    let rb = ctl_base shards.(0) + ctl_cells in
    ignore
      (Wf.update_tx shards.(0) (fun itx ->
           Wf.store itx (rb + 1) (90 + round) (* id *);
           Wf.store itx (rb + 2) 0b11 (* both shards participate *);
           Wf.store itx (rb + 3) 1 (* one write... *);
           Wf.store itx (rb + 4) 0;
           Wf.store itx (rb + 5) (Sh_wf.root tm 0);
           Wf.store itx (rb + 6) 0 (* ...that zeroes account 0 *);
           0));
    Region.crash dev ();
    Sh_wf.recover ~shard_recover:Wf.recover tm;
    Array.iteri
      (fun s sh ->
        let cb = ctl_base sh in
        let lock = Wf.read_tx sh (fun itx -> Wf.load itx cb) in
        let pc = Wf.read_tx sh (fun itx -> Wf.load itx (cb + 2)) in
        check int (Printf.sprintf "round %d shard %d lock cleared" round s) 0
          lock;
        check int
          (Printf.sprintf "round %d shard %d pendings cleared" round s)
          0 pc;
        check int
          (Printf.sprintf "round %d shard %d allocation balance" round s)
          base.(s) (Wf.allocated_cells sh))
      shards
  done;
  check int "uncommitted record was never replayed" (accounts * 100) (total tm);
  (* the router keeps working, including fresh cross-shard allocations *)
  transfer tm 0 5 3;
  let p =
    Sh_wf.update_tx tm (fun tx ->
        ignore (Sh_wf.load tx (Sh_wf.root tm 0));
        ignore (Sh_wf.load tx (Sh_wf.root tm 1));
        let p = Sh_wf.alloc tx 2 in
        Sh_wf.store tx p 7;
        p)
  in
  check bool "post-recovery cross alloc" true (p <> 0);
  check int "total conserved after recovery" (accounts * 100) (total tm)

(* --- batched 2PC: batch-record recovery --------------------------- *)

(* record layout mirror (make's defaults, see tm_shard.ml): status | id |
   participants | nwrites | nfrees | (gaddr,value) pairs (2 * 64 cells) |
   free gaddrs.  The record sits right after shard 0's control block. *)
let rec_frees_off = 5 + (2 * 64)

(* Roll-forward: a batch whose ONE commit record became durable (status
   word written) but that crashed before any per-shard apply must be
   replayed into every participant as a unit: union writes applied, union
   frees executed, write-ahead allocations adopted (pending list cleared
   WITHOUT freeing), freezes lifted, and the record finalized. *)
let test_batch_roll_forward () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) and sh1 = shards.(1) in
  let cb0 = ctl_base sh0 and cb1 = ctl_base sh1 in
  let base0 = Wf.allocated_cells sh0 in
  (* a pre-batch block on shard 0 that the committed batch frees *)
  let fz =
    Wf.update_tx sh0 (fun itx ->
        let a = Wf.alloc itx 2 in
        Wf.store itx a 7;
        a)
  in
  (* one member's write-ahead allocation on shard 1, logged pending *)
  ignore
    (Wf.update_tx sh1 (fun itx ->
         let a = Wf.alloc itx 3 in
         Wf.store itx (cb1 + 3) a;
         Wf.store itx (cb1 + 2) 1;
         0));
  let base1 = Wf.allocated_cells sh1 in
  (* both shards frozen for the batch *)
  ignore (Wf.update_tx sh0 (fun itx -> Wf.store itx cb0 1; 0));
  ignore (Wf.update_tx sh1 (fun itx -> Wf.store itx cb1 1; 0));
  (* the COMMITTED record: a two-member union — three writes across both
     shards, one free — with its status word durable *)
  let rb = ctl_base sh0 + ctl_cells in
  let id = 600 in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (rb + 1) id;
         Wf.store itx (rb + 2) 0b11;
         Wf.store itx (rb + 3) 3;
         Wf.store itx (rb + 4) 1;
         Wf.store itx (rb + 5) (Sh_wf.root tm 0);
         Wf.store itx (rb + 6) 41;
         Wf.store itx (rb + 7) (Sh_wf.root tm 1);
         Wf.store itx (rb + 8) 42;
         Wf.store itx (rb + 9) (Sh_wf.root tm 2);
         Wf.store itx (rb + 10) 43;
         Wf.store itx (rb + rec_frees_off) fz (* shard-0 global = local *);
         Wf.store itx rb 1;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  let v k = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm k)) in
  check int "write on shard 0 replayed" 41 (v 0);
  check int "write on shard 1 replayed" 42 (v 1);
  check int "second shard-0 write replayed" 43 (v 2);
  check int "union free executed" base0 (Wf.allocated_cells sh0);
  check int "pending allocation adopted, not freed" base1
    (Wf.allocated_cells sh1);
  Array.iteri
    (fun s sh ->
      let cb = ctl_base sh in
      check int (Printf.sprintf "shard %d unlocked" s) 0
        (Wf.read_tx sh (fun itx -> Wf.load itx cb));
      check int (Printf.sprintf "shard %d pendings cleared" s) 0
        (Wf.read_tx sh (fun itx -> Wf.load itx (cb + 2)));
      check int (Printf.sprintf "shard %d applied id" s) id
        (Wf.read_tx sh (fun itx -> Wf.load itx (cb + 1))))
    shards;
  check int "record finalized" 2
    (Wf.read_tx sh0 (fun itx -> Wf.load itx rb));
  (* the router keeps working on top of the replayed state *)
  transfer tm 0 5 3;
  check int "post-recovery total" (126 + (5 * 100)) (total tm)

(* Roll-back, multi-member footprint: every shard carries TWO members'
   write-ahead allocations and the freeze, and the record's multi-member
   contents are durable — but its status word is not.  The whole batch
   must be discarded as a unit: every pending allocation freed, locks
   cleared, the poison record (which would zero two accounts and free a
   live block) never replayed. *)
let test_batch_rollback_multi () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) in
  (* a live block the poison record's free list targets *)
  let live =
    Wf.update_tx sh0 (fun itx ->
        let a = Wf.alloc itx 2 in
        Wf.store itx a 1234;
        a)
  in
  let base = Array.map Wf.allocated_cells shards in
  Array.iter
    (fun sh ->
      let cb = ctl_base sh in
      ignore
        (Wf.update_tx sh (fun itx ->
             let a = Wf.alloc itx 16 in
             Wf.store itx (cb + 3) a;
             Wf.store itx (cb + 2) 1;
             0));
      ignore
        (Wf.update_tx sh (fun itx ->
             let b = Wf.alloc itx 8 in
             Wf.store itx (cb + 4) b;
             Wf.store itx (cb + 2) 2;
             0));
      ignore (Wf.update_tx sh (fun itx -> Wf.store itx cb 1; 0)))
    shards;
  let rb = ctl_base sh0 + ctl_cells in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (rb + 1) 800;
         Wf.store itx (rb + 2) 0b11;
         Wf.store itx (rb + 3) 2;
         Wf.store itx (rb + 4) 1;
         Wf.store itx (rb + 5) (Sh_wf.root tm 0);
         Wf.store itx (rb + 6) 0;
         Wf.store itx (rb + 7) (Sh_wf.root tm 1);
         Wf.store itx (rb + 8) 0;
         Wf.store itx (rb + rec_frees_off) live;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  Array.iteri
    (fun s sh ->
      let cb = ctl_base sh in
      check int (Printf.sprintf "shard %d unlocked" s) 0
        (Wf.read_tx sh (fun itx -> Wf.load itx cb));
      check int (Printf.sprintf "shard %d pendings cleared" s) 0
        (Wf.read_tx sh (fun itx -> Wf.load itx (cb + 2)));
      check int
        (Printf.sprintf "shard %d both members' allocations rolled back" s)
        base.(s) (Wf.allocated_cells sh))
    shards;
  check int "uncommitted batch never replayed" (accounts * 100) (total tm);
  check int "live block untouched" 1234
    (Wf.read_tx sh0 (fun itx -> Wf.load itx live));
  transfer tm 0 5 3;
  check int "router usable after roll-back" (accounts * 100) (total tm)

(* Partially-helped batch: shard 1's apply had already run (a helper got
   there before the crash), shard 0's had not.  Recovery must finish the
   batch on shard 0 and SKIP shard 1 — the monotone applied-id guard —
   so shard 1's post-apply state (here a sentinel overwrite) is not
   clobbered by a replayed write and the recorded free is not executed a
   second time. *)
let test_batch_partially_helped () =
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) and sh1 = shards.(1) in
  let cb0 = ctl_base sh0 and cb1 = ctl_base sh1 in
  let id = 700 in
  (* a pre-batch block on shard 1 that the batch frees *)
  let f1 =
    Wf.update_tx sh1 (fun itx ->
        let a = Wf.alloc itx 2 in
        Wf.store itx a 7;
        a)
  in
  (* shard 0: prepared but not applied — freeze held, one write-ahead
     pending allocation *)
  ignore
    (Wf.update_tx sh0 (fun itx ->
         let a = Wf.alloc itx 2 in
         Wf.store itx (cb0 + 3) a;
         Wf.store itx (cb0 + 2) 1;
         0));
  let base0 = Wf.allocated_cells sh0 in
  ignore (Wf.update_tx sh0 (fun itx -> Wf.store itx cb0 1; 0));
  (* shard 1: already applied by a helper — write landed, free done,
     pendings cleared, applied id stamped, unlocked *)
  let l1 = Wf.root sh1 0 (* root tm 1's shard-local slot *) in
  ignore
    (Wf.update_tx sh1 (fun itx ->
         Wf.store itx l1 66;
         Wf.free itx f1;
         Wf.store itx (cb1 + 1) id;
         0));
  let base1 = Wf.allocated_cells sh1 in
  (* a sentinel a buggy re-apply of shard 1 would clobber back to 66 —
     and its recorded free would double-free [f1] *)
  ignore (Wf.update_tx sh1 (fun itx -> Wf.store itx l1 999; 0));
  let rb = ctl_base sh0 + ctl_cells in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (rb + 1) id;
         Wf.store itx (rb + 2) 0b11;
         Wf.store itx (rb + 3) 2;
         Wf.store itx (rb + 4) 1;
         Wf.store itx (rb + 5) (Sh_wf.root tm 0);
         Wf.store itx (rb + 6) 55;
         Wf.store itx (rb + 7) (Sh_wf.root tm 1);
         Wf.store itx (rb + 8) 66;
         Wf.store itx (rb + rec_frees_off) (Sh_wf.span tm + f1);
         Wf.store itx rb 1;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  let v k = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm k)) in
  check int "shard 0 caught up" 55 (v 0);
  check int "shard 1 NOT re-applied (sentinel intact)" 999 (v 1);
  check int "no double free on shard 1" base1 (Wf.allocated_cells sh1);
  check int "shard 0 pending adopted" base0 (Wf.allocated_cells sh0);
  check int "shard 0 unlocked" 0
    (Wf.read_tx sh0 (fun itx -> Wf.load itx cb0));
  check int "shard 0 pendings cleared" 0
    (Wf.read_tx sh0 (fun itx -> Wf.load itx (cb0 + 2)));
  check int "shard 0 applied id" id
    (Wf.read_tx sh0 (fun itx -> Wf.load itx (cb0 + 1)));
  check int "record finalized" 2
    (Wf.read_tx sh0 (fun itx -> Wf.load itx rb));
  transfer tm 2 3 5;
  let after = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 2)) in
  check int "router usable after partial-help recovery" 95 after

(* --- batched 2PC: torn-batch-record crash sweep -------------------- *)

(* The planted [torn_batch_record] fault truncates the ONE batch commit
   record to the first member's contribution, so crash-replay applies
   half a batch.  It only manifests on batches with >= 2 members — which
   the free schedule never forms (each owner leads its own singleton
   batch to completion).  The sweep therefore parks fiber 1 after [k] of
   its own steps and then forces fiber 0 to run: when [k] lands in fiber
   1's publish->leader-CAS window, fiber 0's drain picks up both requests
   and forms a two-member batch.  Park points are calibrated against the
   router.batch_size telemetry of the crash-free base run, and only
   schedules that actually form a multi-member batch are crash-swept. *)

let sweep_cfg ~fault te =
  {
    E.default with
    E.wf = true;
    shards = 2;
    threads = 2;
    sanitize = false;
    fault;
    telemetry = Some te;
  }

let park_schedule k = Array.append (Array.make k 1) (Array.make 250 0)

let sweep_prog seed =
  Proggen.gen_program ~max_txns:4 ~max_ops:4 ~transfer_weight:10 seed

(* does the base run of [sched] form a batch of >= 2 members? *)
let forms_multi ~fault prog sched =
  let te = Telemetry.create () in
  match
    E.explore_crashes ~config:(sweep_cfg ~fault te) ~max_sites:0
      ~schedule:sched prog
  with
  | _ -> (Telemetry.span_summary te "router.batch_size").Telemetry.max >= 2
  | exception Explore.Divergence _ -> false

let multi_member_schedules ~fault ?(limit = 3) prog =
  let rec go acc k =
    if k > 400 || List.length acc >= limit then List.rev acc
    else
      let s = park_schedule k in
      go (if forms_multi ~fault prog s then s :: acc else acc) (k + 1)
  in
  go [] 1

let crash_sweep ~fault prog sched =
  match
    E.explore_crashes
      ~config:(sweep_cfg ~fault (Telemetry.create ()))
      ~sites:`Persist ~max_sites:40 ~schedule:sched prog
  with
  | r -> r.E.failure
  | exception Explore.Divergence _ -> None

let test_torn_batch_found () =
  let fault = E.Torn_batch_record in
  let find prog =
    List.fold_left
      (fun acc sched ->
        match acc with Some _ -> acc | None -> crash_sweep ~fault prog sched)
      None
      (multi_member_schedules ~fault prog)
  in
  let rec hunt = function
    | [] -> None
    | seed :: rest -> (
        match find (sweep_prog seed) with Some f -> Some f | None -> hunt rest)
  in
  (* the truncation only bites when the SECOND member contributes fresh
     addresses (values are looked up in the full union, so a same-cells
     batch writes a complete record anyway).  Read-only transactions no
     longer pad batches — they run on the snapshot path — so seeds whose
     concurrent transfers hit identical root pairs (1-5) form torn-proof
     batches; the hunt continues to seeds with disjoint pairs. *)
  match hunt [ 1; 2; 5; 11; 16 ] with
  | None -> Alcotest.fail "planted torn batch record not found within budget"
  | Some f ->
      check bool "found at a crash point" true (f.E.crash <> None);
      let r1 = E.replay f and r2 = E.replay f in
      check bool "replay still fails" true (Option.is_some r1);
      check bool "replay deterministic" true (r1 = r2)

let test_torn_batch_clean_battery () =
  (* the SAME multi-member-batch sweep on the clean batcher must be
     silent: every crash point of a >= 2-member batch recovers to a
     crash-consistent prefix *)
  let swept = ref 0 in
  List.iter
    (fun seed ->
      let prog = sweep_prog seed in
      List.iter
        (fun sched ->
          incr swept;
          match crash_sweep ~fault:E.No_fault prog sched with
          | Some f -> Alcotest.failf "seed %d: %a" seed E.pp_failure f
          | None -> ())
        (multi_member_schedules ~fault:E.No_fault prog))
    [ 1; 2; 3 ];
  check bool "multi-member batches were actually swept" true (!swept > 0)

let test_lf_router_volatile () =
  (* the functor is TM-generic: LF shards over a volatile device *)
  let device = Region.create ~mode:Region.Volatile (2 * 4096) in
  let views = Region.partition device [ 4096; 4096 ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Lf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ())
         views)
  in
  let tm = Sh_lf.make ~max_threads:8 ~ro_snapshot:Lf.snapshot_ops shards in
  ignore
    (Sh_lf.update_tx tm (fun tx ->
         Sh_lf.store tx (Sh_lf.root tm 0) 1;
         Sh_lf.store tx (Sh_lf.root tm 1) 2;
         0));
  let v =
    Sh_lf.read_tx tm (fun tx ->
        Sh_lf.load tx (Sh_lf.root tm 0) + Sh_lf.load tx (Sh_lf.root tm 1))
  in
  check int "volatile lf cross tx" 3 v

(* Escape and blocked tokens must stay unique across router incarnations:
   [single_update] tells a genuine [-token] result from an escape by the
   token cells, and a second [make] over the same shards adopts their
   control blocks, tokens included.  Incarnation 1 escapes once, leaving
   token 2 in tid 0's escape cell on shard 0; incarnation 2's second
   single-shard update returns -2 and must still apply exactly once. *)
module Token_reuse (F : Tm.Tm_intf.S with type t = Lf.t) = struct
  module Sh = Tm.Tm_shard.Make (F)

  let run () =
    let device = Region.create (2 * 4096) in
    let views = Region.partition device [ 4096; 4096 ] in
    let shards =
      Array.of_list
        (List.map
           (fun v ->
             Lf.create ~region:v ~instance:(Region.id v) ~max_threads:8
               ~ws_cap:256 ())
           views)
    in
    let make () = Sh.make ~max_threads:8 ~ro_snapshot:Lf.snapshot_ops shards in
    let tm = make () in
    (* roots 0 and 2 live on shard 0, root 1 on shard 1 *)
    let r0 = Sh.root tm 0 and r1 = Sh.root tm 1 and r2 = Sh.root tm 2 in
    ignore (Sh.update_tx tm (fun tx -> Sh.store tx r0 1; 0));
    (* the classify pre-pass loads r0 as 0 and predicts shard 0; the real
       run loads 1 and also writes shard 1, so it escapes *)
    ignore
      (Sh.update_tx tm (fun tx ->
           if Sh.load tx r0 <> 0 then Sh.store tx r1 1;
           0));
    check int "the escape applied" 1 (Sh.read_tx tm (fun tx -> Sh.load tx r1));
    let tm = make () in
    ignore (Sh.update_tx tm (fun tx -> Sh.store tx r0 2; 0));
    let r =
      Sh.update_tx tm (fun tx ->
          Sh.store tx r2 (Sh.load tx r2 + 1);
          -2)
    in
    check int "genuine result" (-2) r;
    check int "applied once" 1 (Sh.read_tx tm (fun tx -> Sh.load tx r2))
end

module Token_reuse_lf = Token_reuse (Lf)
module Token_reuse_wf = Token_reuse (Wf)

(* --- capture scoping and batch-pinned reads ------------------------- *)

(* Every shard has its own instance id ([mk_sharded]), so each shard's
   [ro.captures] counts the versions its own apply passes installed. *)
let attach_all tm =
  let te = Telemetry.create () in
  Array.iter (fun sh -> Wf.attach_telemetry sh te) (Sh_wf.shards tm);
  Sh_wf.attach_telemetry tm te;
  te

let per_shard te key s = Telemetry.get te (Printf.sprintf "s%d.%s" s key)

(* each fiber runs to completion, in array order *)
let in_order ?on_step fibers =
  let pick ~step:_ ~enabled ~last:_ = enabled.(0) in
  ignore (Sched.run_controlled ?on_step ~pick fibers)

let increment tm i =
  ignore
    (Sh_wf.update_tx tm (fun tx ->
         let r = Sh_wf.root tm i in
         Sh_wf.store tx r (Sh_wf.load tx r + 1);
         0))

let readers_of tm =
  Array.map (fun sh -> fst (Onefile.Core0.capture_info sh)) (Sh_wf.shards tm)

(* A cross-shard snapshot read registers its slot on every shard only
   while it holds its pins: once A's read returned, B's single-shard
   updates on shard 3, which A never updates, capture nothing there. *)
let test_cross_read_capture_scoped () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 100;
  let get = per_shard (attach_all tm) in
  let seen = ref 0 in
  in_order
    [|
      (fun () -> ());
      (fun () -> seen := total tm);
      (fun () ->
        for _ = 1 to 5 do
          increment tm 3
        done);
    |];
  check int "A read a conserved total" (accounts * 100) !seen;
  check int "no capture on shard 3 after A's read" 0 (get "ro.captures" 3);
  check (Alcotest.array int) "no slot left registered" [| 0; 0; 0; 0 |]
    (readers_of tm)

(* A cross batch that runs after a (finished) cross read captures
   nothing anywhere: the read's pins deregistered at unpin, and the
   leader's own frozen-shard pins — the member reads two cells on each
   of shards 0 and 1 — are released before the batch record, so no
   slot is registered anywhere once the batch is published (a helper
   applying shard 1 before the leader would otherwise capture there). *)
let test_cross_batch_captures_nothing () =
  let _dev, tm = mk_sharded () in
  init_accounts tm 100;
  let te = attach_all tm in
  let get = per_shard te in
  let at_publication = ref None in
  let on_step _ =
    if !at_publication = None && Telemetry.get te "router.batch_commits" > 0
    then at_publication := Some (readers_of tm)
  in
  in_order ~on_step
    [|
      (fun () -> ());
      (fun () -> ignore (total tm));
      (fun () ->
        ignore
          (Sh_wf.update_tx tm (fun tx ->
               let ld i = Sh_wf.load tx (Sh_wf.root tm i) in
               let v0 = ld 0 in
               let v4 = ld 4 in
               let v1 = ld 1 in
               let v5 = ld 5 in
               Sh_wf.store tx (Sh_wf.root tm 0) (v0 - 3);
               Sh_wf.store tx (Sh_wf.root tm 1) (v1 + 3);
               v4 + v5)));
    |];
  check (Alcotest.option (Alcotest.array int))
    "no slot registered when the batch is published"
    (Some [| 0; 0; 0; 0 |])
    !at_publication;
  check int "total conserved" (accounts * 100) (total tm);
  for s = 0 to 3 do
    check int (Printf.sprintf "shard %d: no capture" s) 0 (get "ro.captures" s)
  done

(* A member that reads both shards of a 2-shard router (a lock read,
   then a pinned read, on each), allocates — on a pinned shard, whose
   pin the leader drops before the write-ahead transaction — and then
   reads uncached cells, which re-pin that shard.  Every read must see
   the pre-transaction value (the block gets their sum) and the
   transfer must conserve the total.  The same member failing after its
   allocation rolls the block back through another transaction on the
   pinned shard.  Concurrent runs of the member next to single-shard
   transfers keep the total conserved throughout. *)
let alloc_member tm ?(fail = false) tx =
  let ld i = Sh_wf.load tx (Sh_wf.root tm i) in
  let v0 = ld 0 in
  let v2 = ld 2 in
  let v1 = ld 1 in
  let v3 = ld 3 in
  let p = Sh_wf.alloc tx 2 in
  let v4 = ld 4 in
  let v5 = ld 5 in
  Sh_wf.store tx p (v0 + v1 + v2 + v3 + v4 + v5);
  Sh_wf.store tx (Sh_wf.root tm 8) p;
  Sh_wf.store tx (Sh_wf.root tm 4) (v4 - 7);
  Sh_wf.store tx (Sh_wf.root tm 5) (v5 + 7);
  if fail then failwith "member fails after its allocation";
  p

let test_batch_pin_dropped_for_alloc () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let get = per_shard (attach_all tm) in
  let pins () = get "tx.ro_epoch_pins" 0 + get "tx.ro_epoch_pins" 1 in
  let p = Sh_wf.update_tx tm (alloc_member tm) in
  check int "two pins, one re-pin after the alloc" 3 (pins ());
  check int "the block holds the pre-transaction sum" 600
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx p));
  check int "total conserved" (accounts * 100) (total tm);
  check (Alcotest.array int) "no leader pin left registered" [| 0; 0 |]
    (readers_of tm);
  let base = Array.map Wf.allocated_cells (Sh_wf.shards tm) in
  (match Sh_wf.update_tx tm (alloc_member tm ~fail:true) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "the failing member's error was lost");
  Array.iteri
    (fun s sh ->
      check int
        (Printf.sprintf "shard %d: failed member's block rolled back" s)
        base.(s) (Wf.allocated_cells sh))
    (Sh_wf.shards tm);
  check (Alcotest.array int) "no leader pin left after the rollback" [| 0; 0 |]
    (readers_of tm);
  let violations = ref 0 in
  ignore
    (Sched.run ~seed:9
       [|
         (fun () ->
           for _ = 1 to 3 do
             ignore (Sh_wf.update_tx tm (alloc_member tm))
           done);
         (fun () ->
           for _ = 1 to 3 do
             ignore (Sh_wf.update_tx tm (alloc_member tm))
           done);
         (fun () ->
           for i = 1 to 6 do
             (* accounts 2 and 6 live on shard 0: single-shard transfers *)
             transfer tm 2 6 i
           done);
         (fun () ->
           for _ = 1 to 6 do
             if total tm <> accounts * 100 then incr violations
           done);
       |]);
  check int "observer saw conservation" 0 !violations;
  check int "total conserved after the concurrent run" (accounts * 100) (total tm)

(* --- elastic sharding: live range migration ------------------------ *)

(* shard-0 control appendix mirror (max_pending 32, max_threads 8,
   max_writes 64, max_frees 32, max_ranges 8): batch record, then map,
   then migration record *)
let rec_cells = 5 + (2 * 64) + 32
let map_base sh0 = ctl_base sh0 + ctl_cells + rec_cells
let mig_base sh0 = map_base sh0 + Tm.Shard_map.cells ~max_ranges:8
let mighold sh = ctl_base sh + 3 + 32 + (2 * 8)

let ok = Alcotest.of_pp (fun ppf -> function
  | `Ok -> Fmt.string ppf "Ok"
  | `Busy -> Fmt.string ppf "Busy"
  | `Invalid m -> Fmt.pf ppf "Invalid %s" m)

let test_migrate_split_merge () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  (* root 6 sits in the upper half of shard 0's root block (slot 3 of
     usable 7); give it a distinguishable balance *)
  transfer tm 0 6 17;
  check ok "split" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  check int "one migrated range" 1 (Array.length (Sh_wf.map_entries tm));
  check int "epoch flipped" 1 (Sh_wf.map_epoch tm);
  check int "migrated root rehomed" 1 (Sh_wf.shard_of tm (Sh_wf.root tm 6));
  check int "conservation across the flip" (8 * 100) (total tm);
  let v6 = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)) in
  check int "migrated value intact" 117 v6;
  (* writes keep landing on the new home, reads see them *)
  transfer tm 6 1 7;
  check int "post-flip write" 110
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)));
  check int "conservation after post-flip traffic" (8 * 100) (total tm);
  (* retire the range back home *)
  check ok "merge" `Ok (Sh_wf.merge tm ~src:1 ~dst:0);
  check int "range table empty again" 0 (Array.length (Sh_wf.map_entries tm));
  check int "epoch flipped again" 2 (Sh_wf.map_epoch tm);
  check int "root back home" 0 (Sh_wf.shard_of tm (Sh_wf.root tm 6));
  check int "value survived the round trip" 110
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)));
  check int "conservation after the round trip" (8 * 100) (total tm)

let test_migrate_under_traffic () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let te = Telemetry.create () in
  Sh_wf.attach_telemetry tm te;
  let rng = Rng.create 42 in
  let worker w () =
    for i = 1 to 30 do
      let a = (w + i) mod accounts and b = (w + (2 * i) + 1) mod accounts in
      if a <> b then transfer tm a b ((i mod 5) + 1)
    done
  in
  let migrator () =
    (match Sh_wf.split tm ~src:0 ~dst:1 with
    | `Ok -> ()
    | `Busy | `Invalid _ -> Alcotest.fail "split under traffic");
    for _ = 1 to 10 do
      ignore (Rng.int rng 2);
      Sched.step_point ()
    done;
    match Sh_wf.merge tm ~src:1 ~dst:0 with
    | `Ok -> ()
    | `Busy | `Invalid _ -> Alcotest.fail "merge under traffic"
  in
  ignore
    (Sched.run ~seed:7
       (Array.append
          (Array.init 3 (fun w () -> worker w ()))
          [| migrator |]));
  check int "conservation under migration storm" (8 * 100) (total tm);
  check int "both migrations completed" 2
    (Telemetry.get te "router.migrations");
  check int "epoch flips observed" 2 (Telemetry.get te "router.map_epoch");
  check int "table empty after round trip" 0
    (Array.length (Sh_wf.map_entries tm));
  Sh_wf.detach_telemetry tm

let test_migrate_validation () =
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let inv = function `Invalid _ -> true | `Ok | `Busy -> false in
  check bool "same shard rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.root tm 0) ~len:2 ~dst:0));
  check bool "no such shard rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.root tm 0) ~len:2 ~dst:9));
  check bool "empty range rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.root tm 0) ~len:0 ~dst:1));
  check bool "shard-boundary straddle rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Sh_wf.span tm - 2) ~len:4 ~dst:1));
  (* the shard-0 control block (and the batch record/map/migration
     appendix behind it) must be unmovable *)
  let cb0 = ctl_base (Sh_wf.shards tm).(0) in
  check bool "control block protected" true
    (inv (Sh_wf.migrate_range tm ~lo:cb0 ~len:4 ~dst:1));
  check bool "record appendix protected" true
    (inv (Sh_wf.migrate_range tm ~lo:(mig_base (Sh_wf.shards tm).(0)) ~len:4 ~dst:1));
  (* reserved root slot (holds the control-block pointer) *)
  let sh0 = (Sh_wf.shards tm).(0) in
  check bool "reserved root slot protected" true
    (inv (Sh_wf.migrate_range tm ~lo:(Wf.root sh0 7) ~len:1 ~dst:1));
  (* a live split, then: overlap and non-native retire rejected *)
  check ok "setup split" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  let lo, len, _, _ = (Sh_wf.map_entries tm).(0) in
  check bool "partial overlap rejected" true
    (inv (Sh_wf.migrate_range tm ~lo:(lo + 1) ~len ~dst:1));
  check bool "exact range to a third home rejected" true
    (inv (Sh_wf.migrate_range tm ~lo ~len ~dst:1));
  check ok "retire cleanly" `Ok (Sh_wf.migrate_range tm ~lo ~len ~dst:0)

let test_migrate_table_full () =
  let device = Region.create (2 * 4096) in
  let views = Region.partition device [ 4096; 4096 ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Wf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  let tm =
    Sh_wf.make ~max_threads:8 ~max_ranges:1 ~ro_snapshot:Wf.snapshot_ops
      shards
  in
  check ok "first split fits" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  (match Sh_wf.split tm ~src:1 ~dst:0 with
  | `Invalid _ -> ()
  | `Ok | `Busy -> Alcotest.fail "second range must overflow the table");
  check ok "retire frees the slot" `Ok (Sh_wf.merge tm ~src:1 ~dst:0);
  check ok "slot reusable" `Ok (Sh_wf.split tm ~src:1 ~dst:0)

let test_migration_roll_forward () =
  (* fabricate the durable footprint of a crash right after the
     migration record became durable, before any chunk was copied: a
     held host block on dst and a status=1 record on shard 0.  Recovery
     must roll the move FORWARD — full recopy, entry + epoch settled,
     hold lifted. *)
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  transfer tm 0 6 23;
  let shards = Sh_wf.shards tm in
  let sh0 = shards.(0) and sh1 = shards.(1) in
  let sbase = Wf.root sh0 3 (* slots 3..6: upper half of 7 roots *) in
  let len = 4 in
  (* mirror addresses are computed OUTSIDE the fabrication transactions:
     the helpers run a read_tx of their own, which must not nest inside
     a live update closure *)
  let hold1 = mighold sh1 in
  let dbase =
    Wf.update_tx sh1 (fun itx ->
        let a = Wf.alloc itx len in
        Wf.store itx hold1 a;
        a)
  in
  let mb = mig_base sh0 in
  ignore
    (Wf.update_tx sh0 (fun itx ->
         Wf.store itx (mb + 1) sbase (* global lo = shard-0 local *);
         Wf.store itx (mb + 2) len;
         Wf.store itx (mb + 3) 0;
         Wf.store itx (mb + 4) 1;
         Wf.store itx (mb + 5) sbase;
         Wf.store itx (mb + 6) dbase;
         Wf.store itx (mb + 7) 1;
         Wf.store itx mb 1;
         0));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check int "entry settled" 1 (Array.length (Sh_wf.map_entries tm));
  check int "epoch settled" 1 (Sh_wf.map_epoch tm);
  check int "record finalized" 2
    (Wf.read_tx sh0 (fun itx -> Wf.load itx mb));
  check int "hold lifted" 0 (Wf.read_tx sh1 (fun itx -> Wf.load itx hold1));
  check int "root rehomed" 1 (Sh_wf.shard_of tm (Sh_wf.root tm 6));
  check int "value recopied" 123
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)));
  check int "conservation" (8 * 100) (total tm);
  (* the router stays fully usable, including retiring the adopted range *)
  transfer tm 6 0 3;
  check ok "retire after roll-forward" `Ok (Sh_wf.merge tm ~src:1 ~dst:0);
  check int "conservation after retire" (8 * 100) (total tm)

let test_migration_roll_back () =
  (* a held host block with NO migration record is an orphan of a crash
     before the point of no return: recovery frees it and clears the
     hold; the map stays empty *)
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  let sh1 = (Sh_wf.shards tm).(1) in
  let base = Wf.allocated_cells sh1 in
  let hold1 = mighold sh1 in
  ignore
    (Wf.update_tx sh1 (fun itx ->
         let a = Wf.alloc itx 4 in
         Wf.store itx hold1 a;
         a));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check int "orphan host block freed" base (Wf.allocated_cells sh1);
  check int "hold cleared" 0
    (Wf.read_tx sh1 (fun itx -> Wf.load itx hold1));
  check int "no entry" 0 (Array.length (Sh_wf.map_entries tm));
  check int "epoch untouched" 0 (Sh_wf.map_epoch tm);
  check int "conservation" (8 * 100) (total tm)

let test_migration_reopen_adoption () =
  (* a second router incarnation over the same device adopts the
     persistent map: routes, values and a follow-up retire all work *)
  let _dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  transfer tm 0 6 9;
  check ok "split" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  let tm2 =
    Sh_wf.make ~max_threads:8 ~ro_snapshot:Wf.snapshot_ops (Sh_wf.shards tm)
  in
  check int "entry adopted" 1 (Array.length (Sh_wf.map_entries tm2));
  check int "epoch adopted" 1 (Sh_wf.map_epoch tm2);
  check int "route adopted" 1 (Sh_wf.shard_of tm2 (Sh_wf.root tm2 6));
  check int "value through the adopted map" 109
    (Sh_wf.read_tx tm2 (fun tx -> Sh_wf.load tx (Sh_wf.root tm2 6)));
  check ok "retire through the adopted map" `Ok (Sh_wf.merge tm2 ~src:1 ~dst:0);
  check int "conservation" (8 * 100) (total tm2)

let test_torn_migration_manifests () =
  (* self-check that the planted fault is a real bug: the settle
     transaction persists a half-length entry, so after a crash the
     reopened router routes the upper half of the range to the stale
     source copy and post-flip writes to it are lost *)
  let dev, tm = mk_sharded ~n:2 () in
  init_accounts tm 100;
  (Sh_wf.faults tm).Sh_wf.torn_migration <- true;
  check ok "split with fault armed" `Ok (Sh_wf.split tm ~src:0 ~dst:1);
  (* root slot 5 of shard 0 (global root index 10) is in the torn-off
     upper half; write it post-flip — crash-free reads see the write *)
  let r10 = Sh_wf.root tm 10 in
  ignore (Sh_wf.update_tx tm (fun tx -> Sh_wf.store tx r10 777; 0));
  check int "crash-free read sees the write" 777
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx r10));
  Region.crash dev ();
  Sh_wf.recover ~shard_recover:Wf.recover tm;
  check bool "post-flip write lost after crash (fault manifests)" true
    (Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx r10) <> 777)

(* An epoch flip landing inside a batch's per-shard apply.  The
   migrator's drain does not stop a leader from publishing a batch
   before the flip publishes the settled image, so a batch that writes
   the moving range can apply while the image changes under it.  The
   apply must route each entry through one image: taking the owner from
   the pre-flip image and the local cell from the settled one would
   store the migrated value on the SOURCE shard at the destination's
   local offset.  Script: the migrator (slot 0) runs a split alone up to
   the step before its image publish (counted in a probe run); the
   transfer (slot 1, root 6 in the moving range -> root 1) then runs k
   steps; the migrator publishes; everything finishes.  Every k up to
   the transfer's completion is tried, so the flip lands between every
   pair of the batch's steps, the fused shard-0 apply included. *)
let flip_window_setup () =
  let span = 4096 in
  let device = Region.create ~mode:Region.Persistent (2 * span) in
  let views = Region.partition device [ span; span ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Wf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  (* push the destination's allocations past the source's control
     block, so the source cell at the destination-local offset is one
     that nothing else writes *)
  ignore (Wf.update_tx shards.(1) (fun tx -> ignore (Wf.alloc tx 512); 0));
  let tm =
    Sh_wf.make ~max_threads:8 ~batch_watermark:1 ~ro_snapshot:Wf.snapshot_ops
      shards
  in
  init_accounts tm 100;
  (Wf.region shards.(0), tm)

let migrator tm () = ignore (Sh_wf.split tm ~src:0 ~dst:1)

let flip_window_run ~park ~k =
  let src, tm = flip_window_setup () in
  let before = Array.init (Region.size src) (fun a -> Region.peek src a) in
  let m_steps = ref 0 and b_steps = ref 0 in
  let b_done_early = ref false in
  let pick ~step:_ ~enabled ~last:_ =
    let has t = Array.exists (fun x -> x = t) enabled in
    let take t =
      if t = 0 then incr m_steps else incr b_steps;
      t
    in
    if !m_steps < park && has 0 then take 0
    else if !b_steps < k && has 1 then take 1
    else if !m_steps = park && has 0 then begin
      if not (has 1) then b_done_early := true;
      take 0
    end
    else if has 1 then take 1
    else take enabled.(0)
  in
  ignore
    (Sched.run_controlled ~pick [| migrator tm; (fun () -> transfer tm 6 1 5) |]);
  let _, len, dst, dbase =
    match Sh_wf.map_entries tm with
    | [| e |] -> e
    | _ -> Alcotest.fail "split did not settle one range"
  in
  check int "range moved to shard 1" 1 dst;
  let clobbered = ref [] in
  for a = dbase to dbase + len - 1 do
    if Region.peek src a <> before.(a) then clobbered := a :: !clobbered
  done;
  let v6 = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm 6)) in
  (!clobbered, total tm, v6, !b_done_early)

let test_flip_inside_apply () =
  (* probe: the migrator's steps up to (excluding) its image publish *)
  let probe () =
    let _, tm = flip_window_setup () in
    let steps = ref 0 and park = ref (-1) in
    let on_step _ =
      if !park < 0 && Sh_wf.map_epoch tm > 0 then park := !steps - 1
    in
    let pick ~step:_ ~enabled:_ ~last:_ =
      incr steps;
      0
    in
    ignore (Sched.run_controlled ~on_step ~pick [| migrator tm |]);
    !park
  in
  let park = probe () in
  check bool "probe found the image publish" true (park > 0);
  let rec sweep k =
    let clobbered, sum, v6, b_done_early = flip_window_run ~park ~k in
    if clobbered <> [] then
      Alcotest.failf "k=%d: source cells at the destination-local offset \
                      written: %s" k
        (String.concat ", " (List.map string_of_int clobbered));
    check int (Printf.sprintf "k=%d: conservation" k) (8 * 100) sum;
    check int (Printf.sprintf "k=%d: transfer landed" k) 95 v6;
    if not b_done_early then sweep (k + 1) else k
  in
  let last = sweep 0 in
  check bool "the sweep covered the whole batch" true (last > 50)

(* --- the shard map: pure routing, settling and codec ----------------- *)

module Sm = Tm.Shard_map

let span = 100
let img = { Sm.epoch = 3; entries = [| (10, 5, 2, 40); (250, 3, 0, 7) |] }
let rows es = Array.to_list (Array.map (fun (a, b, c, d) -> [ a; b; c; d ]) es)
let table = Alcotest.(list (list int))
let route = Alcotest.(pair int int)

let test_map_lookup () =
  check route "native" (1, 20) (Sm.lookup img ~span 120);
  check route "inside an entry" (2, 42) (Sm.lookup img ~span 12);
  check route "range lo" (2, 40) (Sm.lookup img ~span 10);
  check route "range lo+len-1" (2, 44) (Sm.lookup img ~span 14);
  check route "one past the range is native" (0, 15) (Sm.lookup img ~span 15);
  check route "second entry" (0, 8) (Sm.lookup img ~span 251);
  check route "pinned bypasses a covering entry" (0, 12)
    (Sm.lookup img ~span (Sm.pin ~span 0 12));
  check route "pinned on another shard" (2, 99)
    (Sm.lookup img ~span (Sm.pin ~span 2 99))

let test_map_settle () =
  let a = (10, 5, 2, 40) and b = (250, 3, 0, 7) and c = (300, 4, 1, 9) in
  let settle es (lo, len, dst, dbase) ~back =
    Sm.settle es ~lo ~len ~dst ~dbase ~back
  in
  check table "append" (rows [| a; b |]) (rows (settle [| a |] b ~back:false));
  check table "overwrite the entry with the same lo" (rows [| (10, 5, 3, 60); b |])
    (rows (settle [| a; b |] (10, 5, 3, 60) ~back:false));
  check table "back move compacts, keeping order" (rows [| a; c |])
    (rows (settle [| a; b; c |] b ~back:true));
  check table "back move of the last entry empties the table" []
    (rows (settle [| b |] b ~back:true));
  (* the planted torn_migration fault persists a half-length entry: the
     upper half of the range then routes natively again *)
  let torn = { Sm.epoch = 1; entries = settle [||] (10, 5 / 2, 2, 40) ~back:false } in
  check table "torn half-length entry" [ [ 10; 2; 2; 40 ] ] (rows torn.entries);
  check route "torn upper half routes natively" (0, 12) (Sm.lookup torn ~span 12)

let test_map_codec () =
  let cells = Array.make (Sm.cells ~max_ranges:4) 0 in
  Sm.encode (fun i v -> cells.(i) <- v) img;
  check (Alcotest.list int) "layout: epoch | n | (lo, len, dst, dbase)..."
    [ 3; 2; 10; 5; 2; 40; 250; 3; 0; 7 ]
    (Array.to_list (Array.sub cells 0 10));
  let back = Sm.decode (fun i -> cells.(i)) in
  check int "epoch round trip" img.epoch back.epoch;
  check table "entries round trip" (rows img.entries) (rows back.entries);
  (* a shrinking rewrite (back move) leaves stale cells past n unread *)
  Sm.encode (fun i v -> cells.(i) <- v) { Sm.epoch = 4; entries = [| (10, 5, 2, 40) |] };
  let shrunk = Sm.decode (fun i -> cells.(i)) in
  check int "shrunk epoch" 4 shrunk.epoch;
  check table "shrunk entries" [ [ 10; 5; 2; 40 ] ] (rows shrunk.entries)

(* Routing a migrated address is one read of the published image: one
   scheduler step whatever the table size or the hit position (a
   seqlock double collect paid 5 + 2k steps for a hit on entry k). *)
let test_shard_of_one_step () =
  let _dev, tm = mk_sharded ~n:4 () in
  init_accounts tm 100;
  List.iter
    (fun src -> check ok "split" `Ok (Sh_wf.split tm ~src ~dst:(src + 1)))
    [ 0; 1; 2 ];
  check int "three migrated ranges" 3 (Array.length (Sh_wf.map_entries tm));
  let steps f = Sched.total_steps (Sched.run [| f |]) in
  let base = steps (fun () -> ()) in
  let cost g = steps (fun () -> ignore (Sh_wf.shard_of tm g)) - base in
  (* root slot 3 of shard s is root [3 * 4 + s], in the upper (moved) half *)
  List.iter
    (fun s ->
      let g = Sh_wf.root tm ((3 * 4) + s) in
      check int (Printf.sprintf "range %d rehomed" s) (s + 1) (Sh_wf.shard_of tm g);
      check int (Printf.sprintf "hit on entry %d: one step" s) 1 (cost g))
    [ 0; 1; 2 ];
  check int "native address: one step" 1 (cost (Sh_wf.root tm 0))

let () =
  Alcotest.run "shard"
    [
      ( "shard-map",
        [
          Alcotest.test_case "lookup" `Quick test_map_lookup;
          Alcotest.test_case "settle" `Quick test_map_settle;
          Alcotest.test_case "codec" `Quick test_map_codec;
          Alcotest.test_case "shard-of-one-step" `Quick test_shard_of_one_step;
        ] );
      ( "router",
        [
          Alcotest.test_case "structures-unchanged" `Quick
            test_structures_over_router;
          Alcotest.test_case "single-shard-parallel" `Quick
            test_single_shard_parallel;
          Alcotest.test_case "cross-transfer-conservation" `Quick
            test_cross_transfer_conservation;
          Alcotest.test_case "cross-alloc-free" `Quick test_cross_alloc_free;
          Alcotest.test_case "crash-recovery" `Quick test_crash_recovery;
          Alcotest.test_case "rollback-recovery" `Quick
            test_rollback_recovery;
          Alcotest.test_case "lf-volatile-router" `Quick
            test_lf_router_volatile;
          Alcotest.test_case "reopened-token-unique-lf" `Quick
            Token_reuse_lf.run;
          Alcotest.test_case "reopened-token-unique-wf" `Quick
            Token_reuse_wf.run;
        ] );
      ( "capture-scope",
        [
          Alcotest.test_case "cross-read-ends-at-unpin" `Quick
            test_cross_read_capture_scoped;
          Alcotest.test_case "cross-batch-captures-nothing" `Quick
            test_cross_batch_captures_nothing;
          Alcotest.test_case "pin-dropped-for-alloc" `Quick
            test_batch_pin_dropped_for_alloc;
        ] );
      ( "batch-recovery",
        [
          Alcotest.test_case "roll-forward-after-status-pwb" `Quick
            test_batch_roll_forward;
          Alcotest.test_case "roll-back-multi-member" `Quick
            test_batch_rollback_multi;
          Alcotest.test_case "partially-helped-batch" `Quick
            test_batch_partially_helped;
        ] );
      ( "torn-batch-sweep",
        [
          Alcotest.test_case "planted-fault-found" `Quick
            test_torn_batch_found;
          Alcotest.test_case "clean-batcher-survives" `Quick
            test_torn_batch_clean_battery;
        ] );
      ( "migration",
        [
          Alcotest.test_case "split-merge-roundtrip" `Quick
            test_migrate_split_merge;
          Alcotest.test_case "migrate-under-traffic" `Quick
            test_migrate_under_traffic;
          Alcotest.test_case "validation" `Quick test_migrate_validation;
          Alcotest.test_case "range-table-full" `Quick
            test_migrate_table_full;
          Alcotest.test_case "crash-roll-forward" `Quick
            test_migration_roll_forward;
          Alcotest.test_case "crash-roll-back" `Quick
            test_migration_roll_back;
          Alcotest.test_case "reopen-adoption" `Quick
            test_migration_reopen_adoption;
          Alcotest.test_case "torn-migration-manifests" `Quick
            test_torn_migration_manifests;
          Alcotest.test_case "flip-inside-apply" `Quick test_flip_inside_apply;
        ] );
    ]
