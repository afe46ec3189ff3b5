(* Tests for the OneFile core: write-set, lock-free and wait-free
   transactions, helping, persistence and null recovery. *)

open Runtime
module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module Writeset = Onefile.Writeset

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* Both algorithms share types; parametrize tests with a vtable. *)
type api = {
  label : string;
  mk :
    ?mode:Region.mode -> ?size:int -> ?max_threads:int -> ?ws_cap:int -> unit -> Lf.t;
  update : Lf.t -> (Lf.tx -> int) -> int;
  read : Lf.t -> (Lf.tx -> int) -> int;
  recover : Lf.t -> unit;
}

let lf_api =
  {
    label = "lf";
    mk =
      (fun ?mode ?size ?max_threads ?ws_cap () ->
        Lf.create ?mode ?size ?max_threads ?ws_cap ());
    update = Lf.update_tx;
    read = Lf.read_tx;
    recover = Lf.recover;
  }

let wf_api =
  {
    label = "wf";
    mk =
      (fun ?mode ?size ?max_threads ?ws_cap () ->
        Wf.create ?mode ?size ?max_threads ?ws_cap ());
    update = Wf.update_tx;
    read = Wf.read_tx;
    recover = Wf.recover;
  }

let apis = [ lf_api; wf_api ]

let foreach_api f =
  List.iter (fun api -> f api) apis

(* ------------------------------------------------------------------ *)
(* Write-set *)

let test_ws_put_find () =
  let ws = Writeset.create 100 in
  Writeset.put ws 10 1;
  Writeset.put ws 20 2;
  check (Alcotest.option int) "find" (Some 1) (Writeset.find ws 10);
  check (Alcotest.option int) "miss" None (Writeset.find ws 30);
  Writeset.put ws 10 9;
  check (Alcotest.option int) "replaced" (Some 9) (Writeset.find ws 10);
  check int "size counts unique addresses" 2 (Writeset.size ws)

let test_ws_hash_transition () =
  let ws = Writeset.create 200 in
  for i = 1 to 100 do
    Writeset.put ws (i * 8) i
  done;
  check int "size" 100 (Writeset.size ws);
  for i = 1 to 100 do
    check (Alcotest.option int) "find after hash transition" (Some i)
      (Writeset.find ws (i * 8))
  done;
  Writeset.put ws 8 42;
  check (Alcotest.option int) "replace in hash mode" (Some 42) (Writeset.find ws 8);
  check int "size unchanged" 100 (Writeset.size ws)

let test_ws_clear_reuse () =
  let ws = Writeset.create 100 in
  for i = 1 to 60 do
    Writeset.put ws i i
  done;
  Writeset.clear ws;
  check bool "empty" true (Writeset.is_empty ws);
  check (Alcotest.option int) "stale entries gone" None (Writeset.find ws 5);
  Writeset.put ws 5 7;
  check (Alcotest.option int) "usable after clear" (Some 7) (Writeset.find ws 5)

let test_ws_overflow () =
  let ws = Writeset.create 4 in
  for i = 1 to 4 do
    Writeset.put ws i i
  done;
  check bool "overflow raises" true
    (match Writeset.put ws 5 5 with exception Failure _ -> true | () -> false)

let test_ws_iteration_order () =
  let ws = Writeset.create 10 in
  Writeset.put ws 3 30;
  Writeset.put ws 1 10;
  Writeset.put ws 2 20;
  let order = ref [] in
  Writeset.iter ws (fun a v -> order := (a, v) :: !order);
  check (Alcotest.list (Alcotest.pair int int)) "insertion order"
    [ (3, 30); (1, 10); (2, 20) ]
    (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Sequential transaction semantics (same for LF and WF) *)

let test_root_store_load api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  ignore (api.update t (fun tx -> Lf.store tx r0 77; 0));
  check int "read back" 77 (api.read t (fun tx -> Lf.load tx r0))

let test_read_after_write api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  let seen =
    api.update t (fun tx ->
        Lf.store tx r0 5;
        let a = Lf.load tx r0 in
        Lf.store tx r0 6;
        let b = Lf.load tx r0 in
        (a * 10) + b)
  in
  check int "tx sees own writes" 56 seen

let test_empty_update_is_readonly api () =
  let t = api.mk () in
  let st = Region.stats (Lf.region t) in
  let before = st.Pstats.commits in
  ignore (api.update t (fun tx -> Lf.load tx (Lf.root t 0)));
  (* LF commits nothing for an empty write-set; WF always commits the
     transactional result write of the published operation. *)
  if api.label = "lf" then
    check int "no commit for empty write-set" before st.Pstats.commits
  else check bool "wf committed its result" true (st.Pstats.commits > before)

let test_store_in_read_tx_rejected api () =
  let t = api.mk () in
  check bool "rejected" true
    (match api.read t (fun tx -> Lf.store tx (Lf.root t 0) 1; 0) with
    | exception Tm.Tm_intf.Store_in_read_tx -> true
    | _ -> false)

let test_alloc_in_tx api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  ignore
    (api.update t (fun tx ->
         let a = Lf.alloc tx 2 in
         Lf.store tx a 11;
         Lf.store tx (a + 1) 22;
         Lf.store tx r0 a;
         0));
  let v =
    api.read t (fun tx ->
        let a = Lf.load tx r0 in
        Lf.load tx a + Lf.load tx (a + 1))
  in
  check int "allocated payload persists" 33 v

(* ------------------------------------------------------------------ *)
(* Concurrency *)

let run_fibers ?(seed = 42) ?cores ?max_rounds n body =
  ignore (Sched.run ~seed ?cores ?max_rounds (Array.init n (fun i () -> body i)))

let test_concurrent_increments api () =
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let n = 6 and iters = 30 in
  run_fibers ~seed:17 n (fun _ ->
      for _ = 1 to iters do
        ignore
          (api.update t (fun tx ->
               let v = Lf.load tx r0 in
               Lf.store tx r0 (v + 1);
               0))
      done);
  check int "no lost increments" (n * iters) (api.read t (fun tx -> Lf.load tx r0))

let test_snapshot_consistency api () =
  (* Writers keep (r0, r1) equal; readers must never observe a torn pair. *)
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
  let tearing = ref 0 in
  let writer _ =
    for i = 1 to 40 do
      ignore
        (api.update t (fun tx ->
             Lf.store tx r0 i;
             Lf.store tx r1 i;
             0))
    done
  in
  let reader _ =
    for _ = 1 to 60 do
      let d = api.read t (fun tx -> Lf.load tx r1 - Lf.load tx r0) in
      if d <> 0 then incr tearing
    done
  in
  ignore
    (Sched.run ~seed:23
       [| (fun () -> writer 0); (fun () -> writer 1); (fun () -> reader 0); (fun () -> reader 1) |]);
  check int "no torn snapshots" 0 !tearing

let test_helping_occurs api () =
  (* Over-subscribed random schedule with large write-sets: the committer
     gets descheduled mid-apply, so helpers must finish some write-sets. *)
  let t = api.mk ~mode:Region.Volatile () in
  let st = Region.stats (Lf.region t) in
  ignore
    (Sched.run ~seed:5 ~cores:2 ~policy:Sched.Random_order
       (Array.init 8 (fun _ () ->
            for _ = 1 to 10 do
              ignore
                (api.update t (fun tx ->
                     for i = 0 to 7 do
                       Lf.store tx (Lf.root t i) (Lf.load tx (Lf.root t i) + 1)
                     done;
                     0))
            done)));
  check bool (api.label ^ ": helping happened") true (st.Pstats.helps > 0)

let test_dead_committer_completed api () =
  (* The decisive lock-freedom property: a thread that dies right after its
     commit CAS (write-set published, request open) must have its
     transaction completed by the surviving threads. *)
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
  let killed = ref false in
  let victim () =
    ignore
      (api.update t (fun tx ->
           Lf.store tx r0 111;
           Lf.store tx r1 222;
           0));
    (* runs forever so only the kill can end it *)
    while true do
      Sched.step_point ()
    done
  in
  let survivor () =
    for _ = 1 to 50 do
      Sched.step_point ()
    done;
    ignore (api.update t (fun tx -> Lf.store tx (Lf.root t 2) 1; 0))
  in
  let on_round sched =
    let _, tid, open_ = Lf.curtx_info t in
    if (not !killed) && open_ && tid = 0 then begin
      ignore (Sched.kill sched 0);
      killed := true
    end
  in
  ignore (Sched.run ~on_round ~max_rounds:5000 [| victim; survivor |]);
  check bool (api.label ^ ": committer was killed mid-apply") true !killed;
  check int "first write applied by survivor" 111 (api.read t (fun tx -> Lf.load tx r0));
  check int "second write applied by survivor" 222 (api.read t (fun tx -> Lf.load tx r1));
  let _, _, open_ = Lf.curtx_info t in
  check bool "request closed" false open_

let test_transfer_invariant api () =
  (* Classic bank transfer: total is invariant under concurrent transfers. *)
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
  ignore (api.update t (fun tx -> Lf.store tx r0 500; Lf.store tx r1 500; 0));
  run_fibers ~seed:31 4 (fun i ->
      for _ = 1 to 25 do
        ignore
          (api.update t (fun tx ->
               let a = Lf.load tx r0 and b = Lf.load tx r1 in
               let amount = 1 + (i mod 3) in
               Lf.store tx r0 (a - amount);
               Lf.store tx r1 (b + amount);
               0))
      done);
  let total = api.read t (fun tx -> Lf.load tx (Lf.root t 0) + Lf.load tx (Lf.root t 1)) in
  check int "conserved total" 1000 total

let test_concurrent_alloc_free api () =
  (* Each fiber repeatedly pushes and pops a private stack through shared
     memory; at the end nothing must be leaked. *)
  let t = api.mk ~mode:Region.Volatile () in
  let n = 4 in
  run_fibers ~seed:7 n (fun i ->
      let my_root = Lf.root t i in
      for _ = 1 to 10 do
        ignore
          (api.update t (fun tx ->
               let node = Lf.alloc tx 2 in
               Lf.store tx node 42;
               Lf.store tx (node + 1) (Lf.load tx my_root);
               Lf.store tx my_root node;
               0));
        ignore
          (api.update t (fun tx ->
               let node = Lf.load tx my_root in
               Lf.store tx my_root (Lf.load tx (node + 1));
               Lf.free tx node;
               0))
      done);
  check int "no leak" 0 (Lf.allocated_cells t)

(* ------------------------------------------------------------------ *)
(* Wait-free specifics *)

let test_wf_all_ops_complete_hostile_schedule () =
  (* Random scheduling with more fibers than cores; every operation must
     complete and the count must be exact. *)
  let t = wf_api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let n = 8 and iters = 15 in
  ignore
    (Sched.run ~seed:3 ~cores:2 ~policy:Sched.Random_order
       (Array.init n (fun _ () ->
            for _ = 1 to iters do
              ignore
                (Wf.update_tx t (fun tx ->
                     Lf.store tx r0 (Lf.load tx r0 + 1);
                     0))
            done)));
  check int "exact count" (n * iters) (Wf.read_tx t (fun tx -> Lf.load tx r0))

let test_wf_result_values_correct () =
  (* Results must be routed back to the right thread even when another
     thread executed the operation. *)
  let t = wf_api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let n = 6 in
  let results = Array.make n (-1) in
  run_fibers ~seed:13 n (fun i ->
      for _ = 1 to 10 do
        let r =
          Wf.update_tx t (fun tx ->
              let v = Lf.load tx r0 in
              Lf.store tx r0 (v + 1);
              v)
        in
        (* each op returns the pre-increment value: all must be distinct *)
        results.(i) <- r
      done);
  check int "total increments" 60 (Wf.read_tx t (fun tx -> Lf.load tx r0));
  Array.iteri (fun i r -> check bool (Printf.sprintf "fiber %d got result" i) true (r >= 0)) results

let test_wf_readonly_fallback () =
  (* With read_tries = 0, validating read-only transactions are forced
     through the operations array; they must still return correct
     values.  (The snapshot read_tx never falls back.) *)
  let t = Wf.create ~mode:Region.Volatile ~read_tries:0 () in
  let te = Telemetry.create () in
  Wf.attach_telemetry t te;
  let r0 = Wf.root t 0 in
  ignore (Wf.update_tx t (fun tx -> Wf.store tx r0 99; 0));
  let v =
    let out = ref 0 in
    run_fibers ~seed:2 2 (fun i ->
        if i = 0 then out := Wf.read_tx_validating t (fun tx -> Wf.load tx r0)
        else ignore (Wf.update_tx t (fun tx -> Wf.load tx r0)));
    !out
  in
  check int "fallback read returns value" 99 v;
  check int "read published once" 1 (Telemetry.get te "wf.fallbacks")

(* ------------------------------------------------------------------ *)
(* Real domains: same code under genuine parallelism *)

let test_real_domains_increments api () =
  let t = api.mk ~mode:Region.Volatile ~max_threads:4 () in
  let r0 = Lf.root t 0 in
  Parallel.run
    (Array.init 4 (fun _ () ->
         for _ = 1 to 50 do
           ignore
             (api.update t (fun tx ->
                  Lf.store tx r0 (Lf.load tx r0 + 1);
                  0))
         done));
  check int "exact under real domains" 200 (api.read t (fun tx -> Lf.load tx r0))

(* ------------------------------------------------------------------ *)
(* Edge cases *)

let test_ws_overflow_in_tx api () =
  let t = api.mk ~ws_cap:16 ~size:(1 lsl 14) () in
  check bool "oversized transaction rejected" true
    (match
       api.update t (fun tx ->
           for i = 0 to 63 do
             Lf.store tx (Lf.root t 0 + (i mod 4)) i
           done;
           (* distinct heap addresses to really overflow *)
           let a = Lf.alloc tx 32 in
           for i = 0 to 31 do
             Lf.store tx (a + i) i
           done;
           0)
     with
    | exception Failure _ -> true
    | _ -> false)

let test_zero_is_null api () =
  let t = api.mk () in
  (* fresh roots read as 0 = NULL, and alloc never returns 0 *)
  check int "root starts null" 0 (api.read t (fun tx -> Lf.load tx (Lf.root t 3)));
  let a = api.update t (fun tx -> Lf.alloc tx 2) in
  check bool "alloc non-null" true (a <> 0)

let test_many_small_txs_seq_monotone api () =
  let t = api.mk ~mode:Region.Volatile () in
  let r0 = Lf.root t 0 in
  let last = ref 0 in
  for i = 1 to 100 do
    ignore (api.update t (fun tx -> Lf.store tx r0 i; 0));
    let seq, _, _ = Lf.curtx_info t in
    check bool "curtx seq strictly grows" true (seq > !last);
    last := seq
  done

(* ------------------------------------------------------------------ *)
(* Persistence and recovery *)

let test_commit_durable api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  run_fibers 1 (fun _ -> ignore (api.update t (fun tx -> Lf.store tx r0 123; 0)));
  Region.crash (Lf.region t) ();
  api.recover t;
  check int "committed update survives crash" 123
    (api.read t (fun tx -> Lf.load tx r0))

let test_crash_atomicity_sweep api () =
  (* Writers keep the pair (r0, r1) equal.  Crash the system after every
     possible number of rounds and verify the pair is never torn and is one
     of the committed values. *)
  let tears = ref 0 and regressions = ref 0 in
  for stop_round = 1 to 60 do
    let t = api.mk ~size:(1 lsl 14) ~max_threads:8 ~ws_cap:64 () in
    let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
    let body i () =
      for k = 1 to 30 do
        ignore
          (api.update t (fun tx ->
               let x = (i * 1000) + k in
               Lf.store tx r0 x;
               Lf.store tx r1 x;
               0))
      done
    in
    ignore (Sched.run ~seed:stop_round ~max_rounds:stop_round [| body 1; body 2 |]);
    Region.crash (Lf.region t) ();
    api.recover t;
    let a = api.read t (fun tx -> Lf.load tx r0)
    and b = api.read t (fun tx -> Lf.load tx r1) in
    if a <> b then incr tears;
    if not (a = 0 || (a mod 1000 >= 1 && a mod 1000 <= 30)) then incr regressions
  done;
  check int (api.label ^ ": no torn recovered state") 0 !tears;
  check int (api.label ^ ": recovered value is a committed one") 0 !regressions

let test_crash_with_eviction api () =
  (* Same sweep but with adversarial cache eviction: arbitrary extra dirty
     lines persist.  Recovery must still produce a consistent pair. *)
  let tears = ref 0 in
  for stop_round = 1 to 40 do
    let t = api.mk ~size:(1 lsl 14) ~max_threads:8 ~ws_cap:64 () in
    let r0 = Lf.root t 0 and r1 = Lf.root t 1 in
    let body i () =
      for k = 1 to 20 do
        ignore
          (api.update t (fun tx ->
               let x = (i * 1000) + k in
               Lf.store tx r0 x;
               Lf.store tx r1 x;
               0))
      done
    in
    ignore (Sched.run ~seed:(100 + stop_round) ~max_rounds:stop_round [| body 1; body 2 |]);
    Region.crash (Lf.region t) ~evict_fraction:0.5 ~rng:(Rng.create stop_round) ();
    api.recover t;
    let a = api.read t (fun tx -> Lf.load tx r0)
    and b = api.read t (fun tx -> Lf.load tx r1) in
    if a <> b then incr tears
  done;
  check int (api.label ^ ": consistent under eviction") 0 !tears

let test_crash_no_alloc_leak api () =
  (* Transactions allocate and free; crash at arbitrary points must leave
     allocator metadata consistent with the reachable structure. *)
  let bad = ref 0 in
  for stop_round = 5 to 45 do
    let t = api.mk ~size:(1 lsl 14) ~max_threads:8 ~ws_cap:64 () in
    let r0 = Lf.root t 0 in
    let body () =
      for _ = 1 to 20 do
        ignore
          (api.update t (fun tx ->
               let node = Lf.alloc tx 2 in
               Lf.store tx node 1;
               Lf.store tx (node + 1) (Lf.load tx r0);
               Lf.store tx r0 node;
               0));
        ignore
          (api.update t (fun tx ->
               let node = Lf.load tx r0 in
               if node <> 0 then begin
                 Lf.store tx r0 (Lf.load tx (node + 1));
                 Lf.free tx node
               end;
               0))
      done
    in
    ignore (Sched.run ~seed:stop_round ~max_rounds:stop_round [| body; body |]);
    Region.crash (Lf.region t) ();
    api.recover t;
    (* count reachable nodes from r0 *)
    let reachable = ref 0 in
    let p = ref (api.read t (fun tx -> Lf.load tx r0)) in
    while !p <> 0 do
      incr reachable;
      p := api.read t (fun tx -> Lf.load tx (!p + 1))
    done;
    let expected = !reachable * Tm.Tm_alloc.block_cells 2 in
    if Lf.allocated_cells t <> expected then incr bad
  done;
  check int (api.label ^ ": allocator consistent after crash") 0 !bad

let test_recover_idempotent api () =
  let t = api.mk () in
  let r0 = Lf.root t 0 in
  run_fibers 2 (fun i -> ignore (api.update t (fun tx -> Lf.store tx r0 (i + 1); 0)));
  Region.crash (Lf.region t) ();
  api.recover t;
  let v1 = api.read t (fun tx -> Lf.load tx r0) in
  api.recover t;
  api.recover t;
  let v2 = api.read t (fun tx -> Lf.load tx r0) in
  check int "recover is idempotent" v1 v2

(* ------------------------------------------------------------------ *)
(* Cost accounting (the paper's §V-B table, unit-test version) *)

let test_lf_cost_counts () =
  let t = Lf.create () in
  let r = Lf.region t in
  let st = Region.stats r in
  (* warm up: make roots' lines dirty state irrelevant *)
  ignore (Lf.update_tx t (fun tx -> Lf.store tx (Lf.root t 0) 1; 0));
  let nw = 8 in
  let snap = Pstats.copy st in
  ignore
    (Lf.update_tx t (fun tx ->
         for i = 0 to nw - 1 do
           Lf.store tx (Lf.root t i) i
         done;
         0));
  let d = Pstats.diff st snap in
  (* pwb: 1 (request flush before the log is recycled — a deliberate +1
     over the paper, so a crash can never pair a stale-open durable
     request with a torn rewritten log) + ceil((2+Nw)/4) (log lines)
     + 1 (curTx) + data cache lines (flushes are line-deduped: the 8
     contiguous roots start line-aligned, so 8 words = 2 lines) *)
  let log_lines = (2 + nw + 3) / 4 in
  let data_lines = (nw + 3) / 4 in
  check int "pwb count" (2 + log_lines + data_lines) d.Pstats.pwb;
  check int "pfence count" 0 d.Pstats.pfence;
  (* CAS: commit + close-request; DCAS: one per word *)
  check int "cas count" 2 d.Pstats.cas;
  check int "dcas count" nw d.Pstats.dcas;
  check int "one commit" 1 d.Pstats.commits

let test_wf_cost_counts () =
  let t = Wf.create ~max_threads:4 () in
  let r = Lf.region t in
  let st = Region.stats r in
  ignore (Wf.update_tx t (fun tx -> Wf.store tx (Wf.root t 0) 1; 0));
  let nw = 8 in
  let snap = Pstats.copy st in
  ignore
    (Wf.update_tx t (fun tx ->
         for i = 0 to nw - 1 do
           Wf.store tx (Wf.root t i) i
         done;
         0));
  let d = Pstats.diff st snap in
  (* the WF row of the table: one extra pwb (operation publication) on
     top of the LF count (which includes the request flush); the result
     and opid-acknowledgment words add two to Nw.  Data flushes are
     line-deduped: 8 root words = 2 lines, and the result/ack pair of
     thread 0 shares one more line *)
  let nw' = nw + 2 in
  let log_lines = (2 + nw' + 3) / 4 in
  let data_lines = ((nw + 3) / 4) + 1 in
  check int "pwb count" (3 + log_lines + data_lines) d.Pstats.pwb;
  check int "pfence count" 0 d.Pstats.pfence;
  check int "dcas count" nw' d.Pstats.dcas;
  check int "one commit" 1 d.Pstats.commits

let () =
  let seq_cases =
    List.concat_map
      (fun api ->
        [
          Alcotest.test_case (api.label ^ ": root store/load") `Quick (test_root_store_load api);
          Alcotest.test_case (api.label ^ ": read-after-write") `Quick (test_read_after_write api);
          Alcotest.test_case (api.label ^ ": empty update") `Quick (test_empty_update_is_readonly api);
          Alcotest.test_case (api.label ^ ": read-tx rejects store") `Quick (test_store_in_read_tx_rejected api);
          Alcotest.test_case (api.label ^ ": alloc in tx") `Quick (test_alloc_in_tx api);
        ])
      apis
  in
  let conc_cases =
    List.concat_map
      (fun api ->
        [
          Alcotest.test_case (api.label ^ ": increments") `Quick (test_concurrent_increments api);
          Alcotest.test_case (api.label ^ ": snapshots") `Quick (test_snapshot_consistency api);
          Alcotest.test_case (api.label ^ ": helping") `Quick (test_helping_occurs api);
          Alcotest.test_case (api.label ^ ": dead committer") `Quick
            (test_dead_committer_completed api);
          Alcotest.test_case (api.label ^ ": transfers") `Quick (test_transfer_invariant api);
          Alcotest.test_case (api.label ^ ": alloc/free") `Quick (test_concurrent_alloc_free api);
          Alcotest.test_case (api.label ^ ": real domains") `Quick
            (test_real_domains_increments api);
          Alcotest.test_case (api.label ^ ": ws overflow") `Quick
            (test_ws_overflow_in_tx api);
          Alcotest.test_case (api.label ^ ": null pointer") `Quick
            (test_zero_is_null api);
          Alcotest.test_case (api.label ^ ": seq monotone") `Quick
            (test_many_small_txs_seq_monotone api);
        ])
      apis
  in
  let crash_cases =
    List.concat_map
      (fun api ->
        [
          Alcotest.test_case (api.label ^ ": commit durable") `Quick (test_commit_durable api);
          Alcotest.test_case (api.label ^ ": crash atomicity sweep") `Slow (test_crash_atomicity_sweep api);
          Alcotest.test_case (api.label ^ ": crash with eviction") `Slow (test_crash_with_eviction api);
          Alcotest.test_case (api.label ^ ": crash alloc leak") `Slow (test_crash_no_alloc_leak api);
          Alcotest.test_case (api.label ^ ": recover idempotent") `Quick (test_recover_idempotent api);
        ])
      apis
  in
  ignore foreach_api;
  Alcotest.run "onefile"
    [
      ( "writeset",
        [
          Alcotest.test_case "put/find/replace" `Quick test_ws_put_find;
          Alcotest.test_case "hash transition" `Quick test_ws_hash_transition;
          Alcotest.test_case "clear and reuse" `Quick test_ws_clear_reuse;
          Alcotest.test_case "overflow" `Quick test_ws_overflow;
          Alcotest.test_case "iteration order" `Quick test_ws_iteration_order;
        ] );
      ("sequential", seq_cases);
      ("concurrent", conc_cases);
      ( "wait-free",
        [
          Alcotest.test_case "hostile schedule completes" `Quick
            test_wf_all_ops_complete_hostile_schedule;
          Alcotest.test_case "results routed" `Quick test_wf_result_values_correct;
          Alcotest.test_case "read-only fallback" `Quick test_wf_readonly_fallback;
        ] );
      ("crash", crash_cases);
      ( "costs",
        [
          Alcotest.test_case "lock-free table row" `Quick test_lf_cost_counts;
          Alcotest.test_case "wait-free table row" `Quick test_wf_cost_counts;
        ] );
    ]
