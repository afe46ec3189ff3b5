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
  (* Large write-sets, so helpers must finish some of them.  WF: an
     over-subscribed random schedule deschedules committers mid-apply.
     LF: a claim loser waits for the close (claim_budget = 64 polls)
     before it helps, so the schedule parks every committer right after
     its commit CAS for longer than that. *)
  let t = api.mk ~mode:Region.Volatile () in
  let st = Region.stats (Lf.region t) in
  let fibers =
    Array.init 8 (fun _ () ->
        for _ = 1 to 10 do
          ignore
            (api.update t (fun tx ->
                 for i = 0 to 7 do
                   Lf.store tx (Lf.root t i) (Lf.load tx (Lf.root t i) + 1)
                 done;
                 0))
        done)
  in
  ignore
    (if api.label = "lf" then Sched.run_controlled ~pick:(Parking.pick ~park:1000 t) fibers
     else Sched.run ~seed:5 ~cores:2 ~policy:Sched.Random_order fibers);
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

(* A closure that raises anything but [Abort] must reach only its own
   caller.  Under WF another thread may be the one running it inside an
   aggregate: that thread must abort its attempt and leave the operation
   to its owner, instead of raising the owner's exception itself. *)
let test_raise_reaches_only_caller api () =
  let t = api.mk ~mode:Region.Volatile () in
  let r1 = Lf.root t 1 in
  let a_err = ref "" and b_err = ref "" and b_res = ref (-1) in
  let a () =
    match api.update t (fun tx -> ignore (Lf.load tx (Lf.root t 0)); failwith "boom") with
    | exception Failure m -> a_err := m
    | _ -> ()
  in
  let b () =
    for _ = 1 to 50 do
      Sched.step_point ()
    done;
    match
      api.update t (fun tx ->
          let v = Lf.load tx r1 + 1 in
          Lf.store tx r1 v;
          v)
    with
    | exception Failure m -> b_err := m
    | v -> b_res := v
  in
  ignore (Sched.run ~seed:1 [| a; b |]);
  check Alcotest.string (api.label ^ ": the raising caller sees its exception") "boom" !a_err;
  check Alcotest.string (api.label ^ ": the other caller sees none") "" !b_err;
  check int (api.label ^ ": the other increment returns") 1 !b_res;
  check int (api.label ^ ": and commits once") 1 (api.read t (fun tx -> Lf.load tx r1))

(* Eight WF operations of 20 stores each fit a 64-entry write-set alone
   (22 entries with the result and acknowledgment words), but an
   aggregate of three does not.  The overflow must not fail the
   operations: each one the overflow hits runs alone instead. *)
let test_wf_aggregate_overflow () =
  let n = 8 and iters = 5 and width = 20 in
  let t =
    Wf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~max_threads:n ~ws_cap:64
      ~num_roots:(n * width) ()
  in
  let done_ = ref 0 and errors = ref [] in
  run_fibers ~seed:4 n (fun i ->
      for _ = 1 to iters do
        match
          Wf.update_tx t (fun tx ->
              for j = 0 to width - 1 do
                let a = Wf.root t ((i * width) + j) in
                Wf.store tx a (Wf.load tx a + 1)
              done;
              0)
        with
        | exception Failure m -> errors := m :: !errors
        | _ -> incr done_
      done);
  check (Alcotest.list Alcotest.string) "no operation failed" [] !errors;
  check int "every operation completed" (n * iters) !done_;
  for a = 0 to (n * width) - 1 do
    check int "each word incremented once per operation" iters
      (Wf.read_tx t (fun tx -> Wf.load tx (Wf.root t a)))
  done

(* Run [fibers] one step at a time: each stage [(f, cond)] runs fiber [f]
   until [cond ()] holds or [f] is done, then the rest run round-robin.
   Returns whether every stage was reached. *)
let run_stages fibers stages =
  let stages = ref stages in
  let rec pick ~step ~enabled ~last =
    match !stages with
    | (f, cond) :: rest when cond () || not (Array.mem f enabled) ->
        stages := rest;
        pick ~step ~enabled ~last
    | (f, _) :: _ -> f
    | [] -> enabled.(step mod Array.length enabled)
  in
  ignore (Sched.run_controlled ~pick fibers);
  !stages = []

(* Count the loads of each (fiber, address) on [region]: the returned
   function reads the count. *)
let count_loads region =
  let tbl = Hashtbl.create 16 in
  let get key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_load { addr; _ } ->
           let key = (Sched.self (), addr) in
           Hashtbl.replace tbl key (get key + 1)
       | _ -> ()));
  fun f addr -> get (f, addr)

(* A pop that finds the counter at 0 raises.  Two aggregates at one
   snapshot can disagree on it, and the pop must then be committed
   exactly when its caller gets a result.  The schedule: Q publishes a
   pop; C2 claims the commit and, before P publishes a push, scans past
   P's slot into Q's pop; P publishes; C1 spends its wait budget,
   aggregates P's push, and reads Q's pop as published; C2 finds the
   counter at 0, marks the pop [Solo] and aborts; Q runs alone to the
   end; then everyone runs.  C1's aggregate pops the pushed unit, so Q
   may see "empty" only if C1's commit fails. *)
let test_wf_raise_in_one_aggregate () =
  let module C = Onefile.Core0 in
  let p = 0 and q = 1 and c1 = 2 and c2 = 3 in
  let t = C.create ~mode:Region.Volatile ~max_threads:4 ~num_roots:8 () in
  let x = C.root t 0 and m = C.root t 1 in
  let push tx =
    C.store tx x (C.load tx x + 1);
    0
  in
  let pop tx =
    ignore (C.load tx m);
    let v = C.load tx x in
    if v = 0 then failwith "empty";
    C.store tx x (v - 1);
    v
  in
  let own i tx =
    C.store tx (C.root t (4 + i)) 1;
    0
  in
  let q_result = ref "" in
  let fibers =
    [|
      (fun () -> ignore (C.wf_update_tx t push));
      (fun () ->
        match C.wf_update_tx t pop with
        | exception Failure e -> q_result := e
        | v -> q_result := string_of_int v);
      (fun () -> ignore (C.wf_update_tx t (own c1)));
      (fun () -> ignore (C.wf_update_tx t (own c2)));
    |]
  in
  let region = C.region t in
  let published u () = C.published t u in
  let loads = count_loads region in
  let staged =
    run_stages fibers
      [
        (q, published q);
        (c2, fun () -> loads c2 m >= 1);
        (p, published p);
        (c1, fun () -> loads c1 m >= 1);
        (c2, fun () -> loads c2 (C.ack_cell t c2) >= 2 (* aborted and looped *));
        (q, fun () -> false (* to the end *));
      ]
  in
  Region.set_observer region None;
  check bool "every stage ran" true staged;
  check bool "both aggregates ran the pop" true (loads c1 m >= 1 && loads c2 m >= 1);
  check Alcotest.string "the pop saw an empty counter" "empty" !q_result;
  check int "so the pushed unit is still there" 1
    (C.lf_read_tx t (fun tx -> C.load tx x));
  check (Alcotest.list int) "the other operations committed" [ 1; 1 ]
    (List.map (fun i -> C.lf_read_tx t (fun tx -> C.load tx (C.root t (4 + i)))) [ c1; c2 ])

(* Every applier puts a commit's entries in ascending address order, and
   a thread's result sits one cell below its acknowledgment, so the
   result is in place when the acknowledgment lands.  The schedule: X
   publishes; A aggregates X's operation with its own, wins the commit
   CAS and stops for good; H helps until X's acknowledgment lands; X
   runs to the end. *)
let test_wf_result_before_ack () =
  let module C = Onefile.Core0 in
  let x = 0 and a = 1 and h = 2 in
  let t = C.create ~mode:Region.Volatile ~max_threads:3 ~num_roots:2 () in
  let region = C.region t in
  let result = ref (-1) in
  let fibers =
    [|
      (fun () -> result := C.wf_update_tx t (fun _ -> 42));
      (fun () -> ignore (C.wf_update_tx t (fun _ -> 0)));
      (fun () -> C.help t ~me:h (C.read_curtx t));
    |]
  in
  let peek addr = (Region.peek region addr).Word.v in
  let res_at_ack = ref (-1) in
  let acked () =
    peek (C.ack_cell t x) <> 0
    && begin
         res_at_ack := peek (C.res_cell t x);
         true
       end
  in
  let ct0 = peek C.curtx_cell in
  let staged =
    run_stages fibers
      [
        (x, fun () -> C.published t x);
        (a, fun () -> peek C.curtx_cell > ct0);
        (h, acked);
        (x, fun () -> false);
      ]
  in
  check bool "every stage ran" true staged;
  check int "the result word holds the result when the ack lands" 42 !res_at_ack;
  check int "the owner returns its result" 42 !result

(* The sanitizer's verdict is not a closure's own error: a planted
   opacity fault that fires only when another thread runs the closure
   inside its aggregate must still stop the run, not be turned into a
   [Solo] operation that its owner then runs cleanly. *)
let test_wf_violation_in_aggregate_reported () =
  let module C = Onefile.Core0 in
  let t = C.create ~mode:Region.Volatile ~max_threads:2 ~num_roots:2 () in
  let c = C.sanitize t in
  let r = C.root t 0 in
  let planted tx =
    if Sched.self () <> 0 then Check.Tmcheck.tx_load c ~addr:r ~v:7 ~s:max_int;
    C.store tx r 1;
    0
  in
  let fibers =
    [|
      (fun () -> ignore (C.wf_update_tx t planted));
      (fun () -> ignore (C.wf_update_tx t (fun tx -> C.store tx (C.root t 1) 1; 0)));
    |]
  in
  (* fiber 0 publishes, then fiber 1 runs first and aggregates its closure *)
  let pick ~step:_ ~enabled ~last:_ =
    if (not (C.published t 0)) || not (Array.mem 1 enabled) then enabled.(0)
    else 1
  in
  match Sched.run_controlled ~pick fibers with
  | exception Check.Tmcheck.Violation v ->
      check Alcotest.string "reported as an opacity violation" "opacity" v.rule
  | _ -> Alcotest.fail "the planted violation was swallowed"

(* One elected aggregator per commit: with eight fibers incrementing
   their own roots in lockstep, each closure runs about once and almost
   no attempt loses its commit CAS.  Without an election each of the
   eight threads would run every published closure and all but one
   would lose the CAS. *)
let test_wf_one_aggregator () =
  let n = 8 and iters = 20 in
  let t = Wf.create ~mode:Region.Volatile ~max_threads:n () in
  let te = Telemetry.create () in
  Wf.attach_telemetry t te;
  run_fibers ~seed:9 n (fun i ->
      for k = 1 to iters do
        let v =
          Wf.update_tx t (fun tx ->
              let r = Wf.root t i in
              let v = Wf.load tx r + 1 in
              Wf.store tx r v;
              v)
        in
        check int "result routed to its caller" k v
      done);
  let g = Telemetry.get te in
  let published = g "wf.published" and aggregated = g "wf.aggregated" in
  check int "every operation published" (n * iters) published;
  check bool
    (Printf.sprintf "closure runs per operation %d/%d <= 1.5" aggregated published)
    true
    (2 * aggregated <= 3 * published);
  check bool
    (Printf.sprintf "aborts %d <= commits %d / 10" (g "tx.aborts") (g "tx.commits"))
    true
    (10 * g "tx.aborts" <= g "tx.commits");
  check bool "claims taken" true (g "tx.claims" > 0);
  for i = 0 to n - 1 do
    check int "exact count" iters (Wf.read_tx t (fun tx -> Wf.load tx (Wf.root t i)))
  done

(* Increment root [i] through [update]; the result is the new count. *)
let increment update t i =
  update t (fun tx ->
      let r = Lf.root t i in
      let v = Lf.load tx r + 1 in
      Lf.store tx r v;
      v)

(* A claimer killed mid-aggregate (WF) or between its claim and its
   commit CAS (LF) delays the others by at most the wait budget: every
   other operation completes with its exact result, and recovery drops
   the stale claim. *)
let test_killed_claimer api ~n ~iters () =
  let t = api.mk ~mode:Region.Volatile ~max_threads:n () in
  let te = Telemetry.create () in
  Lf.attach_telemetry t te;
  let results = Array.make n [] in
  let victim = ref (-1) in
  let body i () =
    for _ = 1 to iters do
      results.(i) <- increment api.update t i :: results.(i)
    done
  in
  let on_round sched =
    if !victim < 0 && Sched.round sched > 100 then begin
      let cseq, ctid = Onefile.Core0.claim_info t in
      let seq, _, open_ = Lf.curtx_info t in
      if cseq = seq + 1 && not open_ then begin
        ignore (Sched.kill sched ctid);
        victim := ctid
      end
    end
  in
  ignore (Sched.run ~seed:6 ~on_round ~max_rounds:200_000 (Array.init n body));
  check bool "a claimer was killed" true (!victim >= 0);
  check bool "a waiter spent its budget" true (Telemetry.get te "tx.claim_timeouts" > 0);
  for i = 0 to n - 1 do
    if i <> !victim then begin
      check (Alcotest.list int)
        (Printf.sprintf "fiber %d completed every operation" i)
        (List.init iters (fun k -> iters - k))
        results.(i);
      check int "exact count" iters (api.read t (fun tx -> Lf.load tx (Lf.root t i)))
    end
  done;
  api.recover t;
  check (Alcotest.pair int int) "recovery drops the claim" (0, 0)
    (Onefile.Core0.claim_info t)

(* A helper that presumes the owner stalled claims the owner's log chunk
   by chunk, from a chunk spread by its tid distance from the owner, so
   helpers of one stalled owner take different chunks.  The owner
   (slot 0) publishes an [n]-entry LF log of consecutive roots and CASes
   curTx, and never runs again; helper 4 of 8 polls its request for the
   budget, writes curTx back and starts at chunk [4 * nchunks / 8] = 1,
   entry 8, for 16 and 24 entries alike (a whole-log pass spread the
   same way would start at entry [4 * n / 8]: 8, then 12). *)
let test_stalled_help_spread n () =
  let module C = Onefile.Core0 in
  let mt = 8 and helper = 4 in
  let t = C.create ~mode:Region.Volatile ~max_threads:mt ~ws_cap:32 ~num_roots:n () in
  let ws = Writeset.create 32 in
  for i = 0 to n - 1 do
    Writeset.put ws (C.root t i) (100 + i)
  done;
  let ct = C.read_curtx t in
  let seq = ct.Word.v + 1 in
  C.publish_log t ~me:0 ws ~seq ~split:false;
  check bool "commit cas"
    true
    (Region.cas1 (C.region t) C.curtx_cell ct (Word.make seq 0));
  let first = ref (-1) in
  Region.set_observer (C.region t)
    (Some
       (function
       | Region.Ev_cas { addr; ok = true; dcas = true; _ } when !first < 0 ->
           first := addr
       | _ -> ()));
  ignore
    (Sched.run_controlled
       ~pick:(fun ~step:_ ~enabled ~last:_ -> enabled.(0))
       [| (fun () -> C.help t ~me:helper (C.read_curtx t)) |]);
  Region.set_observer (C.region t) None;
  check int "first DCAS at chunk 1" (C.root t 8) !first;
  for i = 0 to n - 1 do
    check int "entry applied" (100 + i) (C.lf_read_tx t (fun tx -> C.load tx (C.root t i)))
  done;
  let _, _, open_ = C.curtx_info t in
  check bool "request closed" false open_

(* The aggregate scans only the slots in use: one thread's operation
   takes as many scheduling steps on a 64-slot instance as on a 1-slot
   one, where reading every slot's announcement would take 63 more. *)
let test_wf_scans_used_slots () =
  let module C = Onefile.Core0 in
  let steps max_threads =
    let t = C.create ~mode:Region.Volatile ~max_threads () in
    let te = Telemetry.create () in
    C.attach_telemetry t te;
    ignore (C.wf_update_tx t (fun tx -> C.store tx (C.root t 0) 1; 0));
    let attempts () = Telemetry.get te "tx.aborts" + Telemetry.get te "tx.commits" in
    let a0 = attempts () in
    let s =
      Sched.run [| (fun () -> ignore (C.wf_update_tx t (fun tx -> C.store tx (C.root t 0) 2; 0))) |]
    in
    check int "one attempt" 1 (attempts () - a0);
    Sched.total_steps s
  in
  check int "steps on 64 slots" (steps 1) (steps 64)

(* ------------------------------------------------------------------ *)
(* The LF commit claim *)

(* Only the thread that will commit writes a redo log, and only a thread
   that writes data flushes curTx: four fibers incrementing their own
   roots in lockstep contend for every commit, yet each commit costs what
   it costs alone — four pwbs (request preflush, one log line, curTx, the
   roots' data line) and two CASes (the commit and the close). *)
let test_lf_lost_commit_flushes_nothing () =
  let n = 4 and iters = 20 in
  let t = Lf.create ~max_threads:n () in
  let st = Region.stats (Lf.region t) in
  run_fibers ~seed:9 n (fun i ->
      for k = 1 to iters do
        check int "result routed to its caller" k (increment Lf.update_tx t i)
      done);
  let commits = st.Pstats.commits in
  check int "one commit per increment" (n * iters) commits;
  check int "pwb: four per commit" (4 * commits) st.Pstats.pwb;
  check int "cas: two per commit" (2 * commits) st.Pstats.cas;
  for i = 0 to n - 1 do
    check int "exact count" iters (Lf.read_tx t (fun tx -> Lf.load tx (Lf.root t i)))
  done

(* A claim loser waits for the winner's commit to close and retries at
   it instead of helping: with four fibers incrementing their own roots
   in lockstep, no commit is helped and no fiber loads another fiber's
   redo log (its numStores or entries). *)
let test_lf_losers_wait_not_help () =
  let module C = Onefile.Core0 in
  let n = 4 and iters = 20 in
  let t = Lf.create ~max_threads:n () in
  let region = Lf.region t in
  let st = Region.stats region in
  let foreign_log_loads = ref 0 in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_load { addr; _ } ->
           for u = 0 to n - 1 do
             if u <> Sched.self () && addr > C.req_cell t u && addr < C.req_cell t (u + 1)
             then incr foreign_log_loads
           done
       | _ -> ()));
  run_fibers ~seed:9 n (fun i ->
      for k = 1 to iters do
        check int "result routed to its caller" k (increment Lf.update_tx t i)
      done);
  Region.set_observer region None;
  check int "one commit per increment" (n * iters) st.Pstats.commits;
  check int "no commit helped" 0 st.Pstats.helps;
  check int "no load of a foreign redo log" 0 !foreign_log_loads;
  for i = 0 to n - 1 do
    check int "exact count" iters (Lf.read_tx t (fun tx -> Lf.load tx (Lf.root t i)))
  done

(* A claim loser that sees the winner's request close begins its retry
   at that curTx, with no curTx load.  Script: the winner (slot 0) claims
   the commit; the loser (slot 1) runs its closure, finds the claim held
   and polls curTx once; the winner publishes and CASes curTx; the loser
   sees curTx move and polls the open request once; the winner applies
   and closes; the loser resumes.  Both increment root 0. *)
let test_lf_retry_at_close () =
  let module C = Onefile.Core0 in
  let t = C.create ~mode:Region.Volatile ~max_threads:2 ~ws_cap:32 ~num_roots:4 () in
  let region = C.region t in
  let te = Telemetry.create () in
  C.attach_telemetry t te;
  let waits () = Telemetry.get te "tx.claim_waits" in
  let seq0, _, _ = C.curtx_info t in
  let closed = ref false and after = ref [] in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_cas { addr; ok = true; _ } when addr = C.req_cell t 0 -> closed := true
       | Region.Ev_load { addr; _ } when !closed && Sched.self () = 1 ->
           after := addr :: !after
       | _ -> ()));
  let results = Array.make 2 0 in
  let fibers = Array.init 2 (fun i () -> results.(i) <- increment C.lf_update_tx t 0) in
  let staged =
    run_stages fibers
      [
        (0, fun () -> C.claim_info t = (seq0 + 1, 0));
        (1, fun () -> waits () >= 1);
        ( 0,
          fun () ->
            let seq, _, _ = C.curtx_info t in
            seq = seq0 + 1 );
        (1, fun () -> waits () >= 2);
        (0, fun () -> !closed);
      ]
  in
  Region.set_observer region None;
  check bool "every stage ran" true staged;
  let after = List.rev !after in
  check bool "the loser saw the close, then loaded its closure's word" true
    (match after with r :: w :: _ -> r = C.req_cell t 0 && w = C.root t 0 | _ -> false);
  check bool "no curTx load after the close" false (List.mem C.curtx_cell after);
  check (Alcotest.pair int int) "both increments, in commit order" (1, 2)
    (results.(0), results.(1));
  check int "one lost attempt" 1 (Telemetry.get te "tx.aborts");
  check int "no help" 0 (Telemetry.get te "tx.helps")

(* A closure that raises hands its caller a result read at the closed
   curTx it ran at, so the update raises [ro_stable] there before it
   re-raises: a snapshot read that starts after the raise must see that
   commit.  Script: a registered reader reads the unit; the owner (slot
   0) pops it, claims the commit, CASes curTx and closes its request, and
   is held before its own [ro_stable] bump; the loser (slot 1), which
   waited for that close, retries at it and finds the counter empty; the
   reader reads again. *)
let test_lf_raise_at_close () =
  let module C = Onefile.Core0 in
  let o = 0 and l = 1 and r = 2 in
  let t = C.create ~mode:Region.Volatile ~max_threads:3 ~ws_cap:32 ~num_roots:4 () in
  let region = C.region t in
  let x = C.root t 0 in
  ignore
    (C.lf_update_tx t (fun tx ->
         C.store tx x 1;
         0));
  let te = Telemetry.create () in
  C.attach_telemetry t te;
  let waits () = Telemetry.get te "tx.claim_waits" in
  let seq0, _, _ = C.curtx_info t in
  let closed = ref false in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_cas { addr; ok = true; _ } when addr = C.req_cell t o -> closed := true
       | _ -> ()));
  let pop tx =
    let v = C.load tx x in
    if v = 0 then failwith "empty";
    C.store tx x (v - 1);
    v
  in
  let results = Array.make 2 "" and reads = ref [] in
  let fibers =
    [|
      (fun () -> results.(o) <- string_of_int (C.lf_update_tx t pop));
      (fun () ->
        match C.lf_update_tx t pop with
        | exception Failure e -> results.(l) <- e
        | v -> results.(l) <- string_of_int v);
      (fun () ->
        for _ = 1 to 2 do
          reads := C.lf_read_tx t (fun tx -> C.load tx x) :: !reads
        done);
    |]
  in
  let staged =
    run_stages fibers
      [
        (r, fun () -> !reads <> []);
        (o, fun () -> C.claim_info t = (seq0 + 1, o));
        (l, fun () -> waits () >= 1);
        ( o,
          fun () ->
            let seq, _, _ = C.curtx_info t in
            seq = seq0 + 1 );
        (l, fun () -> waits () >= 2);
        (o, fun () -> !closed);
        (l, fun () -> false (* to the end *));
        (r, fun () -> false);
      ]
  in
  Region.set_observer region None;
  check bool "every stage ran" true staged;
  check (Alcotest.pair Alcotest.string Alcotest.string) "the owner popped, the loser found it empty"
    ("1", "empty") (results.(o), results.(l));
  check (Alcotest.list int) "the read after the raise sees the pop" [ 0; 1 ] !reads;
  check int "no help" 0 (Telemetry.get te "tx.helps")

(* A winner parked after its commit CAS for longer than a claim loser's
   budget is helped to completion: the losers spend the budget in the
   wait for the close and then finish the commit themselves, and every
   operation returns its exact result.  Each fiber increments a shared
   root and its own. *)
let test_lf_parked_winner_helped () =
  let n = 4 and iters = 10 in
  let t = Lf.create ~mode:Region.Volatile ~max_threads:n () in
  let te = Telemetry.create () in
  Lf.attach_telemetry t te;
  let shared = Array.make n [] and own = Array.make n [] in
  ignore
    (Sched.run_controlled ~pick:(Parking.pick ~park:1000 t)
       (Array.init n (fun i () ->
            for _ = 1 to iters do
              shared.(i) <- increment Lf.update_tx t n :: shared.(i);
              own.(i) <- increment Lf.update_tx t i :: own.(i)
            done)));
  check bool "a waiter spent its budget" true (Telemetry.get te "tx.claim_timeouts" > 0);
  check bool "a parked commit was helped" true (Telemetry.get te "tx.helps" > 0);
  for i = 0 to n - 1 do
    check (Alcotest.list int)
      (Printf.sprintf "fiber %d: own increments" i)
      (List.init iters (fun k -> iters - k))
      own.(i)
  done;
  check (Alcotest.list int) "shared increments: each count returned once"
    (List.init (n * iters) (fun k -> k + 1))
    (List.sort compare (List.concat (Array.to_list shared)));
  check int "shared count" (n * iters) (Lf.read_tx t (fun tx -> Lf.load tx (Lf.root t n)))

(* The owner (slot 0) writes roots 0..3 through [update], a one-chunk
   log, and a helper (slot 1) starts once the commit is open.  [stages t
   polls] runs after the owner's commit CAS; [polls ()] counts the
   helper's loads of the owner's request.  Returns the helper's loads of
   the owner's log entries, its curTx write-backs, its other write-backs,
   its DCASes and the helps counted. *)
let idle_helper_run update stages =
  let module C = Onefile.Core0 in
  let t = C.create ~max_threads:2 ~ws_cap:32 ~num_roots:4 () in
  let region = C.region t in
  let seq0, _, _ = C.curtx_info t in
  let polls = ref 0 and entry_loads = ref 0 in
  let curtx_pwbs = ref 0 and data_pwbs = ref 0 and dcas = ref 0 in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_load { addr; _ } when Sched.self () = 1 ->
           if addr = C.req_cell t 0 then incr polls
           else if addr > C.nstores_cell t 0 && addr < C.req_cell t 1 then
             incr entry_loads
       | Region.Ev_pwb { line } when Sched.self () = 1 ->
           if line = Region.line_of C.curtx_cell then incr curtx_pwbs else incr data_pwbs
       | Region.Ev_cas { dcas = true; _ } when Sched.self () = 1 -> incr dcas
       | _ -> ()));
  let fibers =
    [|
      (fun () ->
        ignore
          (update t (fun tx ->
               for i = 0 to 3 do
                 C.store tx (C.root t i) (10 + i)
               done;
               0)));
      (fun () -> C.help t ~me:1 (C.read_curtx t));
    |]
  in
  let opened () =
    let seq, _, _ = C.curtx_info t in
    seq > seq0
  in
  let staged = run_stages fibers ((0, opened) :: stages t (fun () -> !polls)) in
  Region.set_observer region None;
  check bool "every stage ran" true staged;
  let _, _, open_ = C.curtx_info t in
  check bool "request closed" false open_;
  for i = 0 to 3 do
    check int "owner's word" (10 + i) (C.lf_read_tx t (fun tx -> C.load tx (C.root t i)))
  done;
  (!entry_loads, !curtx_pwbs, !data_pwbs, !dcas, (Region.stats region).Pstats.helps)

(* A helper of a running owner's one-chunk log, LF or WF, waits for the
   close: the owner is held after its commit CAS while the helper polls
   its request ten times, fewer than the budget, then applies and
   closes; the helper returns without a load of the log's entries, a
   DCAS or a write-back. *)
let test_helper_waits_for_owner update () =
  let module C = Onefile.Core0 in
  let loads, curtx_pwbs, data_pwbs, dcas, helps =
    idle_helper_run update (fun t polls ->
        let closed () =
          let _, _, open_ = C.curtx_info t in
          not open_
        in
        [ (1, fun () -> polls () >= 10); (0, closed); (1, fun () -> false) ])
  in
  check int "no load of a log entry" 0 loads;
  check int "no DCAS" 0 dcas;
  check int "no curTx write-back" 0 curtx_pwbs;
  check int "no data write-back" 0 data_pwbs;
  check int "no help counted" 0 helps

(* A helper whose owner applied every entry and then never closes
   presumes it stalled once the budget is spent: it writes curTx back
   once, as recovery does, then applies and closes the request. *)
let test_stalled_helper_writes_curtx_once () =
  let module C = Onefile.Core0 in
  let _, curtx_pwbs, _, _, _ =
    idle_helper_run C.lf_update_tx (fun t _ ->
        let region = C.region t in
        let applied () =
          List.for_all
            (fun i -> (Region.peek region (C.root t i)).Word.v = 10 + i)
            [ 0; 1; 2; 3 ]
        in
        [ (0, applied); (1, fun () -> false) ])
  in
  check int "one curTx write-back" 1 curtx_pwbs

(* ------------------------------------------------------------------ *)
(* WF helpers split the apply *)

(* A WF aggregate of more than one chunk of 8 entries is applied chunk
   by chunk: the aggregator and each helper claim a chunk, apply it,
   write its lines back and mark it done.  These tests stage the owner
   (slot 4) committing one operation that writes 34 roots: 36 sorted
   entries (its result and acknowledgment, then the roots), five chunks.
   Helpers 0..3 publish an increment of their own root each after the
   owner's commit CAS, so they find the commit open and help it; helper
   [d] starts at chunk [d + 1]. *)
let coop_owner = 4
let coop_roots = 34

let coop_instance () =
  Onefile.Core0.create ~max_threads:5 ~ws_cap:64 ~num_roots:40 ()

(* the owner's operation: root i := 1000 + i; returns 7 *)
let coop_owner_op t tx =
  let module C = Onefile.Core0 in
  for i = 0 to coop_roots - 1 do
    C.store tx (C.root t i) (1000 + i)
  done;
  7

let coop_fibers t results =
  let module C = Onefile.Core0 in
  Array.init 5 (fun f () ->
      if f = coop_owner then results.(f) <- [ C.wf_update_tx t (coop_owner_op t) ]
      else
        for _ = 1 to 2 do
          let r = C.root t (coop_roots + f) in
          let v =
            C.wf_update_tx t (fun tx ->
                let v = C.load tx r + 1 in
                C.store tx r v;
                v)
          in
          results.(f) <- results.(f) @ [ v ]
        done)

let check_coop_results t results =
  let module C = Onefile.Core0 in
  check (Alcotest.list int) "owner's result" [ 7 ] results.(coop_owner);
  for f = 0 to 3 do
    check (Alcotest.list int) (Printf.sprintf "helper %d's increments" f) [ 1; 2 ]
      results.(f)
  done;
  for i = 0 to coop_roots - 1 do
    check int "owner's word" (1000 + i) (C.lf_read_tx t (fun tx -> C.load tx (C.root t i)))
  done

(* [true] while commit [seq] is open *)
let coop_during t seq () =
  let s, _, open_ = Onefile.Core0.curtx_info t in
  s = seq && open_

(* Stage the owner held right after it claims chunk 0 of commit [seq]
   while helper [d] applies chunk [d + 1]; then it applies its own chunk,
   finds the others done and closes. *)
let run_owner_parked t ~seq results =
  let module C = Onefile.Core0 in
  let claimed k () = C.chunk_info t k = (seq, false) in
  let finished k () = C.chunk_info t k = (seq, true) in
  let closed () =
    let s, _, open_ = C.curtx_info t in
    s = seq && not open_
  in
  run_stages (coop_fibers t results)
    [
      (coop_owner, claimed 0);
      (0, finished 1);
      (1, finished 2);
      (2, finished 3);
      (3, finished 4);
      (coop_owner, closed);
    ]

(* With the owner held after its chunk-0 claim, every entry is put
   exactly once, so no DCAS fails, and each of the commit's cache lines
   is written back once. *)
let test_coop_owner_parked () =
  let module C = Onefile.Core0 in
  let t = coop_instance () in
  let region = C.region t in
  let seq0, _, _ = C.curtx_info t in
  let seq = seq0 + 1 in
  let log_lines =
    List.sort_uniq compare
      (Region.line_of (C.res_cell t coop_owner)
      :: Region.line_of (C.ack_cell t coop_owner)
      :: List.init coop_roots (fun i -> Region.line_of (C.root t i)))
  in
  let pwbs = Hashtbl.create 16 and fails = ref 0 in
  let during_commit = coop_during t seq in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_pwb { line } when List.mem line log_lines && during_commit () ->
           Hashtbl.replace pwbs line
             (1 + Option.value ~default:0 (Hashtbl.find_opt pwbs line))
       | Region.Ev_cas { ok = false; dcas = true; _ } when during_commit () -> incr fails
       | _ -> ()));
  let results = Array.make 5 [] in
  let staged = run_owner_parked t ~seq results in
  Region.set_observer region None;
  check bool "every stage ran" true staged;
  check int "no failed DCAS" 0 !fails;
  List.iter
    (fun line ->
      check int
        (Printf.sprintf "line %d written back once" line)
        1
        (Option.value ~default:0 (Hashtbl.find_opt pwbs line)))
    log_lines;
  check_coop_results t results

(* The owner's chunk-0 claim follows its curTx write-back, so the
   helpers that see it skip theirs: with the owner held after that claim,
   curTx is written back once for the whole commit, by the owner. *)
let test_coop_curtx_once () =
  let module C = Onefile.Core0 in
  let t = coop_instance () in
  let region = C.region t in
  let seq0, _, _ = C.curtx_info t in
  let seq = seq0 + 1 in
  let during_commit = coop_during t seq in
  let curtx_pwbs = ref [] in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_pwb { line } when line = Region.line_of C.curtx_cell && during_commit () ->
           curtx_pwbs := Sched.self () :: !curtx_pwbs
       | _ -> ()));
  let results = Array.make 5 [] in
  let staged = run_owner_parked t ~seq results in
  Region.set_observer region None;
  check bool "every stage ran" true staged;
  check (Alcotest.list int) "curTx written back once, by the owner" [ coop_owner ]
    !curtx_pwbs;
  check_coop_results t results

(* Held right after its commit CAS, the owner has neither written curTx
   back nor claimed chunk 0, so the helpers must write curTx back
   themselves: every helper that DCASes an entry of the commit has
   written curTx back first.  They apply chunks 1-4, spend their wait on
   chunk 0, apply it too and close. *)
let test_coop_owner_parked_at_cas () =
  let module C = Onefile.Core0 in
  let t = coop_instance () in
  let region = C.region t in
  let seq0, _, _ = C.curtx_info t in
  let seq = seq0 + 1 in
  let during_commit = coop_during t seq in
  let flushed = Array.make 5 false and dcased = Array.make 5 false in
  let unflushed_dcas = ref [] in
  Region.set_observer region
    (Some
       (function
       | Region.Ev_pwb { line } when line = Region.line_of C.curtx_cell && during_commit () ->
           flushed.(Sched.self ()) <- true
       | Region.Ev_cas { ok = true; dcas = true; _ } when during_commit () ->
           let f = Sched.self () in
           dcased.(f) <- true;
           if not flushed.(f) then unflushed_dcas := f :: !unflushed_dcas
       | _ -> ()));
  let results = Array.make 5 [] in
  let last = ref (-1) in
  (* the owner alone until its CAS; then the helpers round-robin while
     the commit is open; then everyone *)
  let pick ~step:_ ~enabled ~last:_ =
    let s, _, open_ = C.curtx_info t in
    let cands =
      if s < seq then [ coop_owner ]
      else if s = seq && open_ then List.filter (( <> ) coop_owner) (Array.to_list enabled)
      else Array.to_list enabled
    in
    let cands = List.filter (fun f -> Array.mem f enabled) cands in
    let f =
      match (List.find_opt (fun f -> f > !last) cands, cands) with
      | Some f, _ -> f
      | None, f :: _ -> f
      | None, [] -> enabled.(0)
    in
    last := f;
    f
  in
  ignore (Sched.run_controlled ~pick (coop_fibers t results));
  Region.set_observer region None;
  check bool "the owner made no DCAS during the commit" false dcased.(coop_owner);
  check bool "several helpers applied entries" true
    (List.length (List.filter Fun.id (Array.to_list dcased)) >= 2);
  check (Alcotest.list int) "no helper DCASed before writing curTx back" [] !unflushed_dcas;
  check_coop_results t results

(* Recovery helps a split commit whose owner died after writing curTx
   back and before claiming chunk 0.  Recovery writes curTx back itself,
   so it may claim chunk 0 too: it applies every chunk without waiting
   for an owner that is gone. *)
let test_coop_recovery_claims_chunk0 () =
  let module C = Onefile.Core0 in
  let t = coop_instance () in
  let region = C.region t in
  let te = Telemetry.create () in
  C.attach_telemetry t te;
  let seq0, _, _ = C.curtx_info t in
  let seq = seq0 + 1 in
  let results = Array.make 5 [] in
  let durable () = (Region.peek_durable region C.curtx_cell).Word.v = seq in
  let pick ~step:_ ~enabled ~last:_ =
    if Array.mem coop_owner enabled then coop_owner else enabled.(0)
  in
  ignore
    (Sched.run_controlled ~pick
       ~on_step:(fun s -> if durable () then Sched.stop s)
       (coop_fibers t results));
  check bool "stopped with curTx durable at the commit" true (durable ());
  check (Alcotest.pair int bool) "chunk 0 unclaimed" (0, false) (C.chunk_info t 0);
  Region.crash region ();
  C.recover t;
  check int "recovery helped" 1 (Telemetry.get te "recovery.helped");
  check int "no chunk wait" 0 (Telemetry.get te "tx.chunk_waits");
  check int "no chunk timeout" 0 (Telemetry.get te "tx.chunk_timeouts");
  for i = 0 to coop_roots - 1 do
    check int "owner's word" (1000 + i) (C.lf_read_tx t (fun tx -> C.load tx (C.root t i)))
  done

(* A helper held forever right after its claim: the owner's wait spends
   [claim_budget] polls on that chunk, applies it itself and closes, all
   before the helper runs again. *)
let test_coop_helper_parked () =
  let module C = Onefile.Core0 in
  let t = coop_instance () in
  let te = Telemetry.create () in
  C.attach_telemetry t te;
  let seq0, _, _ = C.curtx_info t in
  let seq = seq0 + 1 in
  let results = Array.make 5 [] in
  let at_owner_return = ref (0, 0, (0, 0, true)) in
  let fibers = coop_fibers t results in
  let owner = fibers.(coop_owner) in
  fibers.(coop_owner) <-
    (fun () ->
      owner ();
      at_owner_return :=
        ( Telemetry.get te "tx.chunk_waits",
          Telemetry.get te "tx.chunk_timeouts",
          C.curtx_info t ));
  let staged =
    run_stages fibers
      [
        (coop_owner, fun () -> C.curtx_info t = (seq, coop_owner, true));
        (0, fun () -> C.chunk_info t 1 = (seq, false));
        (coop_owner, fun () -> false);
        (1, fun () -> false);
        (2, fun () -> false);
        (3, fun () -> false);
      ]
  in
  check bool "every stage ran" true staged;
  let waits, timeouts, curtx = !at_owner_return in
  check bool "the owner's wait spent the budget" true (waits >= 64);
  check int "one wait timed out" 1 timeouts;
  check (Alcotest.triple int int bool) "the owner closed the commit" (seq, coop_owner, false)
    curtx;
  check_coop_results t results

(* Sorted, the owner's result and acknowledgment come first and then the
   roots; roots 20 and 21 share a cache line and land at entries 7 and
   8, across the nominal 8-entry chunk boundary.  The chunk's end moves
   past that line, so the line is written back once. *)
let test_coop_line_across_boundary () =
  let module C = Onefile.Core0 in
  let t = C.create ~max_threads:1 ~ws_cap:64 ~num_roots:56 () in
  let roots = [ 0; 4; 8; 12; 16; 20; 21; 24; 28; 32; 36; 40; 44; 48; 52 ] in
  let r20 = C.root t 20 and r21 = C.root t 21 in
  check int "roots 20 and 21 share a line" (Region.line_of r20) (Region.line_of r21);
  check bool "the owner's cells sort first" true (C.ack_cell t 0 < C.root t 0);
  let seq0, _, _ = C.curtx_info t in
  let line_pwbs = ref 0 in
  Region.set_observer (C.region t)
    (Some
       (function
       | Region.Ev_pwb { line } when line = Region.line_of r20 -> incr line_pwbs
       | _ -> ()));
  let r =
    C.wf_update_tx t (fun tx ->
        List.iter (fun i -> C.store tx (C.root t i) (500 + i)) roots;
        3)
  in
  Region.set_observer (C.region t) None;
  check int "result" 3 r;
  check (Alcotest.pair int bool) "applied in three chunks" (seq0 + 1, true)
    (C.chunk_info t 2);
  check int "the shared line written back once" 1 !line_pwbs;
  List.iter
    (fun i ->
      check int "word applied" (500 + i) (C.lf_read_tx t (fun tx -> C.load tx (C.root t i))))
    roots

(* Every redo log is published sorted by address, whatever the order of
   the write-set: 500 entries at random heap addresses of a 2^18-cell
   region, whose addresses take five radix passes. *)
let test_log_sorted () =
  let module C = Onefile.Core0 in
  let t = C.create ~size:(1 lsl 18) ~max_threads:1 ~ws_cap:512 ~num_roots:4 () in
  let rng = Rng.create 5 in
  let ws = Writeset.create 512 in
  let lo = C.root t 3 + 1 in
  while Writeset.size ws < 500 do
    let a = lo + Rng.int rng ((1 lsl 18) - lo) in
    Writeset.put ws a (a * 3)
  done;
  let seq0, _, _ = C.curtx_info t in
  C.publish_log t ~me:0 ws ~seq:(seq0 + 1) ~split:false;
  let region = C.region t in
  let entry i = Region.peek region (C.entry_cell t 0 i) in
  check int "entry count" 500 (Region.peek region (C.nstores_cell t 0)).Word.v;
  for i = 0 to 499 do
    let e = entry i in
    check int "value follows its address" (e.Word.v * 3) e.Word.s;
    if i > 0 then check bool "sorted" true ((entry (i - 1)).Word.v < e.Word.v)
  done

(* A snapshot reader's registration finds a split commit that was
   applied without capture ([nocap]) and helps it to completion before
   it pins, so its snapshot includes that commit.  The owner is held
   right after its capture decision, before it claims any chunk. *)
let test_coop_reader_helps () =
  let module C = Onefile.Core0 in
  let t = C.create ~max_threads:2 ~ws_cap:64 ~num_roots:24 () in
  let n = 20 in
  let seq0, _, _ = C.curtx_info t in
  let seq = seq0 + 1 in
  let sum = ref (-1) and res = ref (-1) in
  let st = Region.stats (C.region t) in
  let fibers =
    [|
      (fun () ->
        res :=
          C.wf_update_tx t (fun tx ->
              for i = 0 to n - 1 do
                C.store tx (C.root t i) (i + 1)
              done;
              0));
      (fun () ->
        sum :=
          C.wf_read_tx t (fun tx ->
              let s = ref 0 in
              for i = 0 to n - 1 do
                s := !s + C.load tx (C.root t i)
              done;
              !s));
    |]
  in
  let staged =
    run_stages fibers
      [
        (0, fun () -> snd (C.capture_info t) >= seq);
        (1, fun () -> false);
      ]
  in
  check bool "every stage ran" true staged;
  check int "the reader helped" 1 st.Pstats.helps;
  check (Alcotest.pair int bool) "the commit was split" (seq, true) (C.chunk_info t 2);
  check int "the snapshot includes the split commit" (n * (n + 1) / 2) !sum;
  check int "owner's result" 0 !res

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
  (* the WF row of the table: the LF count (which includes the request
     flush) with the result and opid-acknowledgment words adding two to
     Nw; the announcement is volatile, so it costs no pwb.  Data flushes
     are line-deduped: 8 root words = 2 lines, and the result/ack pair of
     thread 0 shares one more line *)
  let nw' = nw + 2 in
  let log_lines = (2 + nw' + 3) / 4 in
  let data_lines = ((nw + 3) / 4) + 1 in
  check int "pwb count" (2 + log_lines + data_lines) d.Pstats.pwb;
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
          Alcotest.test_case (api.label ^ ": raise reaches only caller") `Quick
            (test_raise_reaches_only_caller api);
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
          Alcotest.test_case "aggregate overflow runs alone" `Quick
            test_wf_aggregate_overflow;
          Alcotest.test_case "raise in one aggregate, result in another" `Quick
            test_wf_raise_in_one_aggregate;
          Alcotest.test_case "sanitizer verdict in an aggregate" `Quick
            test_wf_violation_in_aggregate_reported;
          Alcotest.test_case "result in place when the ack lands" `Quick
            test_wf_result_before_ack;
          Alcotest.test_case "helper of a running owner waits" `Quick
            (test_helper_waits_for_owner Onefile.Core0.wf_update_tx);
          Alcotest.test_case "one aggregator per commit" `Quick test_wf_one_aggregator;
          Alcotest.test_case "killed claimer" `Quick
            (test_killed_claimer wf_api ~n:6 ~iters:10);
          Alcotest.test_case "stalled owner, spread chunk claims" `Quick
            (test_stalled_help_spread 16);
          Alcotest.test_case "stalled owner, three chunks" `Quick
            (test_stalled_help_spread 24);
          Alcotest.test_case "aggregate scans used slots" `Quick test_wf_scans_used_slots;
        ] );
      ( "wf-coop",
        [
          Alcotest.test_case "owner parked, helpers apply" `Quick test_coop_owner_parked;
          Alcotest.test_case "helper parked after its claim" `Quick test_coop_helper_parked;
          Alcotest.test_case "curTx written back once" `Quick test_coop_curtx_once;
          Alcotest.test_case "owner parked at its CAS" `Quick test_coop_owner_parked_at_cas;
          Alcotest.test_case "recovery claims chunk 0" `Quick test_coop_recovery_claims_chunk0;
          Alcotest.test_case "line across the chunk boundary" `Quick
            test_coop_line_across_boundary;
          Alcotest.test_case "reader registration helps" `Quick test_coop_reader_helps;
          Alcotest.test_case "redo log published sorted" `Quick test_log_sorted;
        ] );
      ( "lf-claim",
        [
          Alcotest.test_case "lost commit flushes nothing" `Quick
            test_lf_lost_commit_flushes_nothing;
          Alcotest.test_case "killed claimer" `Quick
            (test_killed_claimer lf_api ~n:4 ~iters:20);
          Alcotest.test_case "idle helper flushes no curTx" `Quick
            (test_helper_waits_for_owner Onefile.Core0.lf_update_tx);
          Alcotest.test_case "stalled owner, one curTx write-back" `Quick
            test_stalled_helper_writes_curtx_once;
          Alcotest.test_case "losers wait, not help" `Quick test_lf_losers_wait_not_help;
          Alcotest.test_case "retry at the close" `Quick test_lf_retry_at_close;
          Alcotest.test_case "raise at the close" `Quick test_lf_raise_at_close;
          Alcotest.test_case "parked winner helped" `Quick test_lf_parked_winner_helped;
        ] );
      ("crash", crash_cases);
      ( "costs",
        [
          Alcotest.test_case "lock-free table row" `Quick test_lf_cost_counts;
          Alcotest.test_case "wait-free table row" `Quick test_wf_cost_counts;
        ] );
    ]
