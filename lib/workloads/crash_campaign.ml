open Runtime
module Region = Pmem.Region
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf

type report = { trials : int; torn : int; regressed : int; leaked : int }

let pp ppf r =
  Format.fprintf ppf "%d trials: torn=%d regressed=%d leaked=%d" r.trials
    r.torn r.regressed r.leaked

let empty = { trials = 0; torn = 0; regressed = 0; leaked = 0 }

let add a b =
  {
    trials = a.trials + b.trials;
    torn = a.torn + b.torn;
    regressed = a.regressed + b.regressed;
    leaked = a.leaked + b.leaked;
  }

(* One trial skeleton: build, run [stop] rounds, crash, recover, audit. *)
let trial ~stop ~evict ~build ~workload ~recover ~audit =
  let ctx = build () in
  ignore (Sched.run ~seed:stop ~max_rounds:stop (workload ctx));
  let region, rng = (fst ctx, Rng.create stop) in
  Region.crash region ~evict_fraction:evict ~rng ();
  recover ctx;
  audit ctx

(* --- OneFile SPS ------------------------------------------------- *)

module Sps_lf = Structures.Sps.Make (Lf)

(* Every trial builds a fresh TM; [?telemetry] threads them all into one
   registry, so e.g. its "recovery.runs" counter equals [report.trials]. *)
let attach telemetry tm =
  match telemetry with Some te -> Lf.attach_telemetry tm te | None -> ()

let onefile_sps ~wf ~trials ?(evict = 0.0) ?(sanitize = false) ?telemetry () =
  let n = 64 in
  let update = if wf then Wf.update_tx else Lf.update_tx in
  let build () =
    let tm = Lf.create ~size:(1 lsl 15) ~max_threads:4 ~ws_cap:128 () in
    if sanitize then ignore (Lf.sanitize tm);
    attach telemetry tm;
    let sps = Sps_lf.create tm ~root:0 ~n in
    (Lf.region tm, (tm, sps))
  in
  let workload (_, (tm, _sps)) =
    Array.init 3 (fun i () ->
        let rng = Rng.create (100 + i) in
        while Sched.now () < max_int do
          (* swaps written against the raw TM ops so that the [update]
             driver (lock-free or wait-free) is interchangeable *)
          ignore
            (update tm (fun tx ->
                 let header = Lf.load tx (Lf.root tm 0) in
                 let arr = Lf.load tx header in
                 let i = Rng.int rng n and j = Rng.int rng n in
                 let a = Lf.load tx (arr + i) and b = Lf.load tx (arr + j) in
                 Lf.store tx (arr + i) b;
                 Lf.store tx (arr + j) a;
                 0))
        done)
  in
  let recover (_, (tm, _)) = Lf.recover tm in
  let audit (_, (_, sps)) =
    let sum = Sps_lf.checksum sps in
    let expected = n * (n - 1) / 2 in
    {
      trials = 1;
      torn = (if sum <> expected then 1 else 0);
      regressed = 0;
      leaked = 0;
    }
  in
  let r = ref empty in
  for stop = 1 to trials do
    r := add !r (trial ~stop:(5 + (stop * 7)) ~evict ~build ~workload ~recover ~audit)
  done;
  !r

(* --- OneFile two queues ------------------------------------------ *)

module Q = Structures.Tm_queue.Make (Lf)

let onefile_queues ~wf ~trials ?(evict = 0.0) ?(sanitize = false) ?telemetry () =
  let items = 12 in
  let update = if wf then Wf.update_tx else Lf.update_tx in
  let build () =
    let tm = Lf.create ~size:(1 lsl 15) ~max_threads:4 ~ws_cap:128 () in
    if sanitize then ignore (Lf.sanitize tm);
    attach telemetry tm;
    let q1 = Q.create tm ~root:0 and q2 = Q.create tm ~root:1 in
    for i = 1 to items do
      Q.enqueue q1 i
    done;
    let base = Lf.allocated_cells tm in
    (Lf.region tm, (tm, q1, q2, base))
  in
  let workload (_, (tm, q1, q2, _)) =
    let h1 = Q.header_addr q1 and h2 = Q.header_addr q2 in
    Array.init 3 (fun _ () ->
        while Sched.now () < max_int do
          ignore
            (update tm (fun tx ->
                 (match Q.dequeue_in tx h1 with
                 | Some v -> Q.enqueue_in tx h2 v
                 | None -> (
                     match Q.dequeue_in tx h2 with
                     | Some v -> Q.enqueue_in tx h1 v
                     | None -> ()));
                 0))
        done)
  in
  let recover (_, (tm, _, _, _)) = Lf.recover tm in
  let audit (_, (tm, q1, q2, base)) =
    let l = List.sort compare (Q.to_list q1 @ Q.to_list q2) in
    let torn = if l <> List.init items (fun i -> i + 1) then 1 else 0 in
    let leaked = if Lf.allocated_cells tm <> base then 1 else 0 in
    { trials = 1; torn; regressed = 0; leaked }
  in
  let r = ref empty in
  for stop = 1 to trials do
    r := add !r (trial ~stop:(5 + (stop * 7)) ~evict ~build ~workload ~recover ~audit)
  done;
  !r

(* --- OneFile tree set -------------------------------------------- *)

module Tree = Structures.Tree_set.Make (Lf)

let onefile_tree ~wf ~trials ?(evict = 0.0) ?(sanitize = false) ?telemetry () =
  let keys = 48 in
  let update = if wf then Wf.update_tx else Lf.update_tx in
  let build () =
    let tm = Lf.create ~size:(1 lsl 15) ~max_threads:4 ~ws_cap:256 () in
    if sanitize then ignore (Lf.sanitize tm);
    attach telemetry tm;
    let tr = Tree.create tm ~root:0 in
    for i = 0 to (keys / 2) - 1 do
      ignore (Tree.add tr (2 * i))
    done;
    (Lf.region tm, (tm, tr))
  in
  let workload (_, (tm, tr)) =
    let header = Tree.header_addr tr in
    Array.init 3 (fun i () ->
        let rng = Rng.create (300 + i) in
        while Sched.now () < max_int do
          let k = Rng.int rng keys in
          ignore
            (update tm (fun tx ->
                 if Tree.contains_in tx header k then
                   ignore (Tree.remove_in tx header k)
                 else ignore (Tree.add_in tx header k);
                 0))
        done)
  in
  let recover (_, (tm, _)) = Lf.recover tm in
  let audit (_, (tm, tr)) =
    let sound = Tree.check_invariants tr in
    let expected_nodes = Tree.cardinal tr in
    let node_block = Tm.Tm_alloc.block_cells 4 in
    let header_blocks = Tm.Tm_alloc.block_cells 2 in
    let leaked =
      if Lf.allocated_cells tm <> (expected_nodes * node_block) + header_blocks
      then 1
      else 0
    in
    { trials = 1; torn = (if sound then 0 else 1); regressed = 0; leaked }
  in
  let r = ref empty in
  for stop = 1 to trials do
    r := add !r (trial ~stop:(9 + (stop * 11)) ~evict ~build ~workload ~recover ~audit)
  done;
  !r

(* --- Romulus / PMDK SPS pairs ------------------------------------ *)

let pair_campaign ~trials ~evict ~mk ~update ~read ~recover_fn ~region_fn =
  let r = ref empty in
  for k = 1 to trials do
    let stop = 5 + (k * 7) in
    let t = mk () in
    let r0 = ref 0 and r1 = ref 0 in
    let workload =
      Array.init 3 (fun i () ->
          let rng = Rng.create (200 + i) in
          while Sched.now () < max_int do
            let x = Rng.int rng 100_000 in
            ignore
              (update t (fun store2 -> store2 x))
          done)
    in
    ignore r0;
    ignore r1;
    ignore (Sched.run ~seed:stop ~max_rounds:stop workload);
    Region.crash (region_fn t) ~evict_fraction:evict ~rng:(Rng.create stop) ();
    recover_fn t;
    let a, b = read t in
    r :=
      add !r
        { trials = 1; torn = (if a <> b then 1 else 0); regressed = 0; leaked = 0 }
  done;
  !r

let romulus_sps ~lr ~trials ?(evict = 0.0) () =
  let module R = Baselines.Romulus_log in
  let mk () =
    if lr then Baselines.Romulus_lr.create ~half:(1 lsl 13) ~max_threads:4 ()
    else R.create ~half:(1 lsl 13) ~max_threads:4 ()
  in
  pair_campaign ~trials ~evict ~mk
    ~update:(fun t f ->
      R.update_tx t (fun tx ->
          f (fun x ->
              R.store tx (R.root t 0) x;
              R.store tx (R.root t 1) x;
              0)))
    ~read:(fun t ->
      ( R.read_tx t (fun tx -> R.load tx (R.root t 0)),
        R.read_tx t (fun tx -> R.load tx (R.root t 1)) ))
    ~recover_fn:R.recover ~region_fn:R.region

let pmdk_sps ~trials ?(evict = 0.0) () =
  let module P = Baselines.Pmdk in
  pair_campaign ~trials ~evict
    ~mk:(fun () -> P.create ~size:(1 lsl 14) ~max_threads:4 ())
    ~update:(fun t f ->
      P.update_tx t (fun tx ->
          f (fun x ->
              P.store tx (P.root t 0) x;
              P.store tx (P.root t 1) x;
              0)))
    ~read:(fun t ->
      ( P.read_tx t (fun tx -> P.load tx (P.root t 0)),
        P.read_tx t (fun tx -> P.load tx (P.root t 1)) ))
    ~recover_fn:P.recover ~region_fn:P.region
