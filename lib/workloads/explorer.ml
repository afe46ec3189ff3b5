(* Oracle-checked schedule/crash exploration of OneFile: the TM-specific
   driver over Runtime.Explore.  Strategy entry points build fresh OneFile
   instances per execution, run a Proggen program under a controlled
   schedule (optionally crashing at a chosen region event), and diff the
   outcome against the sequential Seqtm oracle. *)

open Runtime
module Region = Pmem.Region
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module Seqtm = Tm.Seqtm
module Tmcheck = Check.Tmcheck
module J = Bench_json

module Run_seq = Proggen.Exec (Seqtm)

type fault =
  | No_fault
  | Durability_hole
  | Lost_update
  | Stale_dedup
  | Torn_commit_record
  | Torn_batch_record
  | Stale_ro_snapshot
  | Skip_nocap
  | Torn_migration
  | Help_curtx
  | Early_retry
  | Early_chunk_done

let fault_name = function
  | No_fault -> "none"
  | Durability_hole -> "durability-hole"
  | Lost_update -> "lost-update"
  | Stale_dedup -> "stale-dedup"
  | Torn_commit_record -> "torn-commit-record"
  | Torn_batch_record -> "torn-batch-record"
  | Stale_ro_snapshot -> "stale-ro-snapshot"
  | Skip_nocap -> "skip-nocap"
  | Torn_migration -> "torn-migration"
  | Help_curtx -> "help-curtx"
  | Early_retry -> "early-retry"
  | Early_chunk_done -> "early-chunk-done"

let fault_of_name s =
  List.find_opt
    (fun f -> fault_name f = s)
    [
      No_fault; Durability_hole; Lost_update; Stale_dedup; Torn_commit_record;
      Torn_batch_record; Stale_ro_snapshot; Skip_nocap; Torn_migration;
      Help_curtx; Early_retry; Early_chunk_done;
    ]

type config = {
  wf : bool;
  threads : int;
  shards : int;
  persistent : bool;
  sanitize : bool;
  fault : fault;
  migrate : bool;
  max_steps : int;
  oracle_cap : int;
  telemetry : Telemetry.t option;
}

let default =
  {
    wf = false;
    threads = 2;
    shards = 1;
    persistent = false;
    sanitize = true;
    fault = No_fault;
    migrate = false;
    max_steps = 50_000;
    oracle_cap = 50_000;
    telemetry = None;
  }

type evict = Evict_none | Evict_all | Evict_line of int
type crash_spec = { event : int; evict : evict }

type failure = {
  config : config;
  program : Proggen.program;
  schedule : int array;
  crash : crash_spec option;
  reason : string;
}

(* ------------------------------------------------------------------ *)
(* The sequential oracle                                               *)

(* Does some serialization explain the observables?  For a completed
   execution: an interleaving of the full per-thread programs whose Seqtm
   replay reproduces every result and the final observed state.  For a
   crashed one: an interleaving of per-thread prefixes, each covering at
   least the transactions that returned before the crash (those are
   durably committed: curTx is persisted before the log is applied, and
   commit durability is monotone along the total commit order), matching
   the returned results and the recovered state.  Transactions in flight
   at the crash may or may not have committed, so consumption beyond the
   returned count is allowed but not required. *)

type oracle_result = Explained | Unexplained | Capped

exception Found
exception Cap_hit

let oracle_explains ~memo ~mk_seq ~complete ~parts_a ~results ~done_ ~observed
    ~cap =
  let key =
    ( complete,
      Array.to_list done_,
      List.init (Array.length parts_a) (fun u ->
          Array.to_list (Array.sub results.(u) 0 done_.(u))),
      observed )
  in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
      let threads = Array.length parts_a in
      let counts = Array.map Array.length parts_a in
      let total = Array.fold_left ( + ) 0 counts in
      let consumed = Array.make threads 0 in
      let order = Array.make (max total 1) (0, 0) in
      let replays = ref 0 in
      let test depth =
        if !replays >= cap then raise Cap_hit;
        incr replays;
        let t = mk_seq () in
        match
          for d = 0 to depth - 1 do
            let u, i = order.(d) in
            let r = Run_seq.exec_txn t parts_a.(u).(i) in
            if i < done_.(u) && r <> results.(u).(i) then raise Exit
          done
        with
        | () -> if Run_seq.observe t = observed then raise Found
        | exception Exit -> ()
      in
      let rec go depth =
        let at_stop =
          if complete then depth = total
          else begin
            let ok = ref true in
            Array.iteri (fun u c -> if c < done_.(u) then ok := false) consumed;
            !ok
          end
        in
        if at_stop then test depth;
        for u = 0 to threads - 1 do
          if consumed.(u) < counts.(u) then begin
            order.(depth) <- (u, consumed.(u));
            consumed.(u) <- consumed.(u) + 1;
            go (depth + 1);
            consumed.(u) <- consumed.(u) - 1
          end
        done
      in
      let r =
        try
          go 0;
          Unexplained
        with
        | Found -> Explained
        | Cap_hit -> Capped
      in
      Hashtbl.add memo key r;
      r

(* ------------------------------------------------------------------ *)
(* The instance under test                                             *)

(* Re-open [fault] in one OneFile instance; the torn-record and
   torn-migration faults live in the router, which [build] plants. *)
let plant_engine fault tm =
  let f = Lf.faults tm in
  match fault with
  | No_fault | Torn_commit_record | Torn_batch_record | Torn_migration -> ()
  | Durability_hole -> f.drop_publish_pwb <- true
  | Lost_update -> f.stale_commit_snapshot <- true
  | Stale_dedup -> f.stale_dedup_flush <- true
  | Stale_ro_snapshot -> f.stale_ro_snapshot <- true
  | Skip_nocap -> f.skip_nocap <- true
  | Help_curtx -> f.skip_help_curtx_pwb <- true
  | Early_retry -> f.early_retry <- true
  | Early_chunk_done -> f.early_chunk_done <- true

(* One rig per OneFile front-end.  [Lf] and [Wf] share [Lf.t] and every
   function but [update_tx] and [read_tx_validating], so only [F] tells
   them apart.
   [build] makes the instance for [cfg] over a fresh [mode] region whose
   events go to [count], and returns (region to crash, transaction
   runner, observer, recovery, migrator fiber).  Its order numbers the
   crash sites: create, plant, telemetry, sanitizer, observer, then the
   router's [make], telemetry and faults. *)
module Rig (F : Tm.Tm_intf.S with type t = Lf.t) = struct
  module Sh = Tm.Tm_shard.Make (F)
  module Run = Proggen.Exec (F)
  module Run_sh = Proggen.Exec (Sh)

  let build cfg ~mode ~count =
    if cfg.shards <= 1 then begin
      let tm =
        Lf.create ~mode ~size:(1 lsl 12) ~max_threads:(max 1 cfg.threads)
          ~ws_cap:128 ()
      in
      plant_engine cfg.fault tm;
      Option.iter (Lf.attach_telemetry tm) cfg.telemetry;
      let region = Lf.region tm in
      let checker = if cfg.sanitize then Some (Lf.sanitize tm) else None in
      (* single observer slot: compose the sanitizer with the event counter *)
      Region.set_observer region
        (Some
           (fun ev ->
             (match checker with Some c -> Tmcheck.on_event c ev | None -> ());
             count region ev));
      ( region, Run.exec_txn tm, (fun () -> Run.observe tm),
        (fun () -> Lf.recover tm), None )
    end
    else begin
      (* sharded: per-shard instances over views of one partitioned device
         behind the Tm_shard router.  Sanitizers attach to each view's
         observer slot; the event counter and crash trigger sit on the
         device's (a view notifies both).  Crash sites are counted in
         device events, which include the router's control-block setup. *)
      let span = 1 lsl 12 in
      let device = Region.create ~mode (cfg.shards * span) in
      let views =
        Region.partition device (List.init cfg.shards (fun _ -> span))
      in
      (* the torn-migration fault needs a migrator fiber (one extra
         router thread) and a root count whose split range — and in
         particular the torn-off upper half of the half-length persisted
         entry — covers a root slot the program actually addresses:
         6 roots give 5 usable slots, a split moves slots 2..4 (router
         roots 4, 6, 8 at two shards) and the torn half is slots 3..4,
         putting live root 6 behind the stale route after a crash *)
      let with_mig = cfg.migrate || cfg.fault = Torn_migration in
      let mt = (max 1 cfg.threads) + if with_mig then 1 else 0 in
      let nroots = if with_mig then 6 else 8 in
      Region.set_observer device (Some (count device));
      let shards =
        Array.of_list
          (List.map
             (fun v ->
               Lf.create ~region:v ~instance:(Region.id v) ~max_threads:mt
                 ~ws_cap:128 ~num_roots:nroots ())
             views)
      in
      Array.iter (plant_engine cfg.fault) shards;
      Option.iter
        (fun te -> Array.iter (fun sh -> Lf.attach_telemetry sh te) shards)
        cfg.telemetry;
      if cfg.sanitize then Array.iter (fun sh -> ignore (Lf.sanitize sh)) shards;
      let tm = Sh.make ~max_threads:mt ~ro_snapshot:Lf.snapshot_ops shards in
      Option.iter (Sh.attach_telemetry tm) cfg.telemetry;
      if cfg.fault = Torn_commit_record then
        (Sh.faults tm).torn_commit_record <- true;
      if cfg.fault = Torn_batch_record then
        (Sh.faults tm).torn_batch_record <- true;
      if cfg.fault = Torn_migration then (Sh.faults tm).torn_migration <- true;
      ( device,
        Run_sh.exec_txn tm,
        (fun () -> Run_sh.observe tm),
        (fun () -> Sh.recover ~shard_recover:Lf.recover tm),
        if with_mig then Some (fun () -> ignore (Sh.split tm ~src:0 ~dst:1))
        else None )
    end
end

module Rig_lf = Rig (Lf)
module Rig_wf = Rig (Wf)

(* ------------------------------------------------------------------ *)
(* One controlled execution                                            *)

type exec = {
  recorded : Explore.recorded;
  verdict : string option;
  capped : bool;
  events : int;
  kinds : string;  (** one tag per event: l s c f w p x *)
  dirty_at_crash : int;  (** dirty lines when the forced crash hit; -1 if none *)
}

let kind_char : Region.event -> char = function
  | Region.Ev_load _ -> 'l'
  | Region.Ev_store _ -> 's'
  | Region.Ev_cas { ok; _ } -> if ok then 'c' else 'f'
  | Region.Ev_pwb _ -> 'w'
  | Region.Ev_pfence -> 'p'
  | Region.Ev_crash -> 'x'

let execute_one cfg ~memo prog ~pick ~crash =
  let mode =
    if cfg.persistent || crash <> None then Region.Persistent else Region.Volatile
  in
  let events = ref 0 in
  let kinds = Buffer.create 256 in
  let crash_now = ref false in
  let dirty_at_crash = ref (-1) in
  let count region ev =
    incr events;
    Buffer.add_char kinds (kind_char ev);
    match crash with
    | Some { event = k; _ } when !events = k ->
        crash_now := true;
        dirty_at_crash := Region.dirty_lines region
    | _ -> ()
  in
  (match cfg.telemetry with
  | Some te ->
      (* one registry across many short-lived instances: drop the previous
         instance's pull sources, keep the accumulated counters *)
      Telemetry.clear_sources te
  | None -> ());
  let region, exec_txn, observe, recover, migrator =
    (if cfg.wf then Rig_wf.build else Rig_lf.build) cfg ~mode ~count
  in
  let parts_a = Array.map Array.of_list (Proggen.split ~threads:cfg.threads prog) in
  let results = Array.map (fun p -> Array.make (Array.length p) 0) parts_a in
  let done_ = Array.make cfg.threads 0 in
  let prog_fibers =
    Array.init cfg.threads (fun u () ->
        Array.iteri
          (fun i txn ->
            results.(u).(i) <- exec_txn txn;
            done_.(u) <- i + 1)
          parts_a.(u))
  in
  let fibers =
    match migrator with
    | None -> prog_fibers
    | Some m ->
        (* the migrator is fiber 0: under the non-preemptive free schedule
           its split completes before the program fibers start, so the
           program's writes to the migrated range are post-flip — the ones
           a torn map entry loses across a crash *)
        Array.append [| m |] prog_fibers
  in
  let recorded =
    Explore.run ~max_steps:cfg.max_steps
      ~stop_when:(fun ~step:_ -> !crash_now)
      ~pick fibers
  in
  let capped = ref false in
  let mk_seq () = Seqtm.create ~size:(1 lsl 12) () in
  let oracle ~complete =
    let observed = observe () in
    match
      oracle_explains ~memo ~mk_seq ~complete ~parts_a ~results ~done_
        ~observed ~cap:cfg.oracle_cap
    with
    | Explained -> None
    | Capped ->
        capped := true;
        None
    | Unexplained ->
        Some
          (if complete then
             "final results/state match no serialization of the program"
           else
             "recovered state matches no crash-consistent serialization \
              extending the returned transactions")
  in
  let sanitizer_says v = "sanitizer: " ^ Tmcheck.violation_to_string v in
  let verdict =
    match (recorded.Explore.status, crash) with
    | Explore.Raised (Tmcheck.Violation v), _ -> Some (sanitizer_says v)
    | Explore.Raised e, _ -> Some ("exception: " ^ Printexc.to_string e)
    | Explore.Step_limit, _ ->
        Some
          (Printf.sprintf "no quiescence within the %d-step budget"
             cfg.max_steps)
    | Explore.Completed, _ -> (
        (* with [crash = Some _] this means the site index lies beyond the
           end of the execution: still a completed run, check it as one *)
        try oracle ~complete:true with
        | Tmcheck.Violation v -> Some (sanitizer_says v)
        | e -> Some ("exception: " ^ Printexc.to_string e))
    | Explore.Stopped, Some { evict; _ } -> (
        let evict_lines =
          match evict with
          | Evict_none -> []
          | Evict_all -> Region.dirty_line_indices region
          | Evict_line k -> (
              match List.nth_opt (Region.dirty_line_indices region) k with
              | Some l -> [ l ]
              | None -> [])
        in
        try
          Region.crash region ~evict_lines ();
          recover ();
          oracle ~complete:false
        with
        | Tmcheck.Violation v -> Some (sanitizer_says v)
        | e -> Some ("exception in recovery: " ^ Printexc.to_string e))
    | Explore.Stopped, None ->
        (* stop_when only fires at the requested crash event *)
        assert false
  in
  {
    recorded;
    verdict;
    capped = !capped;
    events = !events;
    kinds = Buffer.contents kinds;
    dirty_at_crash = !dirty_at_crash;
  }

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)

type report = {
  strategy : string;
  executions : int;
  coverage : Explore.coverage option;
  crash_sites : int;
  inconclusive : int;
  failure : failure option;
}

let mk_memo () = Hashtbl.create 64

let mk_failure config prog e crash reason =
  { config; program = prog; schedule = Explore.choices e.recorded; crash; reason }

let explore_exhaustive ?(config = default) ?(preemption_bound = 2)
    ?max_executions prog =
  let memo = mk_memo () in
  let inconclusive = ref 0 in
  let execute ~prefix =
    let e =
      execute_one config ~memo prog ~pick:(Explore.pick_prefix ~prefix)
        ~crash:None
    in
    if e.capped then incr inconclusive;
    ( e.recorded,
      Option.map (fun reason -> mk_failure config prog e None reason) e.verdict
    )
  in
  let coverage, failure =
    Explore.enumerate ~preemption_bound ?max_executions ~execute ()
  in
  {
    strategy = "exhaustive";
    executions = coverage.Explore.executions;
    coverage = Some coverage;
    crash_sites = 0;
    inconclusive = !inconclusive;
    failure;
  }

let explore_pct ?(config = default) ?(depth = 3) ?(executions = 200)
    ?(seed = 1) prog =
  let memo = mk_memo () in
  let inconclusive = ref 0 in
  let ran = ref 0 in
  let run_one pick =
    let e = execute_one config ~memo prog ~pick ~crash:None in
    incr ran;
    if e.capped then incr inconclusive;
    (e, Option.map (fun reason -> mk_failure config prog e None reason) e.verdict)
  in
  (* free-schedule baseline; its trace length calibrates the PCT
     change-point range *)
  let base, fail0 = run_one (Explore.pick_prefix ~prefix:[||]) in
  let failure = ref fail0 in
  let length = max 1 (Array.length base.recorded.Explore.steps) in
  let rng = Rng.create seed in
  let n = ref 0 in
  while Option.is_none !failure && !n < executions do
    incr n;
    let pick = Explore.pick_pct ~rng ~threads:config.threads ~depth ~length () in
    let _, f = run_one pick in
    failure := f
  done;
  {
    strategy = "pct";
    executions = !ran;
    coverage = None;
    crash_sites = 0;
    inconclusive = !inconclusive;
    failure = !failure;
  }

(* After [prefix], the next runnable fiber after [last], cyclically. *)
let pick_round_robin ~prefix ~step ~enabled ~last =
  if step < Array.length prefix then Explore.pick_prefix ~prefix ~step ~enabled ~last
  else
    match List.find_opt (fun t -> t > last) (Array.to_list enabled) with
    | Some t -> t
    | None -> enabled.(0)

let explore_crashes ?(config = default) ?(sites = `Persist) ?max_sites
    ?(schedule = [||]) ?(interleave = false) prog =
  let config = { config with persistent = true } in
  let memo = mk_memo () in
  let inconclusive = ref 0 in
  let ran = ref 0 in
  let pick =
    if interleave then pick_round_robin ~prefix:schedule
    else Explore.pick_prefix ~prefix:schedule
  in
  let run_one crash =
    incr ran;
    let e = execute_one config ~memo prog ~pick ~crash in
    if e.capped then incr inconclusive;
    (e, Option.map (fun reason -> mk_failure config prog e crash reason) e.verdict)
  in
  let base, fail0 = run_one None in
  let failure = ref fail0 in
  let interesting c =
    match sites with
    | `Persist -> c = 'w' || c = 'p'
    | `Every -> c = 's' || c = 'c' || c = 'w' || c = 'p'
  in
  let all_sites =
    String.to_seqi base.kinds
    |> Seq.filter_map (fun (i, c) -> if interesting c then Some (i + 1) else None)
    |> List.of_seq
  in
  let chosen =
    match max_sites with
    | None -> all_sites
    | Some m when m <= 0 -> []
    | Some m ->
        let n = List.length all_sites in
        if n <= m then all_sites
        else
          (* even subsample, first site included *)
          let arr = Array.of_list all_sites in
          List.init m (fun k -> arr.(k * n / m))
  in
  let nsites = ref 0 in
  (if Option.is_none !failure then
     try
       List.iter
         (fun event ->
           incr nsites;
           let try_ evict =
             match run_one (Some { event; evict }) with
             | _, Some f ->
                 failure := Some f;
                 raise Exit
             | e, None -> e
           in
           let e0 = try_ Evict_none in
           if e0.dirty_at_crash > 0 then begin
             ignore (try_ Evict_all);
             for l = 0 to e0.dirty_at_crash - 1 do
               ignore (try_ (Evict_line l))
             done
           end)
         chosen
     with Exit -> ());
  {
    strategy = "crash";
    executions = !ran;
    coverage = None;
    crash_sites = !nsites;
    inconclusive = !inconclusive;
    failure = !failure;
  }

(* ------------------------------------------------------------------ *)
(* Replay and shrinking                                                *)

let replay f =
  let memo = mk_memo () in
  (execute_one f.config ~memo f.program
     ~pick:(Explore.pick_prefix ~prefix:f.schedule)
     ~crash:f.crash)
    .verdict

let shrink ~find failure =
  let prog =
    Proggen.shrink
      ~fails:(fun p -> Option.is_some (find p))
      failure.program
  in
  let f = match find prog with Some f -> f | None -> failure in
  (* shortest schedule prefix whose deterministic replay still fails; the
     replayed tail past the prefix is non-preemptive *)
  let memo = mk_memo () in
  let replay_prefix j =
    let s = Array.sub f.schedule 0 j in
    (execute_one f.config ~memo f.program
       ~pick:(Explore.pick_prefix ~prefix:s)
       ~crash:f.crash)
      .verdict
    |> Option.map (fun reason -> { f with schedule = s; reason })
  in
  let n = Array.length f.schedule in
  let rec first j =
    if j > n then f
    else match replay_prefix j with Some f' -> f' | None -> first (j + 1)
  in
  first 0

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let pp_schedule ppf s =
  let n = Array.length s in
  if n = 0 then Format.fprintf ppf "(free schedule)"
  else begin
    (* run-length encoded: "0*12 1*3 0*5" = tid*steps *)
    let i = ref 0 in
    while !i < n do
      let j = ref !i in
      while !j < n && s.(!j) = s.(!i) do
        incr j
      done;
      Format.fprintf ppf "%s%d*%d" (if !i = 0 then "" else " ") s.(!i) (!j - !i);
      i := !j
    done
  end

let pp_failure ppf f =
  let c = f.config in
  Format.fprintf ppf "failure: %s@." f.reason;
  Format.fprintf ppf "  algorithm: OneFile-%s, %d threads%s, %s region%s%s@."
    (if c.wf then "WF" else "LF")
    c.threads
    (if c.shards > 1 then Printf.sprintf ", %d shards" c.shards else "")
    (if c.persistent || f.crash <> None then "persistent" else "volatile")
    (if c.sanitize then ", sanitized" else "")
    (if c.fault = No_fault then "" else ", planted fault: " ^ fault_name c.fault);
  Format.fprintf ppf "  program:@.%a" Proggen.pp_program f.program;
  Format.fprintf ppf "  schedule [%d choices]: %a@." (Array.length f.schedule)
    pp_schedule f.schedule;
  match f.crash with
  | None -> ()
  | Some { event; evict } ->
      Format.fprintf ppf "  crash after region event %d, evicting %s@." event
        (match evict with
        | Evict_none -> "nothing"
        | Evict_all -> "every dirty line"
        | Evict_line k -> Printf.sprintf "dirty line #%d only" k)

let pp_report ppf r =
  Format.fprintf ppf "strategy %s: %d executions" r.strategy r.executions;
  (match r.coverage with
  | Some c -> Format.fprintf ppf " (%a)" Explore.pp_coverage c
  | None -> ());
  if r.crash_sites > 0 then
    Format.fprintf ppf ", %d crash sites" r.crash_sites;
  if r.inconclusive > 0 then
    Format.fprintf ppf ", %d oracle verdicts hit the replay cap" r.inconclusive;
  Format.fprintf ppf "@.";
  match r.failure with
  | None -> Format.fprintf ppf "no failure found@."
  | Some f -> pp_failure ppf f

(* ------------------------------------------------------------------ *)
(* JSON serialization                                                  *)

let bad msg = raise (J.Parse_error ("explore trace: " ^ msg))

let op_to_json : Proggen.op -> J.json = function
  | Proggen.Load k -> J.List [ J.Str "load"; J.Int k ]
  | Proggen.Store (k, v) -> J.List [ J.Str "store"; J.Int k; J.Int v ]
  | Proggen.Add_delta (k, d) -> J.List [ J.Str "add"; J.Int k; J.Int d ]
  | Proggen.Alloc_into (k, n, m) ->
      J.List [ J.Str "alloc"; J.Int k; J.Int n; J.Int m ]
  | Proggen.Free_slot k -> J.List [ J.Str "free"; J.Int k ]
  | Proggen.Load_through k -> J.List [ J.Str "deref"; J.Int k ]
  | Proggen.Transfer (a, b, d) ->
      J.List [ J.Str "xfer"; J.Int a; J.Int b; J.Int d ]

let op_of_json : J.json -> Proggen.op = function
  | J.List [ J.Str "load"; J.Int k ] -> Proggen.Load k
  | J.List [ J.Str "store"; J.Int k; J.Int v ] -> Proggen.Store (k, v)
  | J.List [ J.Str "add"; J.Int k; J.Int d ] -> Proggen.Add_delta (k, d)
  | J.List [ J.Str "alloc"; J.Int k; J.Int n; J.Int m ] ->
      Proggen.Alloc_into (k, n, m)
  | J.List [ J.Str "free"; J.Int k ] -> Proggen.Free_slot k
  | J.List [ J.Str "deref"; J.Int k ] -> Proggen.Load_through k
  | J.List [ J.Str "xfer"; J.Int a; J.Int b; J.Int d ] ->
      Proggen.Transfer (a, b, d)
  | _ -> bad "malformed op"

let txn_to_json (t : Proggen.txn) =
  J.Obj
    [
      ("ro", J.Bool t.Proggen.read_only);
      ("ops", J.List (List.map op_to_json t.Proggen.ops));
    ]

let txn_of_json j =
  let read_only =
    match J.member "ro" j with J.Bool b -> b | _ -> bad "txn.ro"
  in
  let ops =
    match J.member "ops" j with
    | J.List l -> List.map op_of_json l
    | _ -> bad "txn.ops"
  in
  { Proggen.read_only; ops }

let config_to_json c =
  J.Obj
    [
      ("wf", J.Bool c.wf);
      ("threads", J.Int c.threads);
      ("shards", J.Int c.shards);
      ("persistent", J.Bool c.persistent);
      ("sanitize", J.Bool c.sanitize);
      ("fault", J.Str (fault_name c.fault));
      ("migrate", J.Bool c.migrate);
      ("max_steps", J.Int c.max_steps);
      ("oracle_cap", J.Int c.oracle_cap);
    ]

let config_of_json j =
  let b name = match J.member name j with J.Bool v -> v | _ -> bad name in
  let i name = match J.member name j with J.Int v -> v | _ -> bad name in
  {
    wf = b "wf";
    threads = i "threads";
    (* older traces predate sharding: missing member means one shard *)
    shards =
      (match J.member "shards" j with
      | J.Int v -> v
      | J.Null -> 1
      | _ -> bad "shards");
    persistent = b "persistent";
    sanitize = b "sanitize";
    fault =
      (match J.member "fault" j with
      | J.Str s -> (
          match fault_of_name s with
          | Some f -> f
          | None -> bad ("unknown fault " ^ s))
      | _ -> bad "fault");
    (* older traces predate elastic sharding: missing member means none *)
    migrate =
      (match J.member "migrate" j with
      | J.Bool v -> v
      | J.Null -> false
      | _ -> bad "migrate");
    max_steps = i "max_steps";
    oracle_cap = i "oracle_cap";
    telemetry = None;
  }

let failure_to_json f =
  J.Obj
    [
      ("kind", J.Str "explore-failure");
      ("config", config_to_json f.config);
      ("program", J.List (List.map txn_to_json f.program));
      ( "schedule",
        J.List (Array.to_list (Array.map (fun t -> J.Int t) f.schedule)) );
      ( "crash",
        match f.crash with
        | None -> J.Null
        | Some { event; evict } ->
            J.Obj
              [
                ("event", J.Int event);
                ( "evict",
                  match evict with
                  | Evict_none -> J.Str "none"
                  | Evict_all -> J.Str "all"
                  | Evict_line k -> J.Int k );
              ] );
      ("reason", J.Str f.reason);
    ]

let failure_of_json j =
  (match J.member "kind" j with
  | J.Str "explore-failure" -> ()
  | _ -> bad "not an explore-failure document");
  let config = config_of_json (J.member "config" j) in
  let program =
    match J.member "program" j with
    | J.List l -> List.map txn_of_json l
    | _ -> bad "program"
  in
  let schedule =
    match J.member "schedule" j with
    | J.List l ->
        Array.of_list
          (List.map (function J.Int t -> t | _ -> bad "schedule") l)
    | _ -> bad "schedule"
  in
  let crash =
    match J.member "crash" j with
    | J.Null -> None
    | J.Obj _ as c ->
        let event =
          match J.member "event" c with J.Int e -> e | _ -> bad "crash.event"
        in
        let evict =
          match J.member "evict" c with
          | J.Str "none" -> Evict_none
          | J.Str "all" -> Evict_all
          | J.Int k -> Evict_line k
          | _ -> bad "crash.evict"
        in
        Some { event; evict }
    | _ -> bad "crash"
  in
  let reason =
    match J.member "reason" j with J.Str s -> s | _ -> bad "reason"
  in
  { config; program; schedule; crash; reason }
