(* Sharded transfer workload, shared by `bench --figure shards` and
   `onefile_cli shards`.  Every transaction transfers one unit between
   two account roots — both on the executing thread's home shard, or on
   two distinct shards, according to the requested cross-shard
   percentage — so the account total is invariant (a built-in
   consistency check) and throughput/pwb are attributable per cell. *)

open Runtime
module Region = Pmem.Region
module Pstats = Pmem.Pstats
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf

let accounts = 16
let initial = 100

type result = {
  ops : int;
  cross : int;
  pwb : int;
  conserved : bool;
  per_shard_commits : int array;
}

type action = Split of int * int | Merge of int * int

let pp_action ppf = function
  | Split (s, d) -> Format.fprintf ppf "split %d->%d" s d
  | Merge (s, d) -> Format.fprintf ppf "merge %d<-%d" d s

type elastic_result = {
  e_updates : int;
  e_ro : int;
  e_migrations : int;
  e_windows : int array;
  e_min_ro : int;
  e_epoch_before : int;
  e_epoch : int;
  e_map_before : (int * int * int * int) array;
  e_map : (int * int * int * int) array;
  e_outcomes : (action * [ `Ok | `Busy | `Invalid of string ]) list;
  e_conserved : bool;
  e_ro_consistent : bool;
  e_pwb : int;
}

let span = 1 lsl 14

(* One workload per OneFile front-end.  [Lf] and [Wf] share [Lf.t], and
   [create], [attach_telemetry], [snapshot_ops], [region] and [recover]
   are the same functions on both, so only [F]'s transaction drivers
   tell the two apart. *)
module Make (F : Tm.Tm_intf.S with type t = Lf.t) = struct
  module T = Tm.Tm_shard.Make (F)

  (* In order: the persistent device, one [span]-cell view per shard, a
     OneFile instance per view, then the router over them; [telemetry]
     is attached to every instance and to the router.  The batch
     watermark is one short of the thread count: arrivals are at most
     one per thread, so this is the largest batch the window can
     collect. *)
  let build ~telemetry ~num_roots ~shards:n ~threads =
    let device = Region.create ~mode:Region.Persistent (n * span) in
    let views = Region.partition device (List.init n (fun _ -> span)) in
    let mt = threads + 2 in
    let insts =
      Array.of_list
        (List.map
           (fun v ->
             let sh =
               Lf.create ~region:v ~instance:(Region.id v) ~max_threads:mt
                 ~ws_cap:256 ~num_roots ()
             in
             Option.iter (Lf.attach_telemetry sh) telemetry;
             sh)
           views)
    in
    let tm =
      T.make ~max_threads:mt ~batch_watermark:(max 7 (threads - 1))
        ~ro_snapshot:Lf.snapshot_ops insts
    in
    Option.iter (T.attach_telemetry tm) telemetry;
    (device, insts, tm)

  let recover tm = T.recover ~shard_recover:Lf.recover tm

  let sum_accounts tm =
    T.read_tx tm (fun tx ->
        let s = ref 0 in
        for i = 0 to accounts - 1 do
          s := !s + T.load tx (T.root tm i)
        done;
        !s)

  let transfer tm tx a b =
    let ra = T.root tm a and rb = T.root tm b in
    let va = T.load tx ra in
    let vb = T.load tx rb in
    T.store tx ra (va - 1);
    T.store tx rb (vb + 1)

  let run ~telemetry ~shards:n ~cross_pct ~threads ~rounds ~seed =
    let device, insts, tm = build ~telemetry ~num_roots:24 ~shards:n ~threads in
    let per = accounts / n in
    for i = 0 to accounts - 1 do
      ignore
        (T.update_tx tm (fun tx ->
             T.store tx (T.root tm i) initial;
             0))
    done;
    let st = Region.stats device in
    let snap = Pstats.copy st in
    let shard_regions = Array.map Lf.region insts in
    let commits0 =
      Array.map (fun r -> (Region.stats r).Pstats.commits) shard_regions
    in
    let crosses = Array.make threads 0 in
    let sp =
      (* oversubscribe-friendly: every fiber steps every round, so the
         group-commit leader's critical path is not stretched by
         scheduling gaps when threads > 8 *)
      { Bench_runner.threads; cores = max 8 threads; rounds; seed;
        policy = Sched.Round_robin }
    in
    let ops =
      Bench_runner.run_ops sp (fun ~tid ~rng ->
          let cross = n > 1 && Rng.int rng 100 < cross_pct in
          let a, b =
            if cross then begin
              (* two roots on two distinct shards *)
              let s1 = Rng.int rng n in
              let s2 = (s1 + 1 + Rng.int rng (n - 1)) mod n in
              (s1 + (n * Rng.int rng per), s2 + (n * Rng.int rng per))
            end
            else begin
              (* two distinct roots on the thread's home shard *)
              let h = tid mod n in
              let j1 = Rng.int rng per in
              let j2 = (j1 + 1 + Rng.int rng (per - 1)) mod per in
              (h + (n * j1), h + (n * j2))
            end
          in
          if cross then crosses.(tid) <- crosses.(tid) + 1;
          ignore
            (T.update_tx tm (fun tx ->
                 transfer tm tx a b;
                 0)))
    in
    let d = Pstats.diff st snap in
    let commits =
      Array.mapi
        (fun i r -> (Region.stats r).Pstats.commits - commits0.(i))
        shard_regions
    in
    (* the round cap cancels fibers mid-transaction — possibly holding
       the batcher leadership and shard lock cells.  That is exactly a
       crash, so run recovery before touching the TM again; the
       conservation check below then also validates cross-shard crash
       atomicity (a committed batch record replays, a torn one rolls
       back). *)
    recover tm;
    let total = sum_accounts tm in
    {
      ops;
      cross = Array.fold_left ( + ) 0 crosses;
      pwb = d.Pstats.pwb;
      conserved = total = accounts * initial;
      per_shard_commits = commits;
    }

  (* The elastic workload: fiber 0 is the migrator (a split/merge storm
     around the shard ring, or one requested action), every other fiber
     runs a read-mostly transfer mix.  Each read-only transaction sums
     every account through the snapshot path, so a torn cut during a live
     move shows up as [e_ro_consistent = false] instead of skewing a
     throughput number; the RO commits that land inside each migration
     window are recorded so the figure can assert reads never stall to
     zero while a range is moving. *)
  let elastic ~telemetry ~shards:n ~plan ~ro_pct ~threads ~rounds ~seed =
    (* size the shards so a [split]'s upper half covers live accounts:
       the router deals account [k] to shard [k mod n] slot [k / n], so
       [accounts / n] slots per shard are live and [num_roots = accounts
       / n + 1] (one reserved control slot) makes the usable root block
       exactly the live block — the split then moves the upper half of
       the accounts themselves, not empty slots *)
    let num_roots = (accounts / n) + 1 in
    let device, _, tm = build ~telemetry ~num_roots ~shards:n ~threads in
    for i = 0 to accounts - 1 do
      ignore
        (T.update_tx tm (fun tx ->
             T.store tx (T.root tm i) initial;
             0))
    done;
    (* a merge retires a migrated range, and a fresh router has none:
       seed the map with the requested merge's inverse split before
       traffic starts, so the "before" map shows the range the live
       merge will retire *)
    (match plan with
    | `Once (Merge (s, d)) ->
        (* best-effort: if the inverse split is itself invalid (bad
           shard pair), the live merge below reports its own verdict *)
        ignore (T.split tm ~src:d ~dst:s)
    | `Once (Split _) | `Storm -> ());
    let map_before = T.map_entries tm and epoch_before = T.map_epoch tm in
    let st = Region.stats device in
    let snap = Pstats.copy st in
    let expected = accounts * initial in
    let updates = ref 0 and ro = ref 0 and ro_bad = ref 0 in
    let windows = ref [] and outcomes = ref [] in
    let phase = ref `Split and cycle = ref 0 and once_done = ref false in
    let record before_ro = windows := (!ro - before_ro) :: !windows in
    let migrate () =
      match plan with
      | `Once a ->
          if !once_done then Sched.step_point ()
          else begin
            once_done := true;
            let before_ro = !ro in
            let r =
              match a with
              | Split (s, d) -> T.split tm ~src:s ~dst:d
              | Merge (s, d) -> T.merge tm ~src:s ~dst:d
            in
            (match r with `Ok -> record before_ro | `Busy | `Invalid _ -> ());
            outcomes := (a, r) :: !outcomes
          end
      | `Storm -> (
          let src = !cycle mod n in
          let dst = (src + 1) mod n in
          let before_ro = !ro in
          match !phase with
          | `Split -> (
              match T.split tm ~src ~dst with
              | `Ok ->
                  record before_ro;
                  phase := `Merge
              | `Busy -> Sched.step_point ()
              | `Invalid m ->
                  failwith ("Shard_bench.elastic: split rejected: " ^ m))
          | `Merge -> (
              (* the inverse of the split above: the moved ranges are now
                 hosted by [dst] with native home [src] *)
              match T.merge tm ~src:dst ~dst:src with
              | `Ok ->
                  record before_ro;
                  phase := `Split;
                  incr cycle
              | `Busy -> Sched.step_point ()
              | `Invalid m ->
                  failwith ("Shard_bench.elastic: merge rejected: " ^ m)))
    in
    let sp =
      { Bench_runner.threads; cores = max 8 threads; rounds; seed;
        policy = Sched.Round_robin }
    in
    ignore
      (Bench_runner.run_ops sp (fun ~tid ~rng ->
           if tid = 0 then migrate ()
           else if Rng.int rng 100 < ro_pct then begin
             if sum_accounts tm <> expected then incr ro_bad;
             incr ro
           end
           else begin
             let a = Rng.int rng accounts in
             let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
             ignore
               (T.update_tx tm (fun tx ->
                    transfer tm tx a b;
                    0));
             incr updates
           end));
    let d = Pstats.diff st snap in
    (* the round cap cancels fibers mid-transaction and possibly
       mid-migration; recovery rolls the move forward or back before the
       final invariant read, so the check also covers a crash inside the
       copy loop *)
    recover tm;
    let total = sum_accounts tm in
    let windows = Array.of_list (List.rev !windows) in
    {
      e_updates = !updates;
      e_ro = !ro;
      e_migrations = Array.length windows;
      e_windows = windows;
      e_min_ro =
        (if Array.length windows = 0 then 0
         else Array.fold_left min max_int windows);
      e_epoch_before = epoch_before;
      e_epoch = T.map_epoch tm;
      e_map_before = map_before;
      e_map = T.map_entries tm;
      e_outcomes = List.rev !outcomes;
      e_conserved = total = expected;
      e_ro_consistent = !ro_bad = 0;
      e_pwb = d.Pstats.pwb;
    }
end

module Lf_bench = Make (Lf)
module Wf_bench = Make (Wf)

let run ?(wf = false) ?telemetry ~shards:n ~cross_pct ~threads ~rounds ~seed ()
    =
  if n < 1 || accounts mod n <> 0 || accounts / n < 2 then
    invalid_arg "Shard_bench.run: shards must divide 16 and leave >= 2 roots";
  (if wf then Wf_bench.run else Lf_bench.run)
    ~telemetry ~shards:n ~cross_pct ~threads ~rounds ~seed

let elastic_run ~wf ~telemetry ~ro_pct ~plan ~shards:n ~threads ~rounds ~seed =
  if n < 2 || accounts mod n <> 0 || accounts / n < 2 then
    invalid_arg "Shard_bench: elastic runs need shards in 2/4/8";
  if threads < 2 then
    invalid_arg
      "Shard_bench: elastic runs need >= 2 threads (fiber 0 is the migrator)";
  if ro_pct < 0 || ro_pct > 100 then
    invalid_arg "Shard_bench: ro_pct must be 0..100";
  (if wf then Wf_bench.elastic else Lf_bench.elastic)
    ~telemetry ~shards:n ~plan ~ro_pct ~threads ~rounds ~seed

let run_elastic ?(wf = false) ?telemetry ?(ro_pct = 60) ~shards ~threads
    ~rounds ~seed () =
  elastic_run ~wf ~telemetry ~ro_pct ~plan:`Storm ~shards ~threads ~rounds ~seed

let run_elastic_action ?(wf = false) ?telemetry ?(ro_pct = 60) ~shards ~action
    ~threads ~rounds ~seed () =
  elastic_run ~wf ~telemetry ~ro_pct ~plan:(`Once action) ~shards ~threads
    ~rounds ~seed
