(** Sharded transfer workload over the {!Tm.Tm_shard} router.

    One persistent device is partitioned into [shards] equal views, each
    hosting a OneFile instance; [accounts] account roots are dealt
    round-robin across shards (root [k] on shard [k mod shards]).  Every
    transaction moves one unit between two accounts: with probability
    [cross_pct]% between two distinct shards (the batched-2PC cross-shard
    path), otherwise between two accounts of the executing thread's home
    shard (the wait-free/parallel single-shard path).  The account total
    is invariant, so [conserved] doubles as an end-to-end consistency
    check of every run.

    Both front-ends are built by one functor in the same order: device,
    shard views, OneFile instances, router, and recovery after the run.
    Every router runs [max_threads = threads + 2] and a batch watermark
    of [max 7 (threads - 1)], the largest batch one arrival per thread
    can fill.

    Shared by [bench/main.exe --figure shards] and
    [onefile_cli shards]. *)

val accounts : int
(** 16 — [shards] must divide it and leave at least two accounts per
    shard, i.e. shards in 1/2/4/8. *)

type result = {
  ops : int;  (** committed transfer transactions *)
  cross : int;  (** of which cross-shard *)
  pwb : int;  (** device-wide pwbs issued during the timed run *)
  conserved : bool;
      (** the account total survived unchanged.  The round cap cancels
          fibers mid-transaction (a crash), so the run ends with router
          recovery before the total is read — the invariant also
          exercises cross-shard crash atomicity. *)
  per_shard_commits : int array;  (** per-shard commit counts *)
}

val run :
  ?wf:bool ->
  ?telemetry:Runtime.Telemetry.t ->
  shards:int ->
  cross_pct:int ->
  threads:int ->
  rounds:int ->
  seed:int ->
  unit ->
  result
(** Deterministic: [seed] feeds the round-robin scheduler and every
    per-thread rng.  [telemetry] is attached to each shard instance
    (keys prefixed with the shard id).  [wf] selects OneFile-WF shards
    (default lock-free). *)

(** {1 Elastic migration workload}

    Shared by [bench/main.exe --figure elastic] and
    [onefile_cli shards --split/--merge].  Fiber 0 is the migrator;
    every other fiber runs a read-mostly transfer mix over the same
    [accounts] roots.  The shards are sized at [accounts/shards + 1]
    roots so a {!Tm.Tm_shard} [split] rehomes the upper half of the live
    accounts themselves (not empty slots), putting real reads and writes
    in the moving range. *)

type action =
  | Split of int * int  (** [Split (src, dst)]: rehome src's upper half *)
  | Merge of int * int
      (** [Merge (src, dst)]: retire src-hosted ranges native to dst *)

val pp_action : Format.formatter -> action -> unit

type elastic_result = {
  e_updates : int;  (** committed transfer transactions *)
  e_ro : int;  (** committed read-only full-sum transactions *)
  e_migrations : int;  (** completed migrations (splits and merges) *)
  e_windows : int array;
      (** read-only commits that landed inside each migration window,
          in completion order — the elasticity claim is that none of
          these is ever 0 (readers never stall while a range moves) *)
  e_min_ro : int;  (** minimum over [e_windows] (0 when none completed) *)
  e_epoch_before : int;  (** shard-map epoch before the run *)
  e_epoch : int;  (** shard-map epoch after the run and recovery *)
  e_map_before : (int * int * int * int) array;
      (** shard-map range table before the run
          ([Tm.Tm_shard] [map_entries] rows) *)
  e_map : (int * int * int * int) array;  (** table after run + recovery *)
  e_outcomes : (action * [ `Ok | `Busy | `Invalid of string ]) list;
      (** single-action runs: what the requested action returned *)
  e_conserved : bool;
      (** account total intact after the post-run recovery (the round
          cap kills fibers mid-transaction and possibly mid-migration,
          so this also covers a crash inside the copy loop) *)
  e_ro_consistent : bool;
      (** every read-only sum during the run saw the invariant total —
          a torn snapshot cut during a live move fails this, not
          throughput *)
  e_pwb : int;  (** device-wide pwbs issued during the timed run *)
}

val run_elastic :
  ?wf:bool ->
  ?telemetry:Runtime.Telemetry.t ->
  ?ro_pct:int ->
  shards:int ->
  threads:int ->
  rounds:int ->
  seed:int ->
  unit ->
  elastic_result
(** Migration storm: the migrator alternates [split src dst] /
    [merge dst src] around the shard ring for the whole run, so traffic
    keeps crossing live moves and epoch flips.  [ro_pct] (default 60) is
    the per-op probability a traffic fiber runs the read-only sum.
    Needs [shards] in 2/4/8 and [threads >= 2].  Deterministic. *)

val run_elastic_action :
  ?wf:bool ->
  ?telemetry:Runtime.Telemetry.t ->
  ?ro_pct:int ->
  shards:int ->
  action:action ->
  threads:int ->
  rounds:int ->
  seed:int ->
  unit ->
  elastic_result
(** One requested action performed live under the same traffic mix (the
    CLI's [--split]/[--merge]); its verdict lands in [e_outcomes], the
    before/after range table in [e_map_before]/[e_map].  A [Merge] is
    seeded with its inverse split before traffic starts (a fresh router
    has no migrated range to retire), so the before-map shows the range
    the live merge retires. *)
