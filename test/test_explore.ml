(* Tests for the schedule/crash exploration stack (Runtime.Explore +
   Workloads.Explorer + the Core0 fault hooks):

   - trace record/replay determinism and preemption counting on the
     workload-agnostic layer;
   - the tier-1 smoke gate: exhaustive exploration of tiny configurations
     (2 threads, preemption bound 2) for both OneFile-LF and OneFile-WF
     reports full coverage with no failure;
   - planted-bug self-checks: the two re-opened historical bugs
     (Core0.faults) are found within a bounded budget — the lost update by
     exhaustive interleaving search, the durability hole by crash-point
     enumeration — through the Seqtm oracle alone (sanitizer off) and
     through the sanitizer, and the shrunk failures replay
     deterministically, including through a JSON round-trip;
   - telemetry isolation: one registry across hundreds of per-execution
     instances does not accrete dead pull sources (the clear_sources
     regression). *)

open Runtime
module E = Workloads.Explorer
module Proggen = Workloads.Proggen
module J = Workloads.Bench_json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Runtime.Explore: traces, replay, preemptions ------------------ *)

let counter_fibers n iters =
  let c = Satomic.make 0 in
  Array.init n (fun _ () ->
      for _ = 1 to iters do
        ignore (Satomic.fetch_and_add c 1)
      done)

let test_record_replay () =
  (* record a PCT run, then replay its choices: the trace must reproduce
     choice for choice (executions are deterministic in the schedule) *)
  let rng = Rng.create 11 in
  let pick = Explore.pick_pct ~rng ~threads:3 ~depth:3 ~length:30 () in
  let r1 = Explore.run ~pick (counter_fibers 3 5) in
  check_bool "completed" true (r1.Explore.status = Explore.Completed);
  let ch = Explore.choices r1 in
  let r2 =
    Explore.run ~pick:(Explore.pick_prefix ~prefix:ch) (counter_fibers 3 5)
  in
  check_bool "replay reproduces the schedule" true (Explore.choices r2 = ch);
  check_bool "replay reproduces the enabled sets" true
    (Array.for_all2
       (fun a b -> a.Explore.enabled = b.Explore.enabled)
       r1.Explore.steps r2.Explore.steps)

let test_preemptions () =
  (* the free schedule has no preemptions; forced end-of-fiber switches
     are not counted *)
  let r =
    Explore.run ~pick:(Explore.pick_prefix ~prefix:[||]) (counter_fibers 3 4)
  in
  check_int "free schedule preempts nothing" 0
    (Explore.preemptions (Explore.choices r) r.Explore.steps);
  (* one voluntary deviation = one preemption *)
  let r1 = Explore.run ~pick:(Explore.pick_prefix ~prefix:[| 0; 0; 1 |]) (counter_fibers 3 4) in
  check_int "single deviation counted once" 1
    (Explore.preemptions (Explore.choices r1) r1.Explore.steps)

let test_divergence () =
  (* fiber 1 finishes after [iters] steps; forcing it beyond that must
     raise Divergence, not mis-schedule *)
  match
    Explore.run
      ~pick:(Explore.pick_prefix ~prefix:(Array.make 40 1))
      (counter_fibers 2 3)
  with
  | exception Explore.Divergence _ -> ()
  | _ -> Alcotest.fail "expected Divergence"

let test_enumerate_budget () =
  (* the execution budget stops enumeration and is reported as such *)
  let execute ~prefix =
    ( Explore.run ~pick:(Explore.pick_prefix ~prefix) (counter_fibers 2 4),
      None )
  in
  let cov, fail = Explore.enumerate ~preemption_bound:2 ~max_executions:5 ~execute () in
  check_int "budget respected" 5 cov.Explore.executions;
  check_bool "budget hit is not exhaustion" false cov.Explore.exhausted;
  check_bool "no failure" true (fail = None);
  let cov, _ = Explore.enumerate ~preemption_bound:0 ~execute () in
  check_bool "bound 0 space is just the free schedule family" true
    cov.Explore.exhausted;
  check_bool "bound 0 prunes deviations" true (cov.Explore.pruned > 0)

(* --- the tiny-config smoke gate ------------------------------------ *)

(* ISSUE acceptance: exhaustive exploration of a tiny config (2 threads,
   preemption bound 2) for LF and WF reports full coverage and passes. *)
let smoke ~wf () =
  let config = { E.default with E.wf } in
  List.iter
    (fun seed ->
      let prog = Proggen.gen_program ~max_txns:3 ~max_ops:3 seed in
      let r = E.explore_exhaustive ~config ~preemption_bound:2 prog in
      (match r.E.failure with
      | Some f -> Alcotest.failf "seed %d: %a" seed E.pp_failure f
      | None -> ());
      let cov = Option.get r.E.coverage in
      check_bool
        (Printf.sprintf "seed %d fully enumerated" seed)
        true cov.Explore.exhausted;
      check_int
        (Printf.sprintf "seed %d: all verdicts conclusive" seed)
        0 r.E.inconclusive;
      check_bool
        (Printf.sprintf "seed %d explored more than the free schedule" seed)
        true (r.E.executions > 1))
    [ 1; 2; 3 ]

(* a persistent-region slice of the same gate, so pwb/pfence interleavings
   are covered too (single seed: traces are longer) *)
let smoke_persistent () =
  let config = { E.default with E.persistent = true } in
  let prog = Proggen.gen_program ~max_txns:3 ~max_ops:2 4 in
  let r = E.explore_exhaustive ~config ~preemption_bound:1 prog in
  check_bool "no failure" true (r.E.failure = None);
  check_bool "exhausted" true (Option.get r.E.coverage).Explore.exhausted

(* and the crash-point sweep on a clean instance must be silent *)
let smoke_crashes () =
  List.iter
    (fun seed ->
      let prog = Proggen.gen_program ~max_txns:4 ~max_ops:3 seed in
      let r = E.explore_crashes ~config:E.default ~sites:`Every prog in
      match r.E.failure with
      | Some f -> Alcotest.failf "seed %d: %a" seed E.pp_failure f
      | None -> ())
    [ 1; 2; 3 ]

(* --- planted-bug self-checks --------------------------------------- *)

let find_with ?(max_txns = 4) ?(max_ops = 4) ~seeds find =
  let rec go = function
    | [] -> None
    | seed :: rest -> (
        let prog = Proggen.gen_program ~max_txns ~max_ops seed in
        match find prog with Some f -> Some (f, find) | None -> go rest)
  in
  go seeds

let assert_deterministic_replay f =
  let r1 = E.replay f and r2 = E.replay f in
  check_bool "replay fails" true (Option.is_some r1);
  check_bool "replay deterministic" true (r1 = r2);
  (* JSON round-trip preserves the failure bit-for-bit *)
  let f' = E.failure_of_json (J.parse (J.to_string (E.failure_to_json f))) in
  check_bool "json round-trip replays identically" true (E.replay f' = r1)

let test_planted_lost_update () =
  (* oracle path: sanitizer off, the wrong results/state must be caught by
     serialization search alone, within a bounded budget *)
  let config = { E.default with E.sanitize = false; fault = E.Lost_update } in
  let find prog =
    (E.explore_exhaustive ~config ~max_executions:3000 prog).E.failure
  in
  match find_with ~seeds:[ 1; 2; 3; 4; 5 ] find with
  | None -> Alcotest.fail "planted lost update not found within budget"
  | Some (f, find) ->
      let small = E.shrink ~find f in
      (* the canonical lost update needs two conflicting writers *)
      check_bool "shrinks to at most 2 transactions" true
        (List.length small.E.program <= 2);
      check_bool "shrunk schedule no longer than the original" true
        (Array.length small.E.schedule <= Array.length f.E.schedule);
      assert_deterministic_replay small

let sanitizer_flagged f =
  String.length f.E.reason >= 10 && String.sub f.E.reason 0 10 = "sanitizer:"

(* With the sanitizer on, a planted fault must still be found — and on at
   least one program the sanitizer itself (not the oracle) is what fires,
   proving the protocol-level detector sees the fault.  Which one fires
   first on a given program depends on where in the schedule order the bug
   first manifests. *)
let sanitizer_catches ~find ~max_ops ~seeds name =
  let found = ref [] in
  List.iter
    (fun seed ->
      let prog = Proggen.gen_program ~max_txns:4 ~max_ops seed in
      match find prog with Some f -> found := f :: !found | None -> ())
    seeds;
  check_bool (name ^ " found with sanitizer on") true (!found <> []);
  check_bool (name ^ " flagged by the sanitizer on some program") true
    (List.exists sanitizer_flagged !found)

let test_planted_lost_update_sanitizer () =
  let config = { E.default with E.fault = E.Lost_update } in
  sanitizer_catches
    ~find:(fun prog ->
      (E.explore_exhaustive ~config ~max_executions:3000 prog).E.failure)
    ~max_ops:3 ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8 ] "lost update"

let test_planted_durability_hole () =
  (* oracle path: crash-point enumeration with adversarial single-line
     evictions recovers a torn state that no serialization explains.  The
     first three redo-log entries share the request's cache line, so a
     torn log needs an old and a new log of one thread that both reach a
     second line: programs of up to 6 transactions of up to 8 operations
     build such a pair *)
  let config =
    { E.default with E.sanitize = false; fault = E.Durability_hole }
  in
  let find prog =
    (E.explore_crashes ~config ~sites:`Every prog).E.failure
  in
  match
    find_with ~max_txns:6 ~max_ops:8 ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] find
  with
  | None -> Alcotest.fail "planted durability hole not found within budget"
  | Some (f, find) ->
      check_bool "found at a crash point" true (f.E.crash <> None);
      let small = E.shrink ~find f in
      check_bool "shrunk program still crashes" true (small.E.crash <> None);
      assert_deterministic_replay small

let test_planted_durability_sanitizer () =
  let config = { E.default with E.fault = E.Durability_hole } in
  sanitizer_catches
    ~find:(fun prog -> (E.explore_crashes ~config ~sites:`Every prog).E.failure)
    ~max_ops:4 ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] "durability hole"

(* without the planted fault, the very same searches stay silent — the
   detectors do not fire on the correct protocol *)
let test_no_false_positives () =
  let config = { E.default with E.sanitize = false } in
  List.iter
    (fun seed ->
      let prog = Proggen.gen_program ~max_txns:4 ~max_ops:4 seed in
      (match (E.explore_exhaustive ~config ~max_executions:500 prog).E.failure with
      | Some f -> Alcotest.failf "seed %d (interleavings): %a" seed E.pp_failure f
      | None -> ());
      match (E.explore_crashes ~config ~sites:`Every ~max_sites:40 prog).E.failure with
      | Some f -> Alcotest.failf "seed %d (crashes): %a" seed E.pp_failure f
      | None -> ())
    [ 3; 5 ]

(* --- planted stale-dedup flush (hot-path overhaul self-check) ------ *)

(* The line-dedup fault: [stale_dedup_flush] starts every write-back
   pass with its own first line marked as already written back, so a
   committed write silently skips its data pwb.  Crash-point enumeration
   with adversarial eviction must surface a durable state that is missing
   a committed write — a hole no serialization of the program explains. *)
let test_planted_stale_dedup () =
  let config = { E.default with E.sanitize = false; fault = E.Stale_dedup } in
  let find prog = (E.explore_crashes ~config ~sites:`Every prog).E.failure in
  match find_with ~seeds:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] find with
  | None -> Alcotest.fail "planted stale-dedup flush not found within budget"
  | Some (f, find) ->
      check_bool "found at a crash point" true (f.E.crash <> None);
      let small = E.shrink ~find f in
      check_bool "shrunk program still crashes" true (small.E.crash <> None);
      assert_deterministic_replay small

(* --- planted stale snapshot pin (wait-free read path self-check) --- *)

(* The snapshot-read fault: [stale_ro_snapshot] pins the raw curTx
   sequence instead of the newest fully-applied one, so a read-only
   transaction whose pin lands mid-apply resolves some words at the
   half-published sequence (already-DCASed words at their new values)
   and others before it — a mix no serialization explains.  Only the
   oracle can see this: the per-word sanitizer accepts any in-window
   version, so the searches run with the sanitizer off.  Read-weighted
   programs (Proggen ro_weight) keep snapshot readers in flight against
   the write churn the fault needs. *)
let test_planted_stale_ro_snapshot () =
  let config =
    { E.default with E.sanitize = false; fault = E.Stale_ro_snapshot }
  in
  let find prog =
    (E.explore_exhaustive ~config ~max_executions:3000 prog).E.failure
  in
  let rec hunt = function
    | [] -> None
    | seed :: rest -> (
        let prog =
          Proggen.gen_program ~max_txns:4 ~max_ops:4 ~ro_weight:2 seed
        in
        match find prog with Some f -> Some f | None -> hunt rest)
  in
  match hunt [ 1; 2; 3; 4; 5; 6; 7; 8 ] with
  | None -> Alcotest.fail "planted stale ro snapshot not found within budget"
  | Some f ->
      let small = E.shrink ~find f in
      (* the minimal manifestation is one multi-word writer and one
         reader that straddles its apply *)
      check_bool "shrinks to at most 2 transactions" true
        (List.length small.E.program <= 2);
      assert_deterministic_replay small

let test_stale_ro_snapshot_clean () =
  (* the same read-weighted searches on the healthy snapshot path stay
     silent: epoch pinning is not over-approximated into false alarms *)
  let config = { E.default with E.sanitize = false } in
  List.iter
    (fun seed ->
      let prog =
        Proggen.gen_program ~max_txns:4 ~max_ops:4 ~ro_weight:2 seed
      in
      match
        (E.explore_exhaustive ~config ~max_executions:800 prog).E.failure
      with
      | Some f -> Alcotest.failf "seed %d: %a" seed E.pp_failure f
      | None -> ())
    [ 1; 2; 3 ]

(* --- planted helper that skips its curTx write-back ----------------- *)

(* The lazy curTx flush fault: [skip_help_curtx_pwb] lets a helper DCAS
   a foreign commit's entries without writing curTx back first.  A helper
   that applies an entry between the owner's commit CAS and the owner's
   curTx write-back, and then writes that entry's line back, makes a data
   word durable ahead of the durable curTx: the sanitizer's
   durable-ahead-of-curtx rule must fire.  The same search without the
   fault stays silent. *)
let help_curtx_find config prog =
  (E.explore_exhaustive ~config ~max_executions:3000 prog).E.failure

let help_curtx_prog = Proggen.gen_program ~max_txns:6 ~max_ops:3 1

let test_planted_help_curtx () =
  let config = { E.default with E.persistent = true; fault = E.Help_curtx } in
  let find = help_curtx_find config in
  match find help_curtx_prog with
  | None -> Alcotest.fail "planted help-curtx not found within budget"
  | Some f ->
      let small = E.shrink ~find f in
      check_bool "shrinks to at most 2 transactions" true
        (List.length small.E.program <= 2);
      check_bool
        ("reported as durable-ahead-of-curtx: " ^ small.E.reason)
        true
        (String.starts_with ~prefix:"sanitizer: [durable-ahead-of-curtx]"
           small.E.reason);
      assert_deterministic_replay small

let test_help_curtx_clean () =
  let config = { E.default with E.persistent = true } in
  match help_curtx_find config help_curtx_prog with
  | Some f -> Alcotest.failf "clean lazy flush: %a" E.pp_failure f
  | None -> ()

(* --- planted claim loser that retries before the close -------------- *)

(* An LF claim loser that sees curTx move waits for the winner's request
   to close, then retries at that curTx.  [early_retry] skips the wait:
   the retry runs at a commit that is still open, and its own commit CAS
   lands over the open request, which the sanitizer's curtx-discipline
   rule reports.  The same search without the fault stays silent. *)
let early_retry_find config prog =
  (E.explore_exhaustive ~config ~max_executions:3000 prog).E.failure

let early_retry_prog = Proggen.gen_program ~max_txns:6 ~max_ops:3 1

let test_planted_early_retry () =
  let config = { E.default with E.fault = E.Early_retry } in
  let find = early_retry_find config in
  match find early_retry_prog with
  | None -> Alcotest.fail "planted early-retry not found within budget"
  | Some f ->
      let small = E.shrink ~find f in
      check_bool "shrinks to at most 2 transactions" true
        (List.length small.E.program <= 2);
      check_bool
        ("reported as curtx-discipline: " ^ small.E.reason)
        true
        (String.starts_with ~prefix:"sanitizer: [curtx-discipline]"
           small.E.reason);
      assert_deterministic_replay small

let test_early_retry_clean () =
  match early_retry_find E.default early_retry_prog with
  | Some f -> Alcotest.failf "clean claim wait: %a" E.pp_failure f
  | None -> ()

(* --- planted chunk done before its write-back ---------------------- *)

(* A WF aggregate of more than one chunk of 8 entries is applied chunk
   by chunk, and the owner closes the commit only once every chunk is
   marked done.  [early_chunk_done] marks a chunk done before its lines
   are written back: the owner can close while a helper's lines are
   still volatile, and a crash whose eviction makes the close durable
   loses committed words.  The configuration: 4 WF threads, operations
   of up to 6 steps, and a crash sweep whose baseline steps the fibers
   round-robin, so operations of several threads meet in one commit of
   three or more chunks and waiters help it.  The fault breaks no
   sanitizer rule, so the oracle reports it; the sanitizer stays on.
   The same sweep without the fault stays silent. *)
let chunk_config = { E.default with E.wf = true; threads = 4 }

let early_chunk_find config prog =
  (E.explore_crashes ~config ~interleave:true prog).E.failure

let early_chunk_progs =
  List.init 20 (fun i -> Proggen.gen_program ~max_txns:6 ~max_ops:6 (i + 1))

let test_planted_early_chunk_done () =
  let config = { chunk_config with E.fault = E.Early_chunk_done } in
  let find = early_chunk_find config in
  match List.find_map find early_chunk_progs with
  | None -> Alcotest.fail "planted early-chunk-done not found within budget"
  | Some f ->
      check_bool "found at a crash point" true (f.E.crash <> None);
      check_bool
        ("reported by the oracle: " ^ f.E.reason)
        true
        (String.starts_with ~prefix:"recovered state matches no" f.E.reason);
      assert_deterministic_replay f

let test_early_chunk_done_clean () =
  List.iteri
    (fun i prog ->
      match early_chunk_find chunk_config prog with
      | Some f -> Alcotest.failf "seed %d, clean chunk apply: %a" (i + 1) E.pp_failure f
      | None -> ())
    early_chunk_progs

(* --- planted helper that takes its own chunk claim as curTx's ------- *)

(* A helper of a split WF commit skips its curTx write-back once chunk
   0's claim word shows the owner's claim, which follows the owner's own
   write-back.  [early_curtx_signal] reads the word of the chunk the
   helper claimed itself instead: a PCT schedule that holds the owner
   between its commit CAS and its curTx write-back while a helper
   applies and writes back a chunk makes a data word durable ahead of
   the durable curTx, which the sanitizer's durable-ahead-of-curtx rule
   reports.  The configuration is the crash sweep's (4 WF threads,
   operations of up to 6 steps) on a persistent region.  The same
   search without the fault stays silent. *)
let curtx_signal_config = { chunk_config with E.persistent = true }

let curtx_signal_find config prog =
  (E.explore_pct ~config ~executions:200 ~seed:1 prog).E.failure

let curtx_signal_progs =
  List.init 3 (fun i -> Proggen.gen_program ~max_txns:6 ~max_ops:6 (i + 1))

let test_planted_early_curtx_signal () =
  let config = { curtx_signal_config with E.fault = E.Early_curtx_signal } in
  match List.find_map (curtx_signal_find config) curtx_signal_progs with
  | None -> Alcotest.fail "planted early-curtx-signal not found within budget"
  | Some f ->
      check_bool
        ("reported as durable-ahead-of-curtx: " ^ f.E.reason)
        true
        (String.starts_with ~prefix:"sanitizer: [durable-ahead-of-curtx]"
           f.E.reason);
      assert_deterministic_replay f

let test_early_curtx_signal_clean () =
  List.iteri
    (fun i prog ->
      match curtx_signal_find curtx_signal_config prog with
      | Some f -> Alcotest.failf "seed %d, clean curTx signal: %a" (i + 1) E.pp_failure f
      | None -> ())
    curtx_signal_progs

(* --- planted skipped registration handshake ------------------------ *)

(* The capture-handshake fault: an apply pass skips version capture while
   no reader is registered, and [skip_nocap] makes a reader that
   registers during that pass ignore it — it pins below the uncaptured
   commit instead of helping it to completion first.  Its first load of
   a word the commit already overwrote then finds no version, which
   raises.  The minimal manifestation is one writer and one reader that
   registers between the writer's capture decision and its apply. *)
let skip_nocap_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let skip_nocap_find config prog =
  (E.explore_exhaustive ~config ~max_executions:3000 prog).E.failure

let skip_nocap_prog seed =
  Proggen.gen_program ~max_txns:4 ~max_ops:4 ~ro_weight:2 seed

let test_planted_skip_nocap () =
  let config = { E.default with E.sanitize = false; fault = E.Skip_nocap } in
  let find = skip_nocap_find config in
  match List.find_map (fun seed -> find (skip_nocap_prog seed)) skip_nocap_seeds with
  | None -> Alcotest.fail "planted skip-nocap not found within budget"
  | Some f ->
      let small = E.shrink ~find f in
      check_bool "shrinks to at most 2 transactions" true
        (List.length small.E.program <= 2);
      Alcotest.(check string)
        "fails on the missing version"
        "exception: Failure(\"OneFile: snapshot version missing from the \
         version store\")"
        small.E.reason;
      assert_deterministic_replay small

let test_skip_nocap_clean () =
  (* the same searches on the healthy handshake stay silent, on both
     front-ends (the WF update driver deregisters the same way) *)
  List.iter
    (fun wf ->
      let config = { E.default with E.sanitize = false; wf } in
      List.iter
        (fun seed ->
          match skip_nocap_find config (skip_nocap_prog seed) with
          | Some f ->
              Alcotest.failf "%s seed %d: %a"
                (if wf then "wf" else "lf")
                seed E.pp_failure f
          | None -> ())
        skip_nocap_seeds)
    [ false; true ]

(* --- sharded exploration (Tm_shard router) ------------------------- *)

(* the schedule and crash searches run unchanged over the cross-shard
   router; transfer-bearing programs make transactions actually span
   shards (root k lives on shard k mod shards) *)

let test_sharded_exhaustive_clean () =
  List.iter
    (fun wf ->
      let config = { E.default with E.wf; shards = 2 } in
      let prog = Proggen.gen_program ~max_txns:2 ~max_ops:2 ~transfers:true 1 in
      let r = E.explore_exhaustive ~config ~preemption_bound:1 prog in
      match r.E.failure with
      | Some f ->
          Alcotest.failf "%s: %a" (if wf then "wf" else "lf") E.pp_failure f
      | None -> ())
    [ false; true ]

let test_sharded_crash_sweep_clean () =
  (* every non-planted crash point of the bounded sweep must recover to a
     crash-consistent prefix, cross-shard commit records included *)
  let config = { E.default with E.shards = 2 } in
  List.iter
    (fun seed ->
      let prog = Proggen.gen_program ~max_txns:4 ~max_ops:3 ~transfers:true seed in
      let r = E.explore_crashes ~config ~sites:`Persist ~max_sites:25 prog in
      match r.E.failure with
      | Some f -> Alcotest.failf "seed %d: %a" seed E.pp_failure f
      | None -> ())
    [ 1; 2; 3 ]

let test_planted_torn_commit_record () =
  (* the distributed-commit bug: the record persists torn across shards,
     so roll-forward recovery applies only the first participant's
     writes.  Crash-point enumeration through the prefix oracle alone
     (sanitizer off — per-shard protocols are locally clean) must catch
     it, and the shrunk failure must replay deterministically. *)
  let config =
    {
      E.default with
      E.shards = 2;
      sanitize = false;
      fault = E.Torn_commit_record;
    }
  in
  let find prog =
    (E.explore_crashes ~config ~sites:`Persist ~max_sites:40 prog).E.failure
  in
  let rec hunt = function
    | [] -> None
    | seed :: rest -> (
        let prog =
          Proggen.gen_program ~max_txns:4 ~max_ops:4 ~transfers:true seed
        in
        match find prog with Some f -> Some f | None -> hunt rest)
  in
  match hunt [ 1; 2; 3; 4; 5 ] with
  | None -> Alcotest.fail "planted torn commit record not found within budget"
  | Some f ->
      check_bool "found at a crash point" true (f.E.crash <> None);
      let small = E.shrink ~find f in
      check_bool "shrunk program still crashes" true (small.E.crash <> None);
      assert_deterministic_replay small

let test_planted_torn_commit_record_wf () =
  (* the same distributed-commit bug through the wait-free router: the
     per-shard OneFile-WF protocols are locally clean (helping included),
     so only the cross-shard crash-point sweep can see the torn record *)
  let config =
    {
      E.default with
      E.wf = true;
      shards = 2;
      sanitize = false;
      fault = E.Torn_commit_record;
    }
  in
  let find prog =
    (E.explore_crashes ~config ~sites:`Persist ~max_sites:40 prog).E.failure
  in
  let rec hunt = function
    | [] -> None
    | seed :: rest -> (
        let prog =
          Proggen.gen_program ~max_txns:4 ~max_ops:4 ~transfers:true seed
        in
        match find prog with Some f -> Some f | None -> hunt rest)
  in
  match hunt [ 1; 2; 3; 4; 5 ] with
  | None ->
      Alcotest.fail "planted torn commit record (wf) not found within budget"
  | Some f ->
      check_bool "found at a crash point" true (f.E.crash <> None);
      let small = E.shrink ~find f in
      check_bool "shrunk program still crashes" true (small.E.crash <> None);
      assert_deterministic_replay small

let test_planted_torn_migration () =
  (* the elastic-sharding bug: a migrator fiber splits shard 0 live while
     the program runs, and the planted fault settles the move with a
     half-length persistent map entry.  Crash-free executions are correct
     (the routing image holds the full range), so only the
     crash-point sweep can see it: a crash after the flip makes the
     reopened router route the torn upper half (which covers live root 6)
     back to the stale source copy, losing post-flip writes — a state no
     crash-consistent serialization explains.  The sweep's earlier sites
     land inside the migration's own publish/copy loop, so roll-forward
     recovery is exercised (and must stay silent) on the way to the
     manifestation. *)
  let config =
    {
      E.default with
      E.wf = true;
      shards = 2;
      sanitize = false;
      fault = E.Torn_migration;
    }
  in
  let find prog =
    (E.explore_crashes ~config ~sites:`Persist ~max_sites:60 prog).E.failure
  in
  let rec hunt = function
    | [] -> None
    | seed :: rest -> (
        let prog =
          Proggen.gen_program ~max_txns:4 ~max_ops:4 ~transfers:true seed
        in
        (* the torn half covers root slot 6: only programs that write it
           (a pointer slot — alloc or free into slot 6) can manifest *)
        let touches_6 =
          List.exists
            (fun t ->
              List.exists
                (function
                  | Proggen.Alloc_into (6, _, _) | Proggen.Free_slot 6 -> true
                  | _ -> false)
                t.Proggen.ops)
            prog
        in
        if not touches_6 then hunt rest
        else match find prog with Some f -> Some f | None -> hunt rest)
  in
  match hunt [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ] with
  | None -> Alcotest.fail "planted torn migration not found within budget"
  | Some f ->
      check_bool "found at a crash point" true (f.E.crash <> None);
      let small = E.shrink ~find f in
      check_bool "shrunk program still crashes" true (small.E.crash <> None);
      assert_deterministic_replay small

let test_migration_clean_sweep () =
  (* the same migrator-under-traffic sweep WITHOUT the fault (config
     [migrate] runs a healthy live split ahead of the program) must stay
     silent: crashes planted inside the migration's record publish, its
     chunked copy loop and the settle/retire — plus every eviction
     variant at each — all recover to a crash-consistent state (roll
     forward once the record is durable, roll back of the orphaned
     write-ahead hold before it) *)
  List.iter
    (fun wf ->
      let config =
        { E.default with E.wf; shards = 2; sanitize = false; migrate = true }
      in
      List.iter
        (fun seed ->
          let prog =
            Proggen.gen_program ~max_txns:3 ~max_ops:3 ~transfers:true seed
          in
          let r =
            E.explore_crashes ~config ~sites:`Persist ~max_sites:30 prog
          in
          match r.E.failure with
          | Some f ->
              Alcotest.failf "%s seed %d: %a"
                (if wf then "wf" else "lf")
                seed E.pp_failure f
          | None -> ())
        [ 4; 5 ])
    [ false; true ]

(* --- helper early-exit under controlled interleaving --------------- *)

(* Overlapping multi-word write sets under a round-robin schedule that
   parks every committer after its commit CAS for longer than a claim
   loser waits for the close (claim_budget = 64 polls) force helping.
   Helpers apply nothing until they presume the owner stalled; they then
   split the log by chunk claims, and the owner, when it wakes, finds
   every entry applied, so no DCAS fails.  A helper that finds the
   request closed after its copy exits early, at most once per helping
   episode. *)
let test_helper_early_exit () =
  let module Lf = Onefile.Onefile_lf in
  let module Pstats = Pmem.Pstats in
  let t = Lf.create ~mode:Pmem.Region.Volatile ~ws_cap:64 ~num_roots:16 () in
  let ops = ref 0 in
  ignore
    (Sched.run_controlled ~pick:(Parking.pick ~park:1000 t)
       (Array.init 8 (fun tid () ->
            for k = 1 to 5 do
              let base = (tid + k) mod 4 in
              ignore
                (Lf.update_tx t (fun tx ->
                     for i = 0 to 11 do
                       Lf.store tx (Lf.root t ((base + i) mod 16)) (tid + i)
                     done;
                     0));
              incr ops
            done)));
  let ops = !ops in
  let st = Pmem.Region.stats (Lf.region t) in
  check_bool "made progress" true (ops > 0);
  check_bool "helping happened" true (st.Pstats.helps > 0);
  check_int "no DCAS failed" 0 st.Pstats.dcas_fail;
  check_bool "exits bounded by helping episodes" true
    (st.Pstats.help_exits <= st.Pstats.helps)

(* A helper that resumes after the owner closed the request stops before
   its puts and its flush pass: it re-reads the request after copying
   its chunk.  Script: the owner (slot 0) commits a 3-entry write-set
   (three roots on three cache lines) and parks right after its commit
   CAS; the helper (slot 1), an update transaction that finds the commit
   open, runs until it has spent its wait for the owner and counted the
   help; the owner then applies, flushes and closes; the helper resumes.
   It must not write back a single data line the owner already
   flushed. *)
let test_helper_recheck_before_flush () =
  let module Lf = Onefile.Onefile_lf in
  let module Core0 = Onefile.Core0 in
  let module Pstats = Pmem.Pstats in
  let t = Lf.create ~size:(1 lsl 14) ~ws_cap:64 ~num_roots:16 () in
  let region = Lf.region t in
  let roots = [ Lf.root t 0; Lf.root t 4; Lf.root t 8 ] in
  let lines = List.map Pmem.Region.line_of roots in
  check_int "three entries on three lines" 3
    (List.length (List.sort_uniq compare lines));
  let seq0, _, _ = Core0.curtx_info t in
  let st = Pmem.Region.stats region in
  let resumed = ref false and data_pwbs = ref 0 and exits0 = ref 0 in
  Pmem.Region.set_observer region
    (Some
       (function
         | Pmem.Region.Ev_pwb { line } when !resumed && List.mem line lines ->
             incr data_pwbs
         | _ -> ()));
  let fibers =
    [|
      (fun () ->
        ignore
          (Lf.update_tx t (fun tx ->
               List.iteri (fun i r -> Lf.store tx r (i + 1)) roots;
               0)));
      (fun () -> ignore (Lf.update_tx t (fun tx -> Lf.load tx (List.hd roots))));
    |]
  in
  let pick ~step:_ ~enabled ~last:_ =
    let has f = Array.exists (fun x -> x = f) enabled in
    let seq, _, _ = Core0.curtx_info t in
    if seq = seq0 && has 0 then 0 (* owner up to its commit CAS *)
    else if st.Pstats.helps = 0 && has 1 then 1 (* helper waits out the owner *)
    else if has 0 then 0 (* owner applies, flushes, closes *)
    else begin
      if not !resumed then begin
        resumed := true;
        exits0 := st.Pstats.help_exits
      end;
      1
    end
  in
  ignore (Sched.run_controlled ~pick fibers);
  Pmem.Region.set_observer region None;
  check_int "one helping episode" 1 st.Pstats.helps;
  check_int "the resumed helper exits early" 1 (st.Pstats.help_exits - !exits0);
  check_int "the resumed helper writes back no data line" 0 !data_pwbs;
  List.iteri
    (fun i r ->
      check_int "owner's write applied" (i + 1)
        (Lf.read_tx t (fun tx -> Lf.load tx r)))
    roots

(* --- telemetry isolation across explored executions ---------------- *)

let test_telemetry_isolation () =
  let te = Telemetry.create () in
  let config = { E.default with E.persistent = true; telemetry = Some te } in
  let prog = Proggen.gen_program ~max_txns:3 ~max_ops:3 1 in
  let r = E.explore_exhaustive ~config ~preemption_bound:1 prog in
  check_bool "ran many executions" true (r.E.executions > 20);
  let snap = Telemetry.snapshot te in
  let v name = List.assoc name snap.Telemetry.counters in
  (* push counters accumulate across instances... *)
  check_bool "commits accumulate across executions" true
    (v "tx.commits" >= r.E.executions);
  (* ...but pull sources must reflect only the LAST instance: before
     Telemetry.clear_sources, every execution left its dead region
     registered and pmem.* summed over all of them (~executions times the
     single-run traffic) *)
  check_bool "pmem.loads bounded by one instance's traffic"
    true
    (v "pmem.loads" < 5_000);
  check_bool "pmem sources present at all" true (v "pmem.loads" > 0)

let () =
  Alcotest.run "explore"
    [
      ( "runtime",
        [
          Alcotest.test_case "record-replay" `Quick test_record_replay;
          Alcotest.test_case "preemption-count" `Quick test_preemptions;
          Alcotest.test_case "divergence-detected" `Quick test_divergence;
          Alcotest.test_case "enumerate-budget" `Quick test_enumerate_budget;
        ] );
      ( "smoke-gate",
        [
          Alcotest.test_case "exhaustive-tiny-lf" `Quick (smoke ~wf:false);
          Alcotest.test_case "exhaustive-tiny-wf" `Quick (smoke ~wf:true);
          Alcotest.test_case "exhaustive-tiny-persistent" `Quick smoke_persistent;
          Alcotest.test_case "crash-sweep-clean" `Quick smoke_crashes;
        ] );
      ( "planted-bugs",
        [
          Alcotest.test_case "lost-update-via-oracle" `Quick
            test_planted_lost_update;
          Alcotest.test_case "lost-update-via-sanitizer" `Quick
            test_planted_lost_update_sanitizer;
          Alcotest.test_case "durability-hole-via-oracle" `Quick
            test_planted_durability_hole;
          Alcotest.test_case "durability-hole-via-sanitizer" `Quick
            test_planted_durability_sanitizer;
          Alcotest.test_case "stale-dedup-via-oracle" `Quick
            test_planted_stale_dedup;
          Alcotest.test_case "no-false-positives" `Quick test_no_false_positives;
          Alcotest.test_case "stale-ro-snapshot-via-oracle" `Quick
            test_planted_stale_ro_snapshot;
          Alcotest.test_case "stale-ro-snapshot-clean" `Quick
            test_stale_ro_snapshot_clean;
          Alcotest.test_case "skip-nocap-via-oracle" `Quick
            test_planted_skip_nocap;
          Alcotest.test_case "skip-nocap-clean" `Quick test_skip_nocap_clean;
          Alcotest.test_case "help-curtx-via-sanitizer" `Quick
            test_planted_help_curtx;
          Alcotest.test_case "help-curtx-clean" `Quick test_help_curtx_clean;
          Alcotest.test_case "early-retry-via-sanitizer" `Quick
            test_planted_early_retry;
          Alcotest.test_case "early-retry-clean" `Quick test_early_retry_clean;
          Alcotest.test_case "early-chunk-done-via-oracle" `Quick
            test_planted_early_chunk_done;
          Alcotest.test_case "early-chunk-done-clean" `Quick
            test_early_chunk_done_clean;
          Alcotest.test_case "early-curtx-signal-via-sanitizer" `Quick
            test_planted_early_curtx_signal;
          Alcotest.test_case "early-curtx-signal-clean" `Quick
            test_early_curtx_signal_clean;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "exhaustive-clean" `Quick
            test_sharded_exhaustive_clean;
          Alcotest.test_case "crash-sweep-clean" `Quick
            test_sharded_crash_sweep_clean;
          Alcotest.test_case "torn-commit-record-via-oracle" `Quick
            test_planted_torn_commit_record;
          Alcotest.test_case "torn-commit-record-wf-router" `Quick
            test_planted_torn_commit_record_wf;
          Alcotest.test_case "migration-crash-sweep-clean" `Quick
            test_migration_clean_sweep;
          Alcotest.test_case "torn-migration-via-oracle" `Quick
            test_planted_torn_migration;
        ] );
      ( "hotpath",
        [
          Alcotest.test_case "helper-early-exit" `Quick test_helper_early_exit;
          Alcotest.test_case "helper-recheck-before-flush" `Quick
            test_helper_recheck_before_flush;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "one-registry-many-executions" `Quick
            test_telemetry_isolation;
        ] );
    ]
