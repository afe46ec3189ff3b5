(* Tests for the benchmark/experiment machinery itself: the fixed-round
   runner, the kill test, the crash campaigns and the cost table. *)

open Runtime
module Br = Workloads.Bench_runner

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_runner_counts_ops () =
  let sp = Br.default ~threads:3 ~cores:3 ~rounds:300 () in
  (* each op = exactly 3 scheduling steps *)
  let dummy = Satomic.make 0 in
  let ops =
    Br.run_ops sp (fun ~tid:_ ~rng:_ ->
        ignore (Satomic.get dummy);
        ignore (Satomic.get dummy);
        ignore (Satomic.get dummy))
  in
  (* 3 threads x 300 rounds / 3 steps: about 300 ops, minus edge effects *)
  check bool "op count plausible" true (ops > 250 && ops <= 310)

let test_runner_deterministic () =
  let run () =
    let cell = Satomic.make 0 in
    let sp = Br.default ~threads:4 ~cores:2 ~rounds:500 ~seed:9 () in
    Br.run_ops sp (fun ~tid:_ ~rng ->
        let v = Satomic.get cell in
        if Rng.bool rng then Satomic.set cell (v + 1))
  in
  check int "same seed, same count" (run ()) (run ())

let test_runner_throughput_unit () =
  let sp = Br.default ~threads:1 ~cores:1 ~rounds:1000 () in
  let dummy = Satomic.make 0 in
  let thr = Br.throughput sp (fun ~tid:_ ~rng:_ -> ignore (Satomic.get dummy)) in
  (* 1 step per op: ~1 op per round = ~1000 ops/kround *)
  check bool "ops per kround near 1000" true (thr > 900.0 && thr <= 1001.0)

let test_runner_latency_histogram () =
  let sp = Br.default ~threads:2 ~cores:2 ~rounds:400 () in
  let dummy = Satomic.make 0 in
  let h =
    Br.latency sp (fun ~tid:_ ~rng:_ ->
        ignore (Satomic.get dummy);
        ignore (Satomic.get dummy))
  in
  check bool "samples collected" true (Histogram.count h > 100);
  check bool "latencies positive" true (Histogram.percentile h 50.0 >= 1)

let kill_result ~wf ~kill =
  Workloads.Kill_test.run ~wf ~processes:4 ~rounds:6000
    ~kill_every:(if kill then Some 300 else None)
    ~items:8 ~seed:5 ()

let test_kill_test_no_kill_clean () =
  List.iter
    (fun wf ->
      let r = kill_result ~wf ~kill:false in
      check int "no kills" 0 r.kills;
      check int "no torn observations" 0 r.torn_observations;
      check bool "total conserved" true r.final_total_ok;
      check int "no leak" 0 r.leaked_cells;
      check bool "made progress" true (r.transfers > 50))
    [ false; true ]

let test_kill_test_with_kills_clean () =
  List.iter
    (fun wf ->
      let r = kill_result ~wf ~kill:true in
      check bool "kills happened" true (r.kills > 5);
      check int "no torn observations" 0 r.torn_observations;
      check bool "total conserved" true r.final_total_ok;
      check int "no leak" 0 r.leaked_cells;
      check bool "progress despite kills" true (r.transfers > 20))
    [ false; true ]

let test_crash_campaigns_clean () =
  let assert_clean label (r : Workloads.Crash_campaign.report) =
    check int (label ^ " torn") 0 r.torn;
    check int (label ^ " leaked") 0 r.leaked;
    check bool (label ^ " ran") true (r.trials > 0)
  in
  assert_clean "of-lf-sps" (Workloads.Crash_campaign.onefile_sps ~wf:false ~trials:10 ());
  assert_clean "of-wf-sps" (Workloads.Crash_campaign.onefile_sps ~wf:true ~trials:10 ());
  assert_clean "of-lf-q" (Workloads.Crash_campaign.onefile_queues ~wf:false ~trials:10 ());
  assert_clean "of-evict"
    (Workloads.Crash_campaign.onefile_sps ~wf:false ~trials:10 ~evict:0.5 ());
  assert_clean "romlog" (Workloads.Crash_campaign.romulus_sps ~lr:false ~trials:10 ());
  assert_clean "romlr" (Workloads.Crash_campaign.romulus_sps ~lr:true ~trials:10 ());
  assert_clean "pmdk" (Workloads.Crash_campaign.pmdk_sps ~trials:10 ())

(* Crash matrix: crash points (swept inside each campaign) x eviction
   policies x both PTM progress modes x two workloads, with a telemetry
   registry threaded through every trial.  Ground truth: each trial runs
   recovery exactly once, so "recovery.runs" must equal report.trials. *)
let test_crash_matrix_with_telemetry () =
  let trials = 6 in
  List.iter
    (fun evict ->
      List.iter
        (fun wf ->
          List.iter
            (fun (wl_name, campaign) ->
              let tele = Telemetry.create () in
              let r : Workloads.Crash_campaign.report =
                campaign ~wf ~trials ~evict ~telemetry:tele ()
              in
              let label =
                Printf.sprintf "%s wf=%b evict=%.1f" wl_name wf evict
              in
              check int (label ^ " trials") trials r.trials;
              check int (label ^ " torn") 0 r.torn;
              check int (label ^ " leaked") 0 r.leaked;
              check int
                (label ^ " recovery.runs matches ground truth")
                trials
                (Telemetry.get tele "recovery.runs");
              check bool (label ^ " work happened") true
                (Telemetry.get tele "tx.commits" > 0))
            [
              ( "sps",
                fun ~wf ~trials ~evict ~telemetry () ->
                  Workloads.Crash_campaign.onefile_sps ~wf ~trials ~evict
                    ~telemetry () );
              ( "queues",
                fun ~wf ~trials ~evict ~telemetry () ->
                  Workloads.Crash_campaign.onefile_queues ~wf ~trials ~evict
                    ~telemetry () );
            ])
        [ false; true ])
    [ 0.0; 0.5 ]

(* --- bench_json --------------------------------------------------- *)

module J = Workloads.Bench_json

let sample_run () =
  {
    J.figure = "figX";
    bench_mode = "quick";
    cores = 8;
    rounds = 20_000;
    threads = [ 1; 2; 4 ];
    seed = 0;
    params = [ ("keys", 128) ];
    tables =
      [
        {
          J.title = "throughput";
          columns = [ "OF-LF"; "OF-WF" ];
          better = J.Higher_better;
          rows =
            [
              { J.label = "1"; values = [ 10.25; 8.5 ] };
              { J.label = "2"; values = [ 19.5; 17.0 ] };
            ];
        };
        {
          J.title = "latency";
          columns = [ "p50"; "p99" ];
          better = J.Lower_better;
          rows = [ { J.label = "OF-LF"; values = [ 12.0; 96.0 ] } ];
        };
      ];
    telemetry = [ ("tx.aborts", 42.0); ("tx.commits", 1234.5) ];
  }

let test_json_roundtrip_identity () =
  let r = sample_run () in
  let s1 = J.to_string (J.run_to_json r) in
  let s2 = J.to_string (J.run_to_json (J.run_of_json (J.parse s1))) in
  check Alcotest.string "emit -> parse -> re-emit is the identity" s1 s2;
  (* floats that need full precision must survive too *)
  let v =
    J.Obj [ ("pi", J.Float 3.14159265358979312); ("tiny", J.Float 1.0e-7) ]
  in
  let s1 = J.to_string v in
  check Alcotest.string "float precision round-trips" s1
    (J.to_string (J.parse s1))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      check bool ("rejects " ^ s) true
        (match J.parse s with
        | exception J.Parse_error _ -> true
        | _ -> false))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "{} trailing" ]

let test_diff_identical_passes () =
  let r = sample_run () in
  check int "self-diff has no regressions" 0
    (List.length (J.diff ~baseline:r ~current:r ()))

let perturb_throughput factor r =
  {
    r with
    J.tables =
      List.map
        (fun (t : J.table) ->
          if t.better <> J.Higher_better then t
          else
            {
              t with
              J.rows =
                List.map
                  (fun (row : J.row) ->
                    { row with J.values = List.map (fun v -> v *. factor) row.values })
                  t.rows;
            })
        r.J.tables;
  }

let test_diff_flags_regression () =
  let base = sample_run () in
  (* 20% throughput drop against a 10% tolerance: every Higher_better value
     must be flagged, the Lower_better table untouched *)
  let regs = J.diff ~tolerance:0.10 ~baseline:base ~current:(perturb_throughput 0.8 base) () in
  check int "all four throughput points flagged" 4 (List.length regs);
  check bool "regressions name the table" true
    (List.for_all
       (fun (g : J.regression) ->
         String.length g.where_ >= 10
         && String.sub g.where_ 0 10 = "throughput")
       regs);
  (* a 20% improvement is not a regression *)
  check int "improvement passes" 0
    (List.length
       (J.diff ~tolerance:0.10 ~baseline:base
          ~current:(perturb_throughput 1.2 base) ()));
  (* within tolerance passes *)
  check int "5% drop within 10% tolerance" 0
    (List.length
       (J.diff ~tolerance:0.10 ~baseline:base
          ~current:(perturb_throughput 0.95 base) ()))

let test_diff_lower_better_and_structural () =
  let base = sample_run () in
  let worse_latency =
    {
      base with
      J.tables =
        List.map
          (fun (t : J.table) ->
            if t.J.better <> J.Lower_better then t
            else
              {
                t with
                J.rows = [ { J.label = "OF-LF"; values = [ 20.0; 150.0 ] } ];
              })
          base.J.tables;
    }
  in
  check int "latency rise flagged per column" 2
    (List.length (J.diff ~baseline:base ~current:worse_latency ()));
  let missing_table = { base with J.tables = [ List.hd base.J.tables ] } in
  check int "vanished table is a structural regression" 1
    (List.length (J.diff ~baseline:base ~current:missing_table ()));
  (* guarded telemetry: abort-count spike is flagged *)
  let aborts_spike =
    { base with J.telemetry = [ ("tx.aborts", 60.0); ("tx.commits", 1234.5) ] }
  in
  check int "tx.aborts spike flagged" 1
    (List.length (J.diff ~baseline:base ~current:aborts_spike ()))

let test_cost_table_matches_paper_formulas () =
  let rows = Workloads.Table_costs.measure_all ~nw:8 in
  let find label =
    List.find (fun r -> r.Workloads.Table_costs.label = label) rows
  in
  let lf = find "OF (Lock-Free)" in
  (* DCAS = 2 + Nw exactly; pfence = 0 exactly *)
  check bool "of-lf cas" true (abs_float (lf.cas_dcas -. 10.0) < 0.01);
  check bool "of-lf pfence" true (lf.pfence = 0.0);
  (* the paper's 1 + 1.25 Nw counts one flush per word; with line-deduped
     data flushes (8 contiguous roots = 2 lines) plus the request flush
     this implementation adds before recycling the log, the count is
     1 (request) + 3 (log lines) + 1 (curTx) + 2 (data lines) = 7 *)
  check bool "of-lf pwb close" true (abs_float (lf.pwb -. 7.0) <= 1.5);
  let rom = find "RomulusLog" in
  check bool "romlog pwb = 3 + 2Nw" true (abs_float (rom.pwb -. 19.0) < 0.01);
  let pmdk = find "PMDK" in
  check bool "pmdk pwb ~ 2.25Nw" true (abs_float (pmdk.pwb -. 18.0) <= 1.5);
  let wf = find "OF (Wait-Free)" in
  check bool "of-wf pfence" true (wf.pfence = 0.0);
  check bool "of-wf dcas > of-lf dcas" true (wf.cas_dcas > lf.cas_dcas)

(* Ground truth for the line-deduped data flushes: a transaction writing
   k words that share one cache line must issue exactly ONE data pwb for
   them, while the same k words spread over k lines cost k.  Roots are
   line-aligned and line_cells = 4, so roots 0..3 share a line and roots
   0,4,8,12 are on four distinct lines.  The redo-log flushes are the
   same in both shapes (entry count depends on k, not on addresses), so
   the totals differ by exactly the deduped data flushes. *)
let test_pwb_line_dedup () =
  let module Region = Pmem.Region in
  let module Pstats = Pmem.Pstats in
  let module Lf = Onefile.Onefile_lf in
  let tx_pwb addrs =
    let t = Lf.create ~num_roots:16 () in
    ignore (Lf.update_tx t (fun tx -> Lf.store tx (Lf.root t 0) 1; 0));
    let st = Region.stats (Lf.region t) in
    let snap = Pstats.copy st in
    ignore
      (Lf.update_tx t (fun tx ->
           List.iter (fun i -> Lf.store tx (Lf.root t i) (i + 41)) addrs;
           0));
    (Pstats.diff st snap).Pstats.pwb
  in
  let same_line = tx_pwb [ 0; 1; 2; 3 ] in
  let four_lines = tx_pwb [ 0; 4; 8; 12 ] in
  (* 1 request pre-flush + 2 log lines + 1 curTx + data lines *)
  check int "4 same-line words: exactly 1 data pwb" 5 same_line;
  check int "4 spread words: 4 data pwbs" 8 four_lines;
  check int "dedup saves exactly k-1 data flushes" 3 (four_lines - same_line)

(* Cell-local determinism: a cell's numbers depend on its own seed only,
   not on the cells that ran before it in the process.  Each pair runs
   [cell], then [other] (a Backoff-heavy cell of another figure), then
   [cell] again. *)
let shard_cell () =
  Workloads.Shard_bench.run ~shards:2 ~cross_pct:25 ~threads:16 ~rounds:20_000
    ~seed:1 ()

let elastic_cell () =
  Workloads.Shard_bench.run_elastic ~shards:2 ~threads:8 ~rounds:20_000 ~seed:7 ()

(* TinySTM on alternating counters under random scheduling: about 7
   aborts, each followed by a backoff wait, per committed operation *)
let tiny_cell () =
  let module T = Baselines.Tinystm in
  let module C = Structures.Counters.Make (T) in
  let t = T.create ~size:(1 lsl 14) () in
  let c = C.create t ~root:0 ~n:4 in
  let flip = Array.make 4 true in
  let sp =
    { (Br.default ~threads:4 ~cores:4 ~rounds:4_000 ~seed:3 ()) with
      policy = Sched.Random_order }
  in
  let ops =
    Br.run_ops sp (fun ~tid ~rng:_ ->
        C.increment_all c ~left_to_right:flip.(tid);
        flip.(tid) <- not flip.(tid))
  in
  (* no read-back: the round cap can stop a fiber holding its locks *)
  (ops, (Pmem.Region.stats (T.region t)).Pmem.Pstats.aborts)

let again cell other =
  let first = cell () in
  ignore (other ());
  check bool "same cell, same result" true (first = cell ())

let test_cells_order_independent () =
  let s = shard_cell () in
  ignore (elastic_cell ());
  let s' = shard_cell () in
  let open Workloads.Shard_bench in
  check int "ops" s.ops s'.ops;
  check int "cross" s.cross s'.cross;
  check int "pwb" s.pwb s'.pwb;
  check bool "conserved" s.conserved s'.conserved;
  check (Alcotest.array int) "per-shard commits" s.per_shard_commits
    s'.per_shard_commits;
  again elastic_cell shard_cell;
  again tiny_cell shard_cell;
  again shard_cell tiny_cell

let () =
  Alcotest.run "workloads"
    [
      ( "bench-runner",
        [
          Alcotest.test_case "op counting" `Quick test_runner_counts_ops;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "throughput unit" `Quick test_runner_throughput_unit;
          Alcotest.test_case "latency histogram" `Quick test_runner_latency_histogram;
          Alcotest.test_case "cells order-independent" `Quick
            test_cells_order_independent;
        ] );
      ( "kill-test",
        [
          Alcotest.test_case "no-kill control" `Quick test_kill_test_no_kill_clean;
          Alcotest.test_case "kills stay clean" `Quick test_kill_test_with_kills_clean;
        ] );
      ( "crash-campaigns",
        [
          Alcotest.test_case "all clean" `Slow test_crash_campaigns_clean;
          Alcotest.test_case "matrix with telemetry" `Slow
            test_crash_matrix_with_telemetry;
        ] );
      ( "bench-json",
        [
          Alcotest.test_case "round-trip identity" `Quick
            test_json_roundtrip_identity;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "self-diff passes" `Quick test_diff_identical_passes;
          Alcotest.test_case "20% drop flagged" `Quick test_diff_flags_regression;
          Alcotest.test_case "lower-better and structural" `Quick
            test_diff_lower_better_and_structural;
        ] );
      ( "cost-table",
        [
          Alcotest.test_case "matches paper formulas" `Quick
            test_cost_table_matches_paper_formulas;
          Alcotest.test_case "pwb line dedup ground truth" `Quick
            test_pwb_line_dedup;
        ] );
    ]
