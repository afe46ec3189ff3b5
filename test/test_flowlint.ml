(* Tests for the flowlint flow-sensitive analyzer.

   Three layers: (1) the fixture corpus — every planted violation must be
   reported at the expected line with the expected rule, and the clean
   control fixtures must stay silent (goldens in
   flowlint_corpus/*.expected); (2) the real tree — pristine
   lib/onefile/core0.ml analyzes clean, and textually re-planting the
   PR 1 publish_log hole (deleting the request-cell pwb, then also the
   trailing pwb_range) makes the analyzer rediscover it statically as
   missing-preflush resp. publish-before-flush; (3) the report layer —
   JSON round-trip through Bench_json and the (file, rule) count-budget
   baseline diff. *)

module Lint = Check.Lint
module Driver = Flowlint.Driver
module Checks = Flowlint.Checks
module Report = Flowlint.Report
module J = Workloads.Bench_json

let check = Alcotest.check

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lines s =
  String.split_on_char '\n' s |> List.filter (fun l -> String.trim l <> "")

let fmt_findings fs =
  List.map
    (fun (f : Lint.finding) -> Printf.sprintf "%s:%d: [%s]" f.file f.line f.rule)
    fs

(* ------------------------------------------------------------------ *)
(* Corpus goldens                                                      *)

(* dune runtest runs tests in test/, dune exec from the root *)
let corpus_dir =
  if Sys.file_exists "flowlint_corpus" then "flowlint_corpus"
  else "test/flowlint_corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml")
  |> List.sort compare

let test_corpus () =
  let files = corpus_files () in
  check Alcotest.bool "corpus is non-trivial" true (List.length files >= 10);
  List.iter
    (fun f ->
      let src = read_file (Filename.concat corpus_dir f) in
      let actual =
        Driver.analyze_source ~config:Checks.corpus_config ~path:f src
        |> fmt_findings
      in
      let expected =
        lines (read_file (Filename.concat corpus_dir (Filename.chop_suffix f ".ml" ^ ".expected")))
      in
      check Alcotest.(list string) f expected actual)
    files

let test_corpus_covers_all_rules () =
  let rules =
    corpus_files ()
    |> List.concat_map (fun f ->
           Driver.analyze_source ~config:Checks.corpus_config ~path:f
             (read_file (Filename.concat corpus_dir f)))
    |> List.map (fun (f : Lint.finding) -> f.rule)
  in
  check Alcotest.bool "at least 8 planted violations" true
    (List.length rules >= 8);
  List.iter
    (fun r ->
      check Alcotest.bool (r ^ " is exercised") true (List.mem r rules))
    [
      "missing-flush"; "duplicate-flush"; "publish-before-flush";
      "missing-preflush"; "unbounded-loop"; "lock-order"; "flowlint-annot";
      "unpinned-snapshot-load"; "migration-record-order";
    ]

(* Repo scoping: the same fixture under a path outside the wait-free
   scope raises no loop/lock obligations (persistence still applies). *)
let test_repo_scoping () =
  let src = read_file (Filename.concat corpus_dir "unbounded_loop.ml") in
  let fs = Driver.analyze_source ~path:"bench/unbounded_loop.ml" src in
  check Alcotest.(list string) "out of scope" [] (fmt_findings fs);
  let fs =
    Driver.analyze_source ~path:"lib/reclaim/unbounded_loop.ml" src
  in
  check Alcotest.int "in scope" 2 (List.length fs)

(* ------------------------------------------------------------------ *)
(* The real tree: core0.ml and the PR 1 publish_log hole               *)

let core0_path =
  if Sys.file_exists "../lib/onefile/core0.ml" then "../lib/onefile/core0.ml"
  else "lib/onefile/core0.ml"
let pwb_line = "if not inst.faults.drop_publish_pwb then Region.pwb region base;"
let pwb_range_line = "Region.pwb_range region base (n + 1)"
let commit_cas1_line = "Region.cas1 inst.region curtx_cell ct (Word.make seq me)"

(* 1-based number of the first line of [src] containing [what] *)
let line_of ~what src =
  let n = String.length what in
  let contains l =
    let rec go i =
      i + n <= String.length l && (String.sub l i n = what || go (i + 1))
    in
    go 0
  in
  let rec find i = function
    | [] -> Alcotest.failf "%S not found in core0.ml" what
    | l :: rest -> if contains l then i else find (i + 1) rest
  in
  find 1 (String.split_on_char '\n' src)

let replace ~what ~by src =
  let n = String.length what in
  let rec go i =
    if i + n > String.length src then
      Alcotest.failf "mutation target %S not found in core0.ml" what
    else if String.sub src i n = what then
      String.sub src 0 i ^ by ^ String.sub src (i + n) (String.length src - i - n)
    else go (i + 1)
  in
  go 0

let analyze_core0 src =
  Driver.analyze_source ~path:"lib/onefile/core0.ml" src

let test_core0_pristine () =
  check Alcotest.(list string) "clean tree has zero findings" []
    (fmt_findings (analyze_core0 (read_file core0_path)))

let test_core0_missing_preflush () =
  let src = replace ~what:pwb_line ~by:"" (read_file core0_path) in
  let rules = List.map (fun (f : Lint.finding) -> f.rule) (analyze_core0 src) in
  check Alcotest.(list string) "deleting the request-cell pwb is caught"
    [ "missing-preflush" ] rules

let test_core0_publish_before_flush () =
  let src =
    read_file core0_path
    |> replace ~what:pwb_line ~by:""
    |> replace ~what:pwb_range_line ~by:"()"
  in
  let findings = analyze_core0 src in
  let rules = List.map (fun (f : Lint.finding) -> f.rule) findings in
  check Alcotest.bool "publish_log dirt reaches the commit cas1" true
    (List.mem "publish-before-flush" rules);
  (* lf_update_tx and wf_update_tx share one commit routine: exactly one
     path publishes the unflushed log, flagged at its curTx cas1 *)
  check Alcotest.(list int) "the one commit cas1 flagged"
    [ line_of ~what:commit_cas1_line src ]
    (List.filter_map
       (fun (f : Lint.finding) ->
         if f.rule = "publish-before-flush" then Some f.line else None)
       findings)

(* The snapshot-read rule on the real tree: core0's two caller-held-pin
   load sites are justified with ok-annotations; stripping both (turning
   them into plain comments) must make the analyzer flag exactly those
   two loads — the suppressions are load-bearing, not decorative. *)
let snap_ok_annot = "flowlint: ok unpinned-snapshot-load"

let test_core0_unpinned_snapshot_load () =
  let src =
    read_file core0_path
    |> replace ~what:snap_ok_annot ~by:""
    |> replace ~what:snap_ok_annot ~by:""
  in
  let rules = List.map (fun (f : Lint.finding) -> f.rule) (analyze_core0 src) in
  check
    Alcotest.(list string)
    "both caller-pinned load sites are flagged without their annotations"
    [ "unpinned-snapshot-load"; "unpinned-snapshot-load" ]
    rules

(* ------------------------------------------------------------------ *)
(* Report: JSON round-trip and baseline diff                           *)

let sample_findings () =
  corpus_files ()
  |> List.concat_map (fun f ->
         Driver.analyze_source ~config:Checks.corpus_config ~path:f
           (read_file (Filename.concat corpus_dir f)))

let test_json_roundtrip () =
  let fs = sample_findings () in
  let doc = Report.to_json ~files:(List.length (corpus_files ())) fs in
  let s = J.to_string doc in
  let files', fs' = Report.of_json (J.parse s) in
  check Alcotest.int "files count" (List.length (corpus_files ())) files';
  check Alcotest.int "findings count" (List.length fs) (List.length fs');
  List.iter2
    (fun (a : Lint.finding) (b : Lint.finding) ->
      check Alcotest.string "file" a.file b.file;
      check Alcotest.int "line" a.line b.line;
      check Alcotest.string "rule" a.rule b.rule;
      check Alcotest.string "message" a.message b.message)
    fs fs';
  (* byte-identical re-emission, like every Bench_json document *)
  check Alcotest.string "stable" s
    (J.to_string (Report.to_json ~files:files' fs'))

let test_baseline_diff () =
  let fs = sample_findings () in
  check Alcotest.int "same findings gate clean" 0
    (List.length (Report.fresh ~baseline:fs ~current:fs));
  (* new debt in a fresh (file, rule) key fails *)
  let extra =
    { Lint.file = "lib/x.ml"; line = 3; rule = "missing-flush"; message = "m" }
  in
  check Alcotest.int "new key gates" 1
    (List.length (Report.fresh ~baseline:fs ~current:(extra :: fs)));
  (* a second finding of an existing (file, rule) key also fails... *)
  let dup =
    match fs with
    | f :: _ -> { f with line = f.line + 100 }
    | [] -> Alcotest.fail "corpus produced no findings"
  in
  let fresh = Report.fresh ~baseline:fs ~current:(dup :: fs) in
  check Alcotest.bool "count growth gates" true (List.length fresh >= 2);
  (* ...while removals never do *)
  check Alcotest.int "fixes gate clean" 0
    (List.length (Report.fresh ~baseline:fs ~current:(List.tl fs)))

let () =
  Alcotest.run "flowlint"
    [
      ( "corpus",
        [
          Alcotest.test_case "goldens" `Quick test_corpus;
          Alcotest.test_case "rule coverage" `Quick test_corpus_covers_all_rules;
          Alcotest.test_case "repo scoping" `Quick test_repo_scoping;
        ] );
      ( "core0",
        [
          Alcotest.test_case "pristine is clean" `Quick test_core0_pristine;
          Alcotest.test_case "missing preflush" `Quick test_core0_missing_preflush;
          Alcotest.test_case "publish before flush" `Quick
            test_core0_publish_before_flush;
          Alcotest.test_case "unpinned snapshot load" `Quick
            test_core0_unpinned_snapshot_load;
        ] );
      ( "report",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "baseline diff" `Quick test_baseline_diff;
        ] );
    ]
