(* Tests for the Tmcheck opacity/durability sanitizer and the tm_lint
   source lint.

   Two halves: (1) clean runs — the real workloads, with crashes, eviction
   and process kills, must produce zero violations while the sanitizer
   demonstrably observes the run; (2) seeded violations — for each checked
   invariant, drive the protocol into a specific bad state (through the
   Core0 internals or the checker hooks) and require the exact rule to
   fire. *)

open Runtime
module Region = Pmem.Region
module Word = Pmem.Word
module Core0 = Onefile.Core0
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module Writeset = Onefile.Writeset
module Tmcheck = Check.Tmcheck
module Lint = Check.Lint

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let rules vs = List.map (fun v -> v.Tmcheck.rule) vs

let expect_violation rule f =
  match f () with
  | exception Tmcheck.Violation v ->
      check Alcotest.string "rule" rule v.Tmcheck.rule
  | _ -> Alcotest.failf "expected a %s violation" rule

let small_inst () =
  Core0.create ~size:(1 lsl 12) ~max_threads:4 ~ws_cap:16 ~num_roots:4 ()

(* ------------------------------------------------------------------ *)
(* Clean runs                                                          *)

let test_clean_concurrent_run () =
  List.iter
    (fun (label, update, read) ->
      let inst = small_inst () in
      let c = Core0.sanitize inst in
      let r0 = Core0.root inst 0 and r1 = Core0.root inst 1 in
      let fibers =
        Array.init 3 (fun i () ->
            let rng = Rng.create (40 + i) in
            while Sched.now () < max_int do
              if Rng.int rng 4 = 0 then
                ignore
                  (read inst (fun tx -> Core0.load tx r0 + Core0.load tx r1))
              else
                ignore
                  (update inst (fun tx ->
                       let a = Core0.load tx r0 and b = Core0.load tx r1 in
                       Core0.store tx r0 (a + 1);
                       Core0.store tx r1 (b - 1);
                       0))
            done)
      in
      ignore (Sched.run ~seed:11 ~max_rounds:2000 fibers);
      check int (label ^ " conserved") 0
        (Core0.lf_read_tx inst (fun tx -> Core0.load tx r0 + Core0.load tx r1));
      check bool (label ^ " observed the run") true
        (Tmcheck.events_checked c > 1000);
      check int (label ^ " violations") 0 (List.length (Tmcheck.violations c)))
    [
      ("lf", Core0.lf_update_tx, Core0.lf_read_tx);
      ("wf", Core0.wf_update_tx, Core0.wf_read_tx);
    ]

let test_clean_crash_campaigns () =
  (* evicted crash campaigns under the sanitizer in Raise mode: any
     opacity/durability breach raises at the faulting step *)
  let r =
    Workloads.Crash_campaign.onefile_queues ~wf:false ~trials:3 ~evict:0.5
      ~sanitize:true ()
  in
  check int "queues torn" 0 r.Workloads.Crash_campaign.torn;
  check int "queues leaked" 0 r.Workloads.Crash_campaign.leaked;
  let r =
    Workloads.Crash_campaign.onefile_sps ~wf:true ~trials:3 ~evict:0.5
      ~sanitize:true ()
  in
  check int "wf sps torn" 0 r.Workloads.Crash_campaign.torn;
  let r =
    Workloads.Crash_campaign.onefile_tree ~wf:false ~trials:2 ~evict:0.3
      ~sanitize:true ()
  in
  check int "tree torn" 0 r.Workloads.Crash_campaign.torn

let test_clean_kill_test () =
  let r =
    Workloads.Kill_test.run ~wf:false ~processes:3 ~rounds:3000
      ~kill_every:(Some 250) ~items:8 ~seed:3 ~sanitize:true ()
  in
  check bool "kills happened" true (r.Workloads.Kill_test.kills > 0);
  check int "torn observations" 0 r.Workloads.Kill_test.torn_observations;
  check bool "total ok" true r.Workloads.Kill_test.final_total_ok

(* ------------------------------------------------------------------ *)
(* Seeded violations: one per invariant                                *)

(* (a) an unguarded apply: DCAS that does not strictly increase the seq *)
let test_seeded_monotonicity () =
  let inst = small_inst () in
  ignore (Core0.lf_update_tx inst (fun tx -> Core0.store tx (Core0.root inst 0) 7; 0));
  ignore (Core0.sanitize inst);
  let r0 = Core0.root inst 0 in
  let w = Region.load (Core0.region inst) r0 in
  (* same seq over the same cell — exactly what put_one's [w.s < seq]
     guard exists to prevent *)
  expect_violation "seq-monotonicity" (fun () ->
      Region.cas (Core0.region inst) r0 w (Word.make 99 w.Word.s))

(* (b) commit that persists data before persisting curTx *)
let test_seeded_durability () =
  let inst = small_inst () in
  ignore (Core0.sanitize inst);
  let r0 = Core0.root inst 0 in
  let ws = Writeset.create 4 in
  Writeset.put ws r0 42;
  let ct = Core0.read_curtx inst in
  let seq = ct.Word.v + 1 in
  Core0.publish_log inst ~me:0 ws ~seq ~split:false;
  check bool "commit cas" true
    (Region.cas1 (Core0.region inst) Core0.curtx_cell ct (Word.make seq 0));
  (* skip the pwb of curTx, apply, and flush the data: the data word
     becomes durable ahead of the durable curTx *)
  Core0.put_one inst ~seq r0 42;
  expect_violation "durable-ahead-of-curtx" (fun () ->
      Region.pwb (Core0.region inst) r0)

(* durable-ahead-of-curtx is also what the crash audit must catch: sweep
   eviction seeds until one persists the applied data line but not the
   curTx line (the commit skipped its pwb of curTx, so only adversarial
   eviction can surface the gap) *)
let test_seeded_durability_at_crash () =
  let caught = ref false in
  for seed = 1 to 16 do
    if not !caught then begin
      let inst = small_inst () in
      let c = Core0.sanitize ~mode:Tmcheck.Collect inst in
      let r0 = Core0.root inst 0 in
      let ws = Writeset.create 4 in
      Writeset.put ws r0 43;
      let ct = Core0.read_curtx inst in
      let seq = ct.Word.v + 1 in
      Core0.publish_log inst ~me:0 ws ~seq ~split:false;
      ignore
        (Region.cas1 (Core0.region inst) Core0.curtx_cell ct (Word.make seq 0));
      Core0.put_one inst ~seq r0 43;
      Region.crash (Core0.region inst) ~evict_fraction:0.5
        ~rng:(Rng.create seed) ();
      if List.mem "durable-ahead-of-curtx" (rules (Tmcheck.violations c)) then
        caught := true
    end
  done;
  check bool "some eviction seed surfaces the gap" true !caught

(* (c) closing a request whose write-set was not applied *)
let test_seeded_close_before_applied () =
  let inst = small_inst () in
  ignore (Core0.sanitize inst);
  let r0 = Core0.root inst 0 in
  let ws = Writeset.create 4 in
  Writeset.put ws r0 42;
  let ct = Core0.read_curtx inst in
  let seq = ct.Word.v + 1 in
  Core0.publish_log inst ~me:0 ws ~seq ~split:false;
  ignore (Region.cas1 (Core0.region inst) Core0.curtx_cell ct (Word.make seq 0));
  Region.pwb (Core0.region inst) Core0.curtx_cell;
  expect_violation "close-before-applied" (fun () ->
      Core0.close_request inst ~tid:0 ~seq)

(* curTx may only advance by +1 over a closed request with a published log *)
let test_seeded_curtx_discipline () =
  let inst = small_inst () in
  ignore (Core0.sanitize inst);
  let ct = Core0.read_curtx inst in
  expect_violation "curtx-discipline" (fun () ->
      Region.cas1 (Core0.region inst) Core0.curtx_cell ct
        (Word.make (ct.Word.v + 2) 0))

(* data cells never change through a plain store *)
let test_seeded_raw_store () =
  let inst = small_inst () in
  ignore (Core0.sanitize inst);
  expect_violation "raw-store-to-data" (fun () ->
      Region.store (Core0.region inst) (Core0.root inst 0) (Word.make 9 9))

(* (d) opacity: reads past or torn around the snapshot *)
let test_seeded_opacity () =
  let inst = small_inst () in
  let c = Core0.sanitize inst in
  let r0 = Core0.root inst 0 in
  ignore (Core0.lf_update_tx inst (fun tx -> Core0.store tx r0 42; 0));
  (* read newer than the snapshot *)
  Tmcheck.tx_begin c ~read_only:true ~start_seq:1;
  expect_violation "opacity" (fun () -> Tmcheck.tx_load c ~addr:r0 ~v:42 ~s:2);
  (* value that is not the version at the snapshot (torn read) *)
  Tmcheck.tx_begin c ~read_only:true ~start_seq:2;
  expect_violation "opacity" (fun () -> Tmcheck.tx_load c ~addr:r0 ~v:0 ~s:0);
  Tmcheck.tx_abort c

(* (e) executing a reclaimed operation descriptor *)
let test_seeded_freed_closure () =
  let inst = small_inst () in
  let c = Core0.sanitize inst in
  Tmcheck.closure_free c ~opid:7;
  expect_violation "freed-closure-exec" (fun () ->
      Tmcheck.closure_exec c ~opid:7 ~freed:false);
  expect_violation "freed-closure-exec" (fun () ->
      Tmcheck.closure_exec c ~opid:8 ~freed:true)

(* (f) allocator discipline: double free and out-of-block access *)
let test_seeded_double_free () =
  let inst = small_inst () in
  let c = Core0.sanitize ~mode:Tmcheck.Collect inst in
  let r0 = Core0.root inst 0 in
  let p =
    Core0.lf_update_tx inst (fun tx ->
        let p = Core0.alloc tx 2 in
        Core0.store tx r0 p;
        p)
  in
  ignore (Core0.lf_update_tx inst (fun tx -> Core0.free tx p; Core0.store tx r0 0; 0));
  check int "clean so far" 0 (List.length (Tmcheck.violations c));
  ignore (Core0.lf_update_tx inst (fun tx -> Core0.free tx p; Core0.store tx r0 0; 0));
  check bool "double free flagged" true
    (List.mem "double-free" (rules (Tmcheck.violations c)))

let test_seeded_unallocated_access () =
  let inst = small_inst () in
  let c = Core0.sanitize ~mode:Tmcheck.Collect inst in
  let lay = Core0.layout inst in
  let wild = lay.Tmcheck.heap_base + 5 in
  ignore (Core0.lf_read_tx inst (fun tx -> Core0.load tx wild));
  check bool "wild read flagged" true
    (List.mem "unallocated-access" (rules (Tmcheck.violations c)))

(* ------------------------------------------------------------------ *)
(* Recovery after a crash in the middle of the apply phase             *)

let test_recovery_mid_apply () =
  for seed = 1 to 8 do
    let inst = small_inst () in
    let c = Core0.sanitize inst in
    let region = Core0.region inst in
    let r0 = Core0.root inst 0 and r1 = Core0.root inst 1 in
    let ws = Writeset.create 8 in
    Writeset.put ws r0 111;
    Writeset.put ws r1 222;
    let ct = Core0.read_curtx inst in
    let seq = ct.Word.v + 1 in
    (* commit protocol, stopped between publish/commit and completion:
       only the first entry is applied and flushed *)
    Core0.publish_log inst ~me:0 ws ~seq ~split:false;
    check bool "commit cas" true
      (Region.cas1 region Core0.curtx_cell ct (Word.make seq 0));
    Region.pwb region Core0.curtx_cell;
    Core0.put_one inst ~seq r0 111;
    Region.pwb region r0;
    Region.crash region ~evict_fraction:0.7 ~rng:(Rng.create seed) ();
    (* durable curTx says seq committed, so recovery must finish the apply *)
    Core0.recover inst;
    let w0 = Region.load region r0 and w1 = Region.load region r1 in
    check int "r0 value" 111 w0.Word.v;
    check int "r0 seq" seq w0.Word.s;
    check int "r1 value" 222 w1.Word.v;
    check int "r1 seq" seq w1.Word.s;
    check int "r1 durable" 222 (Region.peek_durable region r1).Word.v;
    check bool "request closed" true (not (Core0.is_open inst (Core0.read_curtx inst)));
    (* the machine still works, under the sanitizer, after recovery *)
    ignore (Core0.lf_update_tx inst (fun tx -> Core0.store tx r0 5; 0));
    check int "post-recovery read" 5 (Core0.lf_read_tx inst (fun tx -> Core0.load tx r0));
    check int "no violations" 0 (List.length (Tmcheck.violations c))
  done

(* ------------------------------------------------------------------ *)
(* Lint                                                                *)

let nfindings ~path src = List.length (Lint.lint_source ~path src)

let rule_at ~path src =
  match Lint.lint_source ~path src with
  | [] -> "none"
  | f :: _ -> f.Lint.rule

let test_lint_raw_atomic () =
  check Alcotest.string "raw Atomic flagged" "raw-atomic"
    (rule_at ~path:"lib/foo/bar.ml" "let x = Atomic.get r\n");
  check Alcotest.string "Stdlib.Atomic flagged" "raw-atomic"
    (rule_at ~path:"bin/foo.ml" "let x = Stdlib.Atomic.make 0\n");
  check int "Satomic is fine" 0
    (nfindings ~path:"lib/foo/bar.ml" "let x = Satomic.get r\n");
  check int "satomic.ml itself is exempt" 0
    (nfindings ~path:"lib/runtime/satomic.ml" "let get = Atomic.get\n");
  check int "prose about Atomic is fine" 0
    (nfindings ~path:"lib/foo/bar.ml"
       "(* Atomic.get would be wrong here *)\nlet s = \"Atomic.get\"\n");
  check int "nested comments stripped" 0
    (nfindings ~path:"lib/foo/bar.ml" "(* a (* Atomic.get *) b *)\nlet x = 1\n")

(* Regression: the pre-v2 character scanner could not strip [{|...|}]
   quoted strings, so banned tokens inside them false-positived.  The
   token rules run on the real lexer and cannot be fooled. *)
let test_lint_quoted_strings () =
  check int "Atomic in a quoted string is fine" 0
    (nfindings ~path:"lib/foo/bar.ml" "let doc = {|use Atomic.get here|}\n");
  check int "mutable in a quoted string is fine" 0
    (nfindings ~path:"lib/foo/bar.ml" "let doc = {|mutable state|}\n");
  check int "Random in a quoted string is fine" 0
    (nfindings ~path:"lib/foo/bar.ml" "let doc = {|Random.int 5|}\n");
  check int "quoted string with an id is fine" 0
    (nfindings ~path:"lib/foo/bar.ml" "let doc = {x|Atomic.get|x}\n")

let test_lint_determinism () =
  check Alcotest.string "Random in lib flagged" "nondeterminism"
    (rule_at ~path:"lib/foo/bar.ml" "let x = Random.int 5\n");
  check Alcotest.string "gettimeofday flagged" "nondeterminism"
    (rule_at ~path:"lib/foo/bar.ml" "let t = Unix.gettimeofday ()\n");
  check int "Random outside lib is fine" 0
    (nfindings ~path:"bench/main.ml" "let x = Random.int 5\n")

let test_lint_markers () =
  check Alcotest.string "relaxed needs marker" "relaxed-needs-marker"
    (rule_at ~path:"lib/foo/bar.ml" "let x = Satomic.get_relaxed r\n");
  check int "relaxed with marker is fine" 0
    (nfindings ~path:"lib/foo/bar.ml"
       "(* relaxed-ok: debug view *)\nlet x = Satomic.get_relaxed r\n");
  check Alcotest.string "mutable needs marker" "mutable-needs-marker"
    (rule_at ~path:"lib/foo/bar.ml" "type t = { mutable n : int }\n");
  check int "mutable with marker is fine" 0
    (nfindings ~path:"lib/foo/bar.ml"
       "(* mutable-ok: one fiber *)\ntype t = { mutable n : int }\n");
  check int "mutable outside lib is fine" 0
    (nfindings ~path:"bin/foo.ml" "type t = { mutable n : int }\n");
  check int "immutable identifier is fine" 0
    (nfindings ~path:"lib/foo/bar.ml" "let immutable_n = 1\n")

let test_lint_hotpath () =
  check Alcotest.string "find_opt in lib/onefile flagged" "hotpath-alloc"
    (rule_at ~path:"lib/onefile/foo.ml" "let x = Hashtbl.find_opt h k\n");
  check Alcotest.string "find_opt in lib/tm flagged" "hotpath-alloc"
    (rule_at ~path:"lib/tm/foo.ml" "let x = Hashtbl.find_opt h k\n");
  check int "exception lookup in lib/tm is fine" 0
    (nfindings ~path:"lib/tm/foo.ml"
       "let x = match Hashtbl.find h k with v -> v | exception Not_found -> 0\n");
  check Alcotest.string "string-keyed incr flagged" "hotpath-alloc"
    (rule_at ~path:"lib/onefile/foo.ml" "let () = Telemetry.incr t \"x\"\n");
  check Alcotest.string "string-keyed sample flagged" "hotpath-alloc"
    (rule_at ~path:"lib/onefile/foo.ml" "let () = Telemetry.sample t \"x\" 1\n");
  check int "alloc-ok marker allows it" 0
    (nfindings ~path:"lib/onefile/foo.ml"
       "(* alloc-ok: cold path *)\nlet x = Hashtbl.find_opt h k\n");
  check int "outside lib/onefile and lib/tm is fine" 0
    (nfindings ~path:"lib/workloads/foo.ml" "let x = Hashtbl.find_opt h k\n");
  check int "handle tick is fine" 0
    (nfindings ~path:"lib/onefile/foo.ml" "let () = Telemetry.tick h\n")

(* telemetry-step: a sample's argument must not take a scheduling step.
   The planted cases are the two shapes the rule was written for (a lag
   sample reading a Satomic cell, a stall sample reading a counter) plus
   a Region load; the clean cases sample step-free values, or take the
   step outside the argument. *)
let test_lint_telemetry_step () =
  let rule = "telemetry-step" in
  check Alcotest.string "Satomic.get in an observe argument flagged" rule
    (rule_at ~path:"lib/onefile/foo.ml"
       "let f h c r = Telemetry.observe h (Satomic.get c - r); 0\n");
  check Alcotest.string "qualified Satomic.get in a sample flagged" rule
    (rule_at ~path:"lib/tm/foo.ml"
       "let f h m = Runtime.Telemetry.observe h (Runtime.Satomic.get m)\n");
  check Alcotest.string "Region.load in a tick argument flagged" rule
    (rule_at ~path:"lib/tm/foo.ml"
       "let f h r a = Telemetry.tick h ~by:(Region.load r a).Word.v\n");
  check int "step-free read under a relaxed-ok marker is fine" 0
    (nfindings ~path:"lib/onefile/foo.ml"
       "(* relaxed-ok: telemetry sample *)\n\
        let f h c r = Telemetry.observe h (Satomic.get_relaxed c - r); 0\n");
  check int "a step after the sample is not in its argument" 0
    (nfindings ~path:"lib/onefile/foo.ml"
       "let f h c = Telemetry.tick h; Satomic.get c\n");
  check int "a step in the branch after the sample is fine" 0
    (nfindings ~path:"lib/onefile/foo.ml"
       "let f h c = if true then Telemetry.tick h else Satomic.incr c\n");
  check int "a step bound before the sample is fine" 0
    (nfindings ~path:"lib/onefile/foo.ml"
       "let f h c = let v = Satomic.get c in Telemetry.observe h v\n");
  check int "outside lib/ is fine" 0
    (nfindings ~path:"bench/foo.ml"
       "let f h c = Telemetry.observe h (Satomic.get c)\n")

let test_lint_layering () =
  check Alcotest.string "Core0 in lib/workloads flagged" "layering"
    (rule_at ~path:"lib/workloads/foo.ml"
       "let f tm = (Onefile.Core0.faults tm).x <- true\n");
  check Alcotest.string "Core0 in bin flagged" "layering"
    (rule_at ~path:"bin/foo.ml" "let t = Onefile.Core0.create ()\n");
  check int "lib/onefile may use Core0" 0
    (nfindings ~path:"lib/onefile/onefile_lf.ml" "let create = Core0.create\n");
  check int "lib/tm may use Core0" 0
    (nfindings ~path:"lib/tm/foo.ml" "let x = Onefile.Core0.faults\n");
  check int "layering-ok marker escapes" 0
    (nfindings ~path:"bin/foo.ml"
       "(* layering-ok: debug tool *)\nlet t = Onefile.Core0.create ()\n");
  check int "prose about Core0 is fine" 0
    (nfindings ~path:"lib/workloads/foo.ml" "(* see Core0.commit *)\nlet x = 1\n");
  check int "front-end faults accessor is fine" 0
    (nfindings ~path:"lib/workloads/foo.ml" "let f tm = Lf.faults tm\n")

let test_lint_missing_mli () =
  let r = Lint.missing_mli ~files:[ "lib/a/b.ml"; "lib/a/c.ml"; "lib/a/c.mli" ] in
  check int "one missing" 1 (List.length r);
  check Alcotest.string "which" "lib/a/b.ml" (List.hd r).Lint.file;
  check int "bin is exempt" 0 (List.length (Lint.missing_mli ~files:[ "bin/x.ml" ]))

let () =
  Alcotest.run "check"
    [
      ( "clean runs",
        [
          Alcotest.test_case "concurrent lf+wf" `Quick test_clean_concurrent_run;
          Alcotest.test_case "crash campaigns, evicted" `Slow
            test_clean_crash_campaigns;
          Alcotest.test_case "kill test" `Slow test_clean_kill_test;
        ] );
      ( "seeded violations",
        [
          Alcotest.test_case "seq monotonicity" `Quick test_seeded_monotonicity;
          Alcotest.test_case "durability at pwb" `Quick test_seeded_durability;
          Alcotest.test_case "durability at crash" `Quick
            test_seeded_durability_at_crash;
          Alcotest.test_case "close before applied" `Quick
            test_seeded_close_before_applied;
          Alcotest.test_case "curtx discipline" `Quick test_seeded_curtx_discipline;
          Alcotest.test_case "raw store" `Quick test_seeded_raw_store;
          Alcotest.test_case "opacity" `Quick test_seeded_opacity;
          Alcotest.test_case "freed closure" `Quick test_seeded_freed_closure;
          Alcotest.test_case "double free" `Quick test_seeded_double_free;
          Alcotest.test_case "unallocated access" `Quick
            test_seeded_unallocated_access;
        ] );
      ( "recovery",
        [ Alcotest.test_case "crash mid-apply" `Quick test_recovery_mid_apply ] );
      ( "lint",
        [
          Alcotest.test_case "raw atomic" `Quick test_lint_raw_atomic;
          Alcotest.test_case "quoted strings" `Quick test_lint_quoted_strings;
          Alcotest.test_case "determinism" `Quick test_lint_determinism;
          Alcotest.test_case "markers" `Quick test_lint_markers;
          Alcotest.test_case "hotpath alloc" `Quick test_lint_hotpath;
          Alcotest.test_case "telemetry step" `Quick test_lint_telemetry_step;
          Alcotest.test_case "layering" `Quick test_lint_layering;
          Alcotest.test_case "missing mli" `Quick test_lint_missing_mli;
        ] );
    ]
