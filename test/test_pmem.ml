(* Tests for the simulated persistent region: persistence model, crash
   semantics, operation counting. *)

open Runtime
module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let w v s = Word.make v s
let wv (x : Word.t) = x.Word.v
let ws (x : Word.t) = x.Word.s

let test_load_store () =
  let r = Region.create 64 in
  Region.store r 3 (w 42 7);
  let x = Region.load r 3 in
  check int "value" 42 (wv x);
  check int "seq" 7 (ws x);
  check int "other cells zero" 0 (wv (Region.load r 4))

let test_cas_semantics () =
  let r = Region.create 16 in
  let old = Region.load r 1 in
  check bool "cas succeeds on current" true (Region.cas r 1 old (w 5 1));
  check bool "cas fails on stale" false (Region.cas r 1 old (w 6 2));
  check int "value after" 5 (wv (Region.load r 1))

let test_cas_counts () =
  let r = Region.create 16 in
  let st = Region.stats r in
  let old = Region.load r 1 in
  ignore (Region.cas r 1 old (w 1 1));
  ignore (Region.cas1 r 2 (Region.load r 2) (w 2 1));
  check int "dcas counted" 1 st.Pstats.dcas;
  check int "cas counted" 1 st.Pstats.cas

let test_crash_drops_unflushed () =
  let r = Region.create 64 in
  Region.store r 10 (w 99 1);
  Region.crash r ();
  check int "unflushed store lost" 0 (wv (Region.load r 10))

let test_crash_keeps_flushed () =
  let r = Region.create 64 in
  Region.store r 10 (w 99 1);
  Region.pwb r 10;
  Region.pfence r;
  Region.store r 20 (w 50 2);
  Region.crash r ();
  check int "flushed survives" 99 (wv (Region.load r 10));
  check int "unflushed lost" 0 (wv (Region.load r 20))

let test_pwb_covers_whole_line () =
  let r = Region.create 64 in
  (* cells 8..11 share a line (line_cells = 4) *)
  Region.store r 8 (w 1 1);
  Region.store r 11 (w 4 1);
  Region.pwb r 9;
  Region.crash r ();
  check int "same-line neighbour flushed" 1 (wv (Region.load r 8));
  check int "same-line neighbour flushed" 4 (wv (Region.load r 11))

let test_pwb_range_counts_lines () =
  let r = Region.create 256 in
  let st = Region.stats r in
  let before = st.Pstats.pwb in
  Region.pwb_range r 8 9;
  (* cells 8..16: lines 2,3,4 -> 3 pwbs *)
  check int "3 lines flushed" 3 (st.Pstats.pwb - before);
  Region.pwb_range r 0 0;
  check int "empty range free" 3 (st.Pstats.pwb - before)

let test_dirty_lines_tracking () =
  let r = Region.create 64 in
  check int "initially clean" 0 (Region.dirty_lines r);
  Region.store r 0 (w 1 1);
  Region.store r 1 (w 1 1);
  Region.store r 8 (w 1 1);
  check int "two dirty lines" 2 (Region.dirty_lines r);
  Region.pwb r 0;
  check int "one dirty line after flush" 1 (Region.dirty_lines r)

let test_adversarial_eviction () =
  (* With evict_fraction 1.0 every dirty line survives the crash. *)
  let r = Region.create 64 in
  Region.store r 10 (w 7 1);
  Region.crash r ~evict_fraction:1.0 ~rng:(Rng.create 5) ();
  check int "evicted line persisted" 7 (wv (Region.load r 10))

let test_eviction_requires_rng () =
  (* Randomized eviction without a caller-supplied rng must be refused:
     a silent Rng.create 1 default made every campaign evict the same
     lines regardless of the campaign seed, hiding seed-dependent
     crash states. *)
  let r = Region.create 64 in
  Region.store r 10 (w 7 1);
  check bool "eviction without rng rejected" true
    (match Region.crash r ~evict_fraction:0.5 () with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* fraction 0 needs no randomness, so no rng is fine *)
  Region.crash r ~evict_fraction:0.0 ();
  check int "unflushed store dropped" 0 (wv (Region.load r 10))

let test_volatile_mode () =
  let r = Region.create ~mode:Region.Volatile 64 in
  let st = Region.stats r in
  Region.store r 1 (w 3 1);
  Region.pwb r 1;
  Region.pfence r;
  check int "pwb free in volatile mode" 0 st.Pstats.pwb;
  check int "pfence free in volatile mode" 0 st.Pstats.pfence;
  check bool "crash rejected" true
    (match Region.crash r () with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_crash_in_simulation () =
  (* Concurrent fibers mutate; a crash at a chosen round keeps only what
     was explicitly persisted before that round. *)
  let r = Region.create 64 in
  let persisted = ref (-1) in
  let body () =
    for i = 1 to 100 do
      Region.store r 5 (w i i);
      if i = 30 then begin
        Region.pwb r 5;
        Region.pfence r;
        persisted := i
      end
    done
  in
  ignore (Sched.run ~max_rounds:120 [| body |]);
  Region.crash r ();
  check bool "durable value is a persisted one" true (wv (Region.load r 5) >= 30 || wv (Region.load r 5) = 0);
  check bool "durable not newer than last flush+dirty" true (wv (Region.load r 5) <= 100)

let test_peek_durable () =
  let r = Region.create 16 in
  Region.store r 2 (w 9 1);
  check int "volatile peek" 9 (wv (Region.peek r 2));
  check int "durable peek still old" 0 (wv (Region.peek_durable r 2));
  Region.pwb r 2;
  check int "durable peek updated" 9 (wv (Region.peek_durable r 2))

let test_stats_reset_diff () =
  let r = Region.create 16 in
  let st = Region.stats r in
  ignore (Region.load r 1);
  let snap = Pstats.copy st in
  ignore (Region.load r 1);
  ignore (Region.load r 1);
  let d = Pstats.diff st snap in
  check int "diff loads" 2 d.Pstats.loads;
  Pstats.reset st;
  check int "reset" 0 st.Pstats.loads

(* ------------------------------------------------------------------ *)
(* Views: partition — the sharding substrate.                         *)

let test_partition_uneven () =
  let r = Region.create 64 in
  let vs = Region.partition r [ 4; 12; 32 ] in
  check int "three views" 3 (List.length vs);
  let v0 = List.nth vs 0 and v1 = List.nth vs 1 and v2 = List.nth vs 2 in
  check int "v0 size" 4 (Region.size v0);
  check int "v1 size" 12 (Region.size v1);
  check int "v2 size" 32 (Region.size v2);
  check int "v0 offset" 0 (Region.offset v0);
  check int "v1 offset" 4 (Region.offset v1);
  check int "v2 offset" 16 (Region.offset v2);
  check Alcotest.string "telemetry id" "s2" (Region.id v2);
  check bool "parent is the root" true
    (match Region.parent v2 with Some p -> p == r | None -> false);
  (* view-local cell 0 of v2 is device cell 16 *)
  Region.store v2 0 (w 7 1);
  check int "view-local store lands at the view's base" 7
    (wv (Region.peek r 16));
  check int "view stats charged" 1 (Region.stats v2).Pstats.stores;
  check int "root aggregates view traffic" 1 (Region.stats r).Pstats.stores;
  (* the 16-cell slack past the last view stays addressable via the root *)
  check int "slack untouched" 0 (wv (Region.load r 63))

let test_partition_min_shard () =
  (* minimum legal shard: exactly one cache line *)
  let r = Region.create 16 in
  let vs = Region.partition r [ Region.line_cells; Region.line_cells ] in
  let v0 = List.nth vs 0 and v1 = List.nth vs 1 in
  check int "one-line shard" Region.line_cells (Region.size v0);
  Region.store v0 3 (w 1 1);
  Region.store v1 0 (w 2 1);
  check int "v0 last cell is device 3" 1 (wv (Region.peek r 3));
  check int "v1 first cell is device 4" 2 (wv (Region.peek r 4));
  (* each one-line view reports its own dirt only *)
  check int "v0 one dirty line" 1 (Region.dirty_lines v0);
  check int "v1 one dirty line" 1 (Region.dirty_lines v1)

let test_partition_rejects () =
  let r = Region.create 16 in
  let rejected sizes =
    match Region.partition r sizes with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check bool "zero size" true (rejected [ 4; 0 ]);
  check bool "negative size" true (rejected [ -4 ]);
  check bool "not a line multiple" true (rejected [ 6 ]);
  check bool "sum exceeds the region" true (rejected [ 8; 12 ]);
  check int "exact fit accepted" 2 (List.length (Region.partition r [ 8; 8 ]))

let test_repartition_composes_offsets () =
  let r = Region.create 128 in
  let shards = Region.partition r [ 64; 64 ] in
  let s1 = List.nth shards 1 in
  let subs = Region.partition ~id_prefix:"m" s1 [ 16; 16; 32 ] in
  let m2 = List.nth subs 2 in
  check int "offset composes through the intermediate view" 96
    (Region.offset m2);
  check bool "parent is the root, not the intermediate view" true
    (match Region.parent m2 with Some p -> p == r | None -> false);
  Region.store m2 1 (w 11 1);
  check int "device coordinates" 11 (wv (Region.peek r 97));
  check int "intermediate-view coordinates" 11 (wv (Region.peek s1 33));
  (* nested views joined the root's broadcast list: Ev_crash reaches them *)
  let crashed = ref 0 in
  List.iter
    (fun v ->
      Region.set_observer v
        (Some (function Region.Ev_crash -> incr crashed | _ -> ())))
    subs;
  Region.crash r ();
  check int "Ev_crash broadcast to nested views" 3 !crashed;
  check int "unflushed nested store dropped" 0 (wv (Region.peek r 97));
  (* the device is the crash domain: crashing a view is refused *)
  check bool "view crash rejected" true
    (match Region.crash s1 () with
    | exception Invalid_argument _ -> true
    | () -> false)

let () =
  Alcotest.run "pmem"
    [
      ( "region",
        [
          Alcotest.test_case "load/store" `Quick test_load_store;
          Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
          Alcotest.test_case "cas counting" `Quick test_cas_counts;
          Alcotest.test_case "crash drops unflushed" `Quick test_crash_drops_unflushed;
          Alcotest.test_case "crash keeps flushed" `Quick test_crash_keeps_flushed;
          Alcotest.test_case "pwb covers line" `Quick test_pwb_covers_whole_line;
          Alcotest.test_case "pwb_range counts lines" `Quick test_pwb_range_counts_lines;
          Alcotest.test_case "dirty lines" `Quick test_dirty_lines_tracking;
          Alcotest.test_case "adversarial eviction" `Quick test_adversarial_eviction;
          Alcotest.test_case "eviction requires rng" `Quick test_eviction_requires_rng;
          Alcotest.test_case "volatile mode" `Quick test_volatile_mode;
          Alcotest.test_case "crash mid-simulation" `Quick test_crash_in_simulation;
          Alcotest.test_case "peek durable" `Quick test_peek_durable;
          Alcotest.test_case "stats copy/diff/reset" `Quick test_stats_reset_diff;
        ] );
      ( "views",
        [
          Alcotest.test_case "uneven partition" `Quick test_partition_uneven;
          Alcotest.test_case "minimum-size shard" `Quick test_partition_min_shard;
          Alcotest.test_case "partition rejects" `Quick test_partition_rejects;
          Alcotest.test_case "re-partition composes offsets" `Quick
            test_repartition_composes_offsets;
        ] );
    ]
