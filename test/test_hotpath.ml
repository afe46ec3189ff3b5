(* Allocation budget of the TM hot paths (the PR-4 overhaul invariant).

   The fast paths — read-only load, write-set-hit load/store inside an
   update transaction — must allocate NOTHING on the minor heap: no
   option boxing from lookups, no closure per interposed access, no
   string hashing in telemetry.  A fresh store may allocate a bounded
   constant (write-set growth, amortized hashing migration).

   Measurement: run the op n and then 2n times and take (d2 - d1) / n;
   the subtraction cancels the measurement loop's own allocations
   (boxed floats from Gc.minor_words, closure setup), leaving exactly
   the per-op cost.  The toolchain has no flambda, so these numbers are
   stable properties of the generated code, not optimizer luck. *)

module Region = Pmem.Region
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf

let check = Alcotest.check
let bool = Alcotest.bool

let words_per op n =
  let d1 =
    let before = Gc.minor_words () in
    for _ = 1 to n do
      op ()
    done;
    Gc.minor_words () -. before
  in
  let d2 =
    let before = Gc.minor_words () in
    for _ = 1 to 2 * n do
      op ()
    done;
    Gc.minor_words () -. before
  in
  (d2 -. d1) /. float_of_int n

(* the three hot shapes, generic over the TM module *)
let budgets (type a) (module T : Tm.Tm_intf.S with type t = a) (t : a) =
  let r0 = T.root t 0 in
  ignore (T.update_tx t (fun tx -> T.store tx r0 7; 0));
  let ro = ref 0.0 and wl = ref 0.0 and ws = ref 0.0 in
  ignore
    (T.read_tx t (fun tx ->
         ignore (T.load tx r0);
         ro := words_per (fun () -> ignore (T.load tx r0)) 5_000;
         0));
  ignore
    (T.update_tx t (fun tx ->
         T.store tx r0 1;
         wl := words_per (fun () -> ignore (T.load tx r0)) 5_000;
         ws := words_per (fun () -> T.store tx r0 2) 5_000;
         0));
  (!ro, !wl, !ws)

let assert_zero name v =
  check bool (name ^ " allocates nothing") true (v = 0.0)

let test_alloc_free_lf () =
  let t = Lf.create ~mode:Region.Volatile () in
  let ro, wl, ws = budgets (module Lf) t in
  assert_zero "lf read-only load" ro;
  assert_zero "lf ws-hit load" wl;
  assert_zero "lf ws-hit store" ws

let test_alloc_free_wf () =
  let t = Wf.create ~mode:Region.Volatile ~max_threads:4 () in
  let ro, wl, ws = budgets (module Wf) t in
  assert_zero "wf read-only load" ro;
  assert_zero "wf ws-hit load" wl;
  assert_zero "wf ws-hit store" ws

(* A fresh store appends to the write set: allowed a bounded constant.
   Amortized over ws_cap distinct addresses (including the one-time
   linear->hashed migration), the per-write cost must stay under a small
   fixed budget — today it is a few words for the hash-index entry. *)
let test_fresh_store_bounded () =
  let per_tm (type a) (module T : Tm.Tm_intf.S with type t = a) (t : a) =
    ignore (T.update_tx t (fun tx -> T.store tx (T.root t 0) 1; 0));
    let n = 256 in
    let d =
      let before = Gc.minor_words () in
      ignore
        (T.update_tx t (fun tx ->
             for i = 0 to n - 1 do
               T.store tx (T.root t i) i
             done;
             0));
      Gc.minor_words () -. before
    in
    d /. float_of_int n
  in
  let lf = Lf.create ~mode:Region.Volatile ~ws_cap:512 ~num_roots:256 () in
  let per = per_tm (module Lf) lf in
  check bool
    (Printf.sprintf "lf fresh store bounded (%.1f words/op)" per)
    true
    (per <= 64.0);
  let wf =
    Wf.create ~mode:Region.Volatile ~max_threads:4 ~ws_cap:512 ~num_roots:256 ()
  in
  let per = per_tm (module Wf) wf in
  check bool
    (Printf.sprintf "wf fresh store bounded (%.1f words/op)" per)
    true
    (per <= 64.0)

(* A commit allocates the two words of each entry it writes — its
   redo-log entry and its data word — and nothing per entry besides:
   the sort of the redo log, the chunk claims, the chunk waits and the
   write-back loops allocate nothing.  A WF commit of 26 entries spans
   four chunks and is applied chunk by chunk; an LF commit of any size
   is one pass.  Measured per extra entry, as the difference between a
   24-store and a 1-store update, so the per-commit constant (the
   operation's descriptor, the update's closures) cancels. *)
let test_split_commit_alloc_free () =
  let per_entry (type a) (module T : Tm.Tm_intf.S with type t = a) (t : a) =
    let update m () =
      ignore
        (T.update_tx t (fun tx ->
             for i = 0 to m - 1 do
               T.store tx (T.root t i) i
             done;
             0))
    in
    let big = update 24 and small = update 1 in
    big ();
    small ();
    (words_per big 200 -. words_per small 200) /. 23.0
  in
  let words = 2.0 *. 3.0 (* two Word.t records of two fields *) in
  let lf = Lf.create ~mode:Region.Persistent ~ws_cap:64 ~num_roots:32 () in
  let per = per_entry (module Lf) lf in
  check bool
    (Printf.sprintf "lf commit: %.2f words per entry" per)
    true (per = words);
  let wf = Wf.create ~mode:Region.Persistent ~max_threads:4 ~ws_cap:64 ~num_roots:32 () in
  let per = per_entry (module Wf) wf in
  check bool
    (Printf.sprintf "wf split commit: %.2f words per entry" per)
    true (per = words);
  let seq, _, _ = Onefile.Core0.curtx_info wf in
  check bool "the wf commit was applied chunk by chunk" true
    (Onefile.Core0.chunk_info wf 3 = (seq, true))

(* A wait loop threads its backoff cap as an int and the jitter is a
   keyed draw, so a wait of several iterations allocates nothing (here
   outside a fiber, where each spin is a cpu_relax).  The first wait
   creates the domain's draw counter. *)
let test_backoff_wait_alloc_free () =
  let wait () =
    let cap = ref 1 in
    for _ = 1 to 6 do
      cap := Runtime.Backoff.once !cap
    done
  in
  wait ();
  assert_zero "backoff wait" (words_per wait 1_000)

let () =
  Alcotest.run "hotpath"
    [
      ( "allocation-budget",
        [
          Alcotest.test_case "lf hot ops allocate nothing" `Quick
            test_alloc_free_lf;
          Alcotest.test_case "wf hot ops allocate nothing" `Quick
            test_alloc_free_wf;
          Alcotest.test_case "fresh store bounded constant" `Quick
            test_fresh_store_bounded;
          Alcotest.test_case "backoff wait allocates nothing" `Quick
            test_backoff_wait_alloc_free;
          Alcotest.test_case "split commit allocates nothing per entry" `Quick
            test_split_commit_alloc_free;
        ] );
    ]
