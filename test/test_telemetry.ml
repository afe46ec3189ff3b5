(* Unit tests for the Runtime.Telemetry counter/span registry: counters and
   sinks, pull sources, snapshot/reset, histogram-span edge cases (empty,
   single sample, overflow tally), exactness of concurrent increments under
   the deterministic scheduler, and the Core0 integration counters. *)

open Runtime
module Region = Pmem.Region
module Telemetry = Runtime.Telemetry
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- counters ----------------------------------------------------- *)

let test_counters () =
  let t = Telemetry.create () in
  check_int "fresh counter reads 0" 0 (Telemetry.get t "a");
  Telemetry.incr t "a";
  Telemetry.incr t "a" ~by:4;
  Telemetry.incr t "b";
  check_int "a accumulated" 5 (Telemetry.get t "a");
  check_int "b accumulated" 1 (Telemetry.get t "b");
  let snap = Telemetry.snapshot t in
  check_bool "snapshot sorted by name" true
    (List.map fst snap.Telemetry.counters = [ "a"; "b" ]);
  Telemetry.reset t;
  check_int "reset clears" 0 (Telemetry.get t "a")

let test_sources () =
  let t = Telemetry.create () in
  let backing = ref 7 in
  Telemetry.add_source t (fun () -> [ ("src", !backing); ("shared", 1) ]);
  Telemetry.incr t "shared" ~by:2;
  let snap = Telemetry.snapshot t in
  check_int "pull source folded in" 7
    (List.assoc "src" snap.Telemetry.counters);
  check_int "duplicate names sum" 3
    (List.assoc "shared" snap.Telemetry.counters);
  backing := 9;
  let snap = Telemetry.snapshot t in
  check_int "sources are read at snapshot time" 9
    (List.assoc "src" snap.Telemetry.counters);
  Telemetry.reset t;
  let snap = Telemetry.snapshot t in
  check_int "sources survive reset" 9
    (List.assoc "src" snap.Telemetry.counters)

let test_clear_sources () =
  (* regression: a registry reused across short-lived instances (one per
     explored execution) used to accrete every dead instance's pull
     source, inflating pmem.* forever; clear_sources drops them while
     keeping the push counters *)
  let t = Telemetry.create () in
  Telemetry.incr t "kept" ~by:5;
  Telemetry.add_source t (fun () -> [ ("dead", 100) ]);
  Telemetry.add_source t (fun () -> [ ("dead", 100) ]);
  let snap = Telemetry.snapshot t in
  check_int "sources sum while registered" 200
    (List.assoc "dead" snap.Telemetry.counters);
  Telemetry.clear_sources t;
  Telemetry.add_source t (fun () -> [ ("live", 7) ]);
  let snap = Telemetry.snapshot t in
  check_bool "dead sources gone" true
    (not (List.mem_assoc "dead" snap.Telemetry.counters));
  check_int "fresh source read" 7 (List.assoc "live" snap.Telemetry.counters);
  check_int "push counters survive" 5 (List.assoc "kept" snap.Telemetry.counters)

let test_sink_no_op () =
  let s = Telemetry.sink () in
  let c = Telemetry.counter s "x" and sp = Telemetry.span s "sp" in
  (* all no-ops while detached *)
  Telemetry.tick c;
  Telemetry.observe sp 3;
  let t = Telemetry.create () in
  Telemetry.attach s t;
  Telemetry.tick c;
  Telemetry.tick c ~by:2;
  Telemetry.observe sp 5;
  check_int "ticks after attach counted" 3 (Telemetry.get t "x");
  check_int "samples after attach counted" 1
    (Telemetry.span_summary t "sp").Telemetry.count;
  Telemetry.detach s;
  Telemetry.tick c;
  Telemetry.observe sp 7;
  check_int "ticks after detach dropped" 3 (Telemetry.get t "x");
  check_int "samples after detach dropped" 1
    (Telemetry.span_summary t "sp").Telemetry.count

(* --- spans -------------------------------------------------------- *)

let test_span_empty () =
  let t = Telemetry.create () in
  let s = Telemetry.span_summary t "never-sampled" in
  check_int "count" 0 s.Telemetry.count;
  check_int "p50" 0 s.Telemetry.p50;
  check_int "p99" 0 s.Telemetry.p99;
  check_int "max" 0 s.Telemetry.max;
  check_bool "mean" true (s.Telemetry.mean = 0.0)

let test_span_single () =
  let t = Telemetry.create () in
  Telemetry.sample t "sp" 42;
  let s = Telemetry.span_summary t "sp" in
  check_int "count" 1 s.Telemetry.count;
  check_int "p50 is the sample" 42 s.Telemetry.p50;
  check_int "p99 is the sample" 42 s.Telemetry.p99;
  check_int "max" 42 s.Telemetry.max;
  check_bool "mean" true (s.Telemetry.mean = 42.0)

let test_span_overflow () =
  let t = Telemetry.create ~span_cap:4 () in
  (* 4 in-histogram samples 1..4, then 6 overflow samples 5..10 *)
  for v = 1 to 10 do
    Telemetry.sample t "sp" v
  done;
  let s = Telemetry.span_summary t "sp" in
  check_int "count exact past the cap" 10 s.Telemetry.count;
  check_int "max exact past the cap" 10 s.Telemetry.max;
  check_bool "mean exact past the cap" true (s.Telemetry.mean = 5.5);
  check_bool "percentiles reflect the first cap samples" true
    (s.Telemetry.p99 <= 4)

(* --- concurrency -------------------------------------------------- *)

let test_concurrent_increments () =
  (* Fibers interleave at every Satomic step point; the plain-mutable
     counters must still be exact because increments happen between step
     points (same confinement argument as Pstats). *)
  let t = Telemetry.create () in
  let threads = 6 and iters = 50 in
  let cell = Satomic.make 0 in
  ignore
    (Sched.run ~cores:3 ~policy:Sched.Random_order ~seed:7
       (Array.init threads (fun _ () ->
            for _ = 1 to iters do
              ignore (Satomic.get cell);
              Telemetry.incr t "n";
              Telemetry.sample t "sp" 1;
              ignore (Satomic.fetch_and_add cell 1)
            done)));
  check_int "counter exact under interleaving" (threads * iters)
    (Telemetry.get t "n");
  check_int "span count exact under interleaving" (threads * iters)
    (Telemetry.span_summary t "sp").Telemetry.count

(* --- Core0 integration -------------------------------------------- *)

let test_onefile_counters () =
  let tm = Lf.create ~mode:Region.Persistent ~size:(1 lsl 14) ~ws_cap:64 () in
  let t = Telemetry.create () in
  Lf.attach_telemetry tm t;
  let r0 = Lf.root tm 0 in
  let n = 25 in
  for i = 1 to n do
    ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 i; 0))
  done;
  ignore (Lf.read_tx tm (fun tx -> Lf.load tx r0));
  check_int "every update committed" n (Telemetry.get t "tx.commits");
  check_int "read-only commit counted" 1 (Telemetry.get t "tx.ro_commits");
  check_int "no aborts sequentially" 0 (Telemetry.get t "tx.aborts");
  check_int "latency sampled per commit" n
    (Telemetry.span_summary t "tx.latency").Telemetry.count;
  let snap = Telemetry.snapshot t in
  check_bool "pmem.pwb surfaced via pull source" true
    (List.assoc "pmem.pwb" snap.Telemetry.counters > 0);
  (* no pfence on the commit path: the commit CAS is the persistence fence
     (paper §III-D); recovery is the only place that fences *)
  check_int "pmem.pfence surfaced, zero while running" 0
    (List.assoc "pmem.pfence" snap.Telemetry.counters);
  Lf.recover tm;
  let snap = Telemetry.snapshot t in
  check_int "null recovery fences once" 1
    (List.assoc "pmem.pfence" snap.Telemetry.counters);
  check_int "recovery run counted" 1 (Telemetry.get t "recovery.runs");
  Lf.detach_telemetry tm;
  ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 0; 0));
  check_int "detached instance stops counting" n (Telemetry.get t "tx.commits")

let test_wf_counters () =
  let tm = Wf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~ws_cap:64 () in
  let t = Telemetry.create () in
  Wf.attach_telemetry tm t;
  let r0 = Wf.root tm 0 in
  let n = 10 in
  for i = 1 to n do
    ignore (Wf.update_tx tm (fun tx -> Wf.store tx r0 i; 0))
  done;
  check_int "wf updates committed" n (Telemetry.get t "tx.commits");
  check_int "wf updates published" n (Telemetry.get t "wf.published");
  check_bool "published closures aggregated" true
    (Telemetry.get t "wf.aggregated" >= n)

let test_two_instances_one_registry () =
  (* regression: two live instances in one registry used to collide on
     the unprefixed pmem.* pull sources (and tx.* counters), summing both
     regions' traffic into one indistinguishable number.  Instance ids
     now prefix every key, so each shard stays attributable. *)
  let t = Telemetry.create () in
  let mk inst =
    Lf.create ~mode:Region.Persistent ~size:(1 lsl 12) ~instance:inst
      ~max_threads:8 ~ws_cap:64 ()
  in
  let a = mk "s0" and b = mk "s1" in
  Lf.attach_telemetry a t;
  Lf.attach_telemetry b t;
  let bump tm n =
    for i = 1 to n do
      ignore (Lf.update_tx tm (fun tx -> Lf.store tx (Lf.root tm 0) i; 0))
    done
  in
  bump a 7;
  bump b 3;
  check_int "s0 commits attributed" 7 (Telemetry.get t "s0.tx.commits");
  check_int "s1 commits attributed" 3 (Telemetry.get t "s1.tx.commits");
  let snap = Telemetry.snapshot t in
  let v name = List.assoc name snap.Telemetry.counters in
  check_bool "s0 region traffic attributed" true (v "s0.pmem.pwb" > 0);
  check_bool "s1 region traffic attributed" true (v "s1.pmem.pwb" > 0);
  check_bool "per-instance traffic is not summed" true
    (v "s0.pmem.stores" > v "s1.pmem.stores");
  check_bool "no unprefixed pmem key from named instances" true
    (not (List.mem_assoc "pmem.pwb" snap.Telemetry.counters));
  (* the anonymous default keeps the historical bare keys *)
  let c =
    Lf.create ~mode:Region.Persistent ~size:(1 lsl 12) ~max_threads:8
      ~ws_cap:64 ()
  in
  let t2 = Telemetry.create () in
  Lf.attach_telemetry c t2;
  bump c 2;
  check_int "anonymous instance keeps bare keys" 2
    (Telemetry.get t2 "tx.commits")

(* --- wait-free snapshot reads ground truth ------------------------- *)

(* The RO-path counters checked against hand-counted values under a
   scripted 3-thread schedule (same style as the router batch pin
   below): two readers pin their epochs, a writer commits twice UNDER
   both pins, and the readers then finish against their frozen
   snapshots.  Every count is exact: one epoch pin per read_tx (the pin
   is 3 straight-line steps — wait-free, so it can never re-tick), one
   RO commit per reader, and zero aborts anywhere — the snapshot path
   never restarts, and the single writer is uncontended.  The
   pre-change validating path would have restarted both readers here
   (their start seq is two commits stale by the time they load). *)

let test_ro_pin_scripted_schedule () =
  let tm = Lf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~ws_cap:64 () in
  let r0 = Lf.root tm 0 in
  ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 10; 0));
  (* attach after the setup store so every counter starts at zero *)
  let te = Telemetry.create () in
  Lf.attach_telemetry tm te;
  let r1_res = ref (-1) and r2_res = ref (-1) in
  (* fibers: W (0) commits 11 then 12 into r0; R1 (1) and R2 (2) are
     single-load read-only transactions *)
  let fibers =
    [|
      (fun () ->
        for i = 11 to 12 do
          ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 i; 0))
        done);
      (fun () -> r1_res := Lf.read_tx tm (fun tx -> Lf.load tx r0));
      (fun () -> r2_res := Lf.read_tx tm (fun tx -> Lf.load tx r0));
    |]
  in
  (* the script, phrased in the live counters:
     1. run R1 until its epoch is pinned (tx.ro_epoch_pins = 1) — it
        parks at its first load, snapshot frozen;
     2. run R2 likewise (tx.ro_epoch_pins = 2);
     3. run W to completion of both updates (tx.commits = 2): the
        version store captures the overwritten word under the pins;
     4. resume R1 to its commit (tx.ro_commits = 1), then R2, then
        drain — both must resolve r0 at their pinned epoch. *)
  let pick ~step:_ ~enabled ~last:_ =
    let has t = Array.exists (fun x -> x = t) enabled in
    let pins = Telemetry.get te "tx.ro_epoch_pins" in
    let commits = Telemetry.get te "tx.commits" in
    let rocs = Telemetry.get te "tx.ro_commits" in
    if pins < 1 && has 1 then 1
    else if pins < 2 && has 2 then 2
    else if commits < 2 && has 0 then 0
    else if rocs < 1 && has 1 then 1
    else if has 2 then 2
    else if has 0 then 0
    else enabled.(0)
  in
  let r = Explore.run ~pick fibers in
  check_bool "schedule ran to completion" true
    (r.Explore.status = Explore.Completed);
  check_int "epoch pins: exactly one per read_tx" 2
    (Telemetry.get te "tx.ro_epoch_pins");
  check_int "ro commits: both readers committed" 2
    (Telemetry.get te "tx.ro_commits");
  check_int "writer commits" 2 (Telemetry.get te "tx.commits");
  check_int "zero aborts: RO never restarts, W is uncontended" 0
    (Telemetry.get te "tx.aborts");
  (* both readers pinned before W's first commit, so both must observe
     the pre-churn value — the two later commits are invisible *)
  check_int "R1 reads its frozen snapshot" 10 !r1_res;
  check_int "R2 reads its frozen snapshot" 10 !r2_res;
  (* each RO commit samples its snapshot lag; R1/R2 held their pins
     across both of W's commits, so the maximum observed lag is >= 2 *)
  let s = Telemetry.span_summary te "ro.snapshot_lag" in
  check_int "lag sampled once per RO commit" 2 s.Telemetry.count;
  check_bool "pins held across both commits" true (s.Telemetry.max >= 2);
  check_int "follow-up read sees the final value" 12
    (Lf.read_tx tm (fun tx -> Lf.load tx r0))

(* Version capture is paid only while a reader is registered: a slot
   registers with its first snapshot pin on an instance and deregisters
   at its next update transaction there.  Counted with [ro.captures]
   (one tick per version handed to the store), per front-end:
   write-only traffic captures nothing; with slot 1 registered, each of
   slot 0's three 2-word updates captures both overwritten words; after
   slot 1's own update ends its registration, capture stops again. *)
let capture_phases ~attach ~update ~read =
  let te = Telemetry.create () in
  attach te;
  let caps () = Telemetry.get te "ro.captures" in
  let in_order fibers =
    (* each fiber runs to completion, highest slot first *)
    let pick ~step:_ ~enabled ~last:_ = enabled.(Array.length enabled - 1) in
    ignore (Sched.run_controlled ~pick fibers)
  in
  for i = 1 to 5 do
    update i
  done;
  let write_only = caps () in
  in_order
    [|
      (fun () ->
        for i = 6 to 8 do
          update i
        done);
      (fun () -> ignore (read ()));
    |];
  let registered = caps () in
  in_order [| (fun () -> update 9); (fun () -> update 10) |];
  (write_only, registered, caps () - registered)

let test_capture_only_while_registered () =
  let lf = Lf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~ws_cap:64 () in
  let r0 = Lf.root lf 0 and r1 = Lf.root lf 1 in
  let w, r, d =
    capture_phases ~attach:(Lf.attach_telemetry lf)
      ~update:(fun i ->
        ignore (Lf.update_tx lf (fun tx -> Lf.store tx r0 i; Lf.store tx r1 i; 0)))
      ~read:(fun () -> Lf.read_tx lf (fun tx -> Lf.load tx r0))
  in
  check_int "lf: write-only updates capture nothing" 0 w;
  check_int "lf: a registered reader makes every overwrite capture" 6 r;
  check_int "lf: an update ends the registration" 0 d;
  let wf = Wf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~max_threads:4 () in
  let r0 = Wf.root wf 0 and r1 = Wf.root wf 1 in
  let w, r, d =
    capture_phases ~attach:(Wf.attach_telemetry wf)
      ~update:(fun i ->
        ignore (Wf.update_tx wf (fun tx -> Wf.store tx r0 i; Wf.store tx r1 i; 0)))
      ~read:(fun () -> Wf.read_tx wf (fun tx -> Wf.load tx r0))
  in
  check_int "wf: write-only updates capture nothing" 0 w;
  check_int "wf: a registered reader makes every overwrite capture" 6 r;
  check_int "wf: an update ends the registration" 0 d

(* The registration handshake under a scripted schedule.  W (slot 0)
   commits r0 = r1 = 11 over r0 = r1 = 10 with no reader registered, so
   its apply pass skips capture; the script parks W right after its DCAS
   on r0, with r1 still unapplied.  R (slot 1) then registers, pins the
   fully-applied epoch — still below W's commit — and reads both words.
   Healthy, R's fresh registration sees W's commit in [nocap], helps it
   to completion and pins past it: R reads (11, 11), and only R's own
   helping pass, which runs registered, captures (r1).  With
   [skip_nocap] R keeps the stale pin, and its load of r0 finds neither
   a word old enough nor a captured version. *)
let parked_writer ?(fault = false) () =
  let tm = Lf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~ws_cap:64 () in
  let r0 = Lf.root tm 0 and r1 = Lf.root tm 1 in
  ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 10; Lf.store tx r1 10; 0));
  (Lf.faults tm).skip_nocap <- fault;
  let te = Telemetry.create () in
  Lf.attach_telemetry tm te;
  let seq0 = (Region.peek (Lf.region tm) r0).Pmem.Word.s in
  let seq_of a = (Region.peek (Lf.region tm) a).Pmem.Word.s in
  let writer () =
    ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 11; Lf.store tx r1 11; 0))
  in
  let got = ref (-1, -1) in
  let reader () =
    ignore
      (Lf.read_tx tm (fun tx ->
           let g0 = Lf.load tx r0 in
           got := (g0, Lf.load tx r1);
           0))
  in
  (* W runs until its DCAS on r0 has landed *)
  let w_parked () = seq_of r0 <> seq0 in
  (tm, te, writer, reader, got, w_parked, fun () -> seq_of r1 = seq0)

let handshake_schedule ~fault =
  let _, te, writer, reader, got, w_parked, r1_unapplied =
    parked_writer ~fault ()
  in
  let r1_at_switch = ref None in
  let pick ~step:_ ~enabled ~last:_ =
    let has t = Array.exists (fun x -> x = t) enabled in
    if (not (w_parked ())) && has 0 then 0
    else if has 1 then begin
      if !r1_at_switch = None then r1_at_switch := Some (r1_unapplied ());
      1
    end
    else enabled.(0)
  in
  ignore (Sched.run_controlled ~pick [| writer; reader |]);
  check_bool "R started with W parked mid-apply (r1 unapplied)" true
    (!r1_at_switch = Some true);
  let g0, g1 = !got in
  (g0, g1, Telemetry.get te "ro.captures")

let test_registration_handshake () =
  let g0, g1, caps = handshake_schedule ~fault:false in
  check_int "reader sees W's r0" 11 g0;
  check_int "reader sees W's r1" 11 g1;
  check_int "only the registered helper captured" 1 caps;
  match handshake_schedule ~fault:true with
  | exception Failure m ->
      check_bool ("planted fault surfaces: " ^ m) true
        (m = "OneFile: snapshot version missing from the version store")
  | _ -> Alcotest.fail "skip_nocap: the stale pin went unnoticed"

(* A reader killed part-way through its first pin must leave its slot
   safe to reuse.  Same parked writer as above; R (slot 1) runs exactly
   [k] steps of its read and is killed; a respawned process adopts
   logical slot 1 and reads while W is still parked, then W finishes.
   Every k from 0 up to R's full length is tried.  The slot's
   registration flag goes up only once the handshake is complete, so
   the respawned reader either repeats the handshake (the killed one's
   increment just over-counts [readers]) or inherits a finished one:
   either way it must read W's committed (11, 11). *)
let test_registration_survives_kill () =
  let rec from k =
    let tm, _, writer, reader, got, w_parked, _ = parked_writer () in
    let r_steps = ref 0 and killed = ref false and r_done = ref false in
    let respawn = ref (-1) in
    let pick ~step:_ ~enabled ~last:_ =
      let has t = Array.exists (fun x -> x = t) enabled in
      if (not (w_parked ())) && has 0 then 0
      else if (not !killed) && has 1 then begin
        incr r_steps;
        1
      end
      else if !respawn >= 0 && has !respawn then !respawn
      else enabled.(0)
    in
    let on_step t =
      if w_parked () && (not !killed) && !r_steps >= k then begin
        killed := true;
        if Sched.kill t 1 then
          respawn :=
            Sched.spawn t (fun () ->
                Sched.set_logical 1;
                got := (-1, -1);
                reader ())
        else r_done := true
      end
    in
    (match Sched.run_controlled ~on_step ~pick [| writer; reader |] with
    | exception Failure m -> Alcotest.failf "reader killed after %d steps: %s" k m
    | _ -> ());
    (* R finished in fewer than k steps: nothing was left to kill *)
    if not !killed then r_done := true;
    let g0, g1 = !got in
    if g0 <> 11 || g1 <> 11 then
      Alcotest.failf "reader killed after %d steps: respawned read (%d, %d)" k
        g0 g1;
    check_int
      (Printf.sprintf "k=%d: final r0" k)
      11
      (Lf.read_tx tm (fun tx -> Lf.load tx (Lf.root tm 0)));
    if !r_done then k else from (k + 1)
  in
  check_bool "R's whole read was covered" true (from 0 > 10)

(* Reader accounting survives kills.  R (logical slot 1) starts a
   first-time snapshot read and is killed after [k] scheduler picks;
   a respawned process adopts slot 1, reads, then updates, which ends
   its registration.  Returns false when R finished within [k] picks
   (nothing was left to kill). *)
let killed_first_read tm ~k =
  let r0 = Lf.root tm 0 and r2 = Lf.root tm 2 in
  let read () = ignore (Lf.read_tx tm (fun tx -> Lf.load tx r0)) in
  let picks = ref 0 and killed = ref false in
  let pick ~step:_ ~enabled ~last:_ =
    if (not !killed) && Array.mem 0 enabled then begin
      incr picks;
      0
    end
    else enabled.(0)
  in
  let on_step t =
    if (not !killed) && !picks >= k then begin
      killed := true;
      if Sched.kill t 0 then
        ignore
          (Sched.spawn t (fun () ->
               Sched.set_logical 1;
               read ();
               ignore (Lf.update_tx tm (fun tx -> Lf.store tx r2 k; 0))))
      else killed := false
    end
  in
  ignore
    (Sched.run_controlled ~on_step ~pick
       [| (fun () -> Sched.set_logical 1; read ()) |]);
  !killed

(* For every kill point of the first read, the respawned slot ends
   registered nowhere, so five write-only 2-word updates from slot 0
   must capture no version.  (An increment a kill separates from its
   slot's state would leave the count at 1, and each of those updates
   would capture both words.)  Then 300 kill/respawn cycles on one
   slot, killing at every point of the read in turn, must leave the
   packed reader count at 0 — a leak per cycle would wrap its 8-bit
   field — and an instance whose count could exceed that field is
   refused. *)
let test_reader_accounting_survives_kills () =
  let fresh () =
    let tm = Lf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~ws_cap:64 () in
    let r0 = Lf.root tm 0 and r1 = Lf.root tm 1 in
    ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 10; Lf.store tx r1 10; 0));
    tm
  in
  let rec from k =
    let tm = fresh () in
    let te = Telemetry.create () in
    Lf.attach_telemetry tm te;
    if not (killed_first_read tm ~k) then k
    else begin
      let r0 = Lf.root tm 0 and r1 = Lf.root tm 1 in
      let before = Telemetry.get te "ro.captures" in
      for i = 1 to 5 do
        ignore (Lf.update_tx tm (fun tx -> Lf.store tx r0 i; Lf.store tx r1 i; 0))
      done;
      check_int
        (Printf.sprintf "killed after %d picks: write-only updates capture nothing" k)
        0
        (Telemetry.get te "ro.captures" - before);
      from (k + 1)
    end
  in
  let len = from 0 in
  check_bool "the first read's whole length was covered" true (len > 5);
  let tm = fresh () in
  for i = 0 to 299 do
    ignore (killed_first_read tm ~k:(i mod len))
  done;
  check_int "300 kill/respawn cycles leave no reader counted" 0
    (fst (Onefile.Core0.capture_info tm));
  match
    Onefile.Core0.create ~mode:Region.Volatile ~size:(1 lsl 16) ~max_threads:256 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_threads 256 accepted: the reader count would wrap"

(* Zero aborts under free-running write churn: ONE writer (so every
   writer-side conflict is impossible — any abort in the run would be
   attributable to the read-only transactions) hammers two roots while
   four snapshot readers check consistency; every read_tx must commit
   on its first and only epoch pin, with tx.aborts pinned at zero for
   the whole run.  A control run with the SAME schedule but the
   pre-change validating read path must tick tx.aborts — proving the
   zero is the snapshot path's doing, not a vacuous counter. *)
let churn_iters = 40
let churn_readers = 4

let churn_fibers (type a b)
    (module T : Tm.Tm_intf.S with type t = a and type tx = b)
    ~(read_tx : a -> (b -> int) -> int) (tm : a) =
  let r0 = T.root tm 0 and r1 = T.root tm 1 in
  Array.init (1 + churn_readers) (fun i () ->
      if i = 0 then
        for _ = 1 to churn_iters do
          ignore
            (T.update_tx tm (fun tx ->
                 T.store tx r0 (T.load tx r0 + 1);
                 T.store tx r1 (T.load tx r1 + 1);
                 0))
        done
      else
        for _ = 1 to churn_iters do
          (* the writer keeps r0 = r1 invariant; a snapshot mixing two
             different commits would return a nonzero difference *)
          let d = read_tx tm (fun tx -> T.load tx r0 - T.load tx r1) in
          check_int "snapshot is transactionally consistent" 0 d
        done)

let test_ro_zero_aborts_under_churn () =
  let tm =
    Wf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~max_threads:8
      ~ws_cap:64 ()
  in
  let te = Telemetry.create () in
  Wf.attach_telemetry tm te;
  ignore
    (Sched.run ~cores:4 ~policy:Sched.Random_order ~seed:11
       (churn_fibers (module Wf) ~read_tx:Wf.read_tx tm));
  let ro = churn_readers * churn_iters in
  check_int "every RO tx committed" ro (Telemetry.get te "tx.ro_commits");
  check_int "exactly one wait-free pin per RO tx" ro
    (Telemetry.get te "tx.ro_epoch_pins");
  check_int "zero aborts under churn" 0 (Telemetry.get te "tx.aborts");
  check_int "lag sampled per RO commit" ro
    (Telemetry.span_summary te "ro.snapshot_lag").Telemetry.count;
  (* this verification read_tx samples lag itself — keep it after the
     count pin above *)
  check_int "every writer op applied" churn_iters
    (Wf.read_tx tm (fun tx -> Wf.load tx (Wf.root tm 0)));
  (* control: the pre-change validating read path DOES restart (and
     tick tx.aborts) when a commit lands mid-read — so the zero above
     is the snapshot path's doing, not a dead counter.  Scripted: park
     the validating reader between capturing start_seq and its first
     load, run the writer to a commit, resume — the load observes
     seq > start_seq and must abort exactly once. *)
  let tm' =
    Lf.create ~mode:Region.Volatile ~size:(1 lsl 14) ~max_threads:8
      ~ws_cap:64 ()
  in
  let te' = Telemetry.create () in
  Lf.attach_telemetry tm' te';
  let r0' = Lf.root tm' 0 in
  let in_read = ref false in
  let fibers' =
    [|
      (fun () ->
        ignore
          (Lf.update_tx tm' (fun tx -> Lf.store tx r0' 7; 0)));
      (fun () ->
        ignore
          (Lf.read_tx_validating tm' (fun tx ->
               in_read := true;
               Lf.load tx r0')));
    |]
  in
  let pick ~step:_ ~enabled ~last:_ =
    let has t = Array.exists (fun x -> x = t) enabled in
    if Telemetry.get te' "tx.commits" < 1 then
      if !in_read && has 0 then 0
      else if has 1 then 1
      else enabled.(0)
    else if has 1 then 1
    else enabled.(0)
  in
  let r = Explore.run ~pick fibers' in
  check_bool "control schedule ran to completion" true
    (r.Explore.status = Explore.Completed);
  check_int "validating reader restarts when a commit lands mid-read" 1
    (Telemetry.get te' "tx.aborts")

(* --- cross-shard router ground truth ------------------------------- *)

(* The router's batcher counters checked against hand-counted values:
   first sequentially (every cross transaction is its own singleton
   batch), then under a scripted 3-thread schedule that provably forms
   one 3-member batch completed by a single helping episode. *)

module Sh_wf = Tm.Tm_shard.Make (Wf)

let mk_router () =
  let device = Region.create ~mode:Region.Volatile (2 * 4096) in
  let views = Region.partition device [ 4096; 4096 ] in
  let shards =
    Array.of_list
      (List.map
         (fun v ->
           Wf.create ~region:v ~instance:(Region.id v) ~max_threads:8
             ~ws_cap:256 ~num_roots:8 ())
         views)
  in
  Sh_wf.make ~max_threads:8 ~ro_snapshot:Wf.snapshot_ops shards

(* roots 0 and 1 live on shards 0 and 1: this transfer always escapes to
   the cross-shard pipeline *)
let xfer tm a b d =
  ignore
    (Sh_wf.update_tx tm (fun tx ->
         let ra = Sh_wf.root tm a and rb = Sh_wf.root tm b in
         Sh_wf.store tx ra (Sh_wf.load tx ra - d);
         Sh_wf.store tx rb (Sh_wf.load tx rb + d);
         0))

let test_router_sequential_ground_truth () =
  let tm = mk_router () in
  let te = Telemetry.create () in
  Sh_wf.attach_telemetry tm te;
  (* 4 sequential cross-shard transfers: each publishes one request,
     leads its own batch of exactly one member, and never finds an
     in-flight batch to help *)
  for _ = 1 to 4 do
    xfer tm 0 1 5
  done;
  check_int "enqueues: one per cross tx" 4 (Telemetry.get te "router.enqueues");
  check_int "batch commits: one per cross tx" 4
    (Telemetry.get te "router.batch_commits");
  check_int "helps: nobody to help sequentially" 0
    (Telemetry.get te "router.helps");
  let s = Telemetry.span_summary te "router.batch_size" in
  check_int "batch-size histogram: four samples" 4 s.Telemetry.count;
  check_int "batch-size histogram: all singletons" 1 s.Telemetry.max;
  (* single-shard transactions bypass the pipeline entirely *)
  ignore
    (Sh_wf.update_tx tm (fun tx ->
         Sh_wf.store tx (Sh_wf.root tm 0) 100;
         0));
  check_int "single-shard tx adds nothing" 4
    (Telemetry.get te "router.enqueues");
  Sh_wf.detach_telemetry tm;
  xfer tm 0 1 1;
  check_int "detached router stops counting" 4
    (Telemetry.get te "router.enqueues")

let test_router_scripted_schedule () =
  let tm = mk_router () in
  let te = Telemetry.create () in
  Sh_wf.attach_telemetry tm te;
  ignore
    (Sh_wf.update_tx tm (fun tx -> Sh_wf.store tx (Sh_wf.root tm 0) 100; 0));
  ignore
    (Sh_wf.update_tx tm (fun tx -> Sh_wf.store tx (Sh_wf.root tm 1) 100; 0));
  (* fibers: A (0) and B (1) transfer r0 -> r1, C (2) transfers r1 -> r0;
     all three escape to the cross-shard pipeline.

     The script, phrased in the live counters (each ticks at a known
     protocol point, so the pick parks a fiber exactly there):
     1. run B until its request is published (router.enqueues = 1) — B
        parks between its queue publish and its leader CAS;
     2. run C likewise (router.enqueues = 2);
     3. run A to the batch publication (router.batch_commits = 1): A
        enqueues (3), wins the leader CAS, drains all three requests
        into ONE batch, writes the record, publishes — and parks right
        there, before any per-shard apply;
     4. run B: its request is not closed and A still holds the
        leadership, so B helps the published batch to completion —
        exactly ONE helping episode;
     5. drain out: B returns via its closed request, A's own completion
        pass is a guarded no-op, C wakes up already closed (no help). *)
  let fibers =
    [|
      (fun () -> xfer tm 0 1 5);
      (fun () -> xfer tm 0 1 7);
      (fun () -> xfer tm 1 0 1);
    |]
  in
  let pick ~step:_ ~enabled ~last:_ =
    let has t = Array.exists (fun x -> x = t) enabled in
    let enq = Telemetry.get te "router.enqueues" in
    let commits = Telemetry.get te "router.batch_commits" in
    if enq < 1 && has 1 then 1
    else if enq < 2 && has 2 then 2
    else if commits < 1 && has 0 then 0
    else if has 1 then 1
    else if has 0 then 0
    else enabled.(0)
  in
  let r = Explore.run ~pick fibers in
  check_bool "schedule ran to completion" true
    (r.Explore.status = Explore.Completed);
  check_int "enqueues: one per member" 3 (Telemetry.get te "router.enqueues");
  check_int "batch commits: ONE for all three members" 1
    (Telemetry.get te "router.batch_commits");
  check_int "helps: exactly B's one helping episode" 1
    (Telemetry.get te "router.helps");
  let s = Telemetry.span_summary te "router.batch_size" in
  check_int "batch-size histogram: one sample" 1 s.Telemetry.count;
  check_int "batch-size histogram: of three members" 3 s.Telemetry.max;
  (* and the batch committed correctly: 100 -5 -7 +1 / 100 +5 +7 -1 *)
  let v k = Sh_wf.read_tx tm (fun tx -> Sh_wf.load tx (Sh_wf.root tm k)) in
  check_int "r0 after the batch" 89 (v 0);
  check_int "r1 after the batch" 111 (v 1)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "pull-sources" `Quick test_sources;
          Alcotest.test_case "sink-no-op-when-detached" `Quick test_sink_no_op;
          Alcotest.test_case "clear-sources" `Quick test_clear_sources;
        ] );
      ( "spans",
        [
          Alcotest.test_case "empty" `Quick test_span_empty;
          Alcotest.test_case "single-sample" `Quick test_span_single;
          Alcotest.test_case "overflow-bucket" `Quick test_span_overflow;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "exact-under-scheduler" `Quick
            test_concurrent_increments;
        ] );
      ( "onefile",
        [
          Alcotest.test_case "lf-counters" `Quick test_onefile_counters;
          Alcotest.test_case "wf-counters" `Quick test_wf_counters;
          Alcotest.test_case "two-instances-one-registry" `Quick
            test_two_instances_one_registry;
        ] );
      ( "snapshot-reads",
        [
          Alcotest.test_case "scripted-3-thread-ro-pins" `Quick
            test_ro_pin_scripted_schedule;
          Alcotest.test_case "zero-aborts-under-churn" `Quick
            test_ro_zero_aborts_under_churn;
          Alcotest.test_case "capture-only-while-registered" `Quick
            test_capture_only_while_registered;
          Alcotest.test_case "registration-handshake" `Quick
            test_registration_handshake;
          Alcotest.test_case "registration-survives-kill" `Quick
            test_registration_survives_kill;
          Alcotest.test_case "reader-accounting-survives-kills" `Quick
            test_reader_accounting_survives_kills;
        ] );
      ( "router",
        [
          Alcotest.test_case "sequential-ground-truth" `Quick
            test_router_sequential_ground_truth;
          Alcotest.test_case "scripted-3-thread-batch" `Quick
            test_router_scripted_schedule;
        ] );
    ]
