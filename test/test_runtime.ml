(* Tests for the deterministic scheduler, scheduler-aware atomics, locks. *)

open Runtime

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_float () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    check bool "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  check bool "different streams" true (Rng.next a <> Rng.next b)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_fibers_all_run () =
  let ran = Array.make 8 false in
  let body i () =
    Sched.step_point ();
    ran.(i) <- true
  in
  let t = Sched.run (Array.init 8 (fun i -> body i)) in
  Array.iteri (fun i r -> check bool (Printf.sprintf "fiber %d ran" i) true r) ran;
  check int "none live" 0 (Sched.live t)

let test_self_inside_fiber () =
  let seen = Array.make 4 (-1) in
  let body i () = seen.(i) <- Sched.self () in
  ignore (Sched.run (Array.init 4 (fun i -> body i)));
  Array.iteri (fun i s -> check int "tid matches" i s) seen

let test_interleaving_happens () =
  (* A non-atomic read-modify-write on a Satomic cell must lose updates
     when fibers interleave: proves scheduling points really interleave. *)
  let cell = Satomic.make 0 in
  let body () =
    for _ = 1 to 100 do
      let v = Satomic.get cell in
      Satomic.set cell (v + 1)
    done
  in
  ignore (Sched.run (Array.make 4 body));
  check bool "updates lost under interleaving" true (Satomic.get_relaxed cell < 400)

let test_atomic_increment_exact () =
  let cell = Satomic.make 0 in
  let body () =
    for _ = 1 to 100 do
      ignore (Satomic.fetch_and_add cell 1)
    done
  in
  ignore (Sched.run (Array.make 4 body));
  check int "exact count" 400 (Satomic.get_relaxed cell)

let test_determinism_same_seed () =
  let trace seed =
    let buf = Buffer.create 64 in
    let cell = Satomic.make 0 in
    let body i () =
      for _ = 1 to 5 do
        let v = Satomic.get cell in
        Buffer.add_string buf (Printf.sprintf "%d:%d;" i v);
        Satomic.set cell (v + 1)
      done
    in
    ignore
      (Sched.run ~policy:Sched.Random_order ~seed ~cores:2
         (Array.init 3 (fun i -> body i)));
    Buffer.contents buf
  in
  check Alcotest.string "same seed, same schedule" (trace 5) (trace 5);
  check bool "different seed, different schedule" true (trace 5 <> trace 6)

let test_max_rounds_stops () =
  let cell = Satomic.make 0 in
  let body () =
    while true do
      Satomic.incr cell
    done
  in
  let t = Sched.run ~max_rounds:50 (Array.make 2 body) in
  check int "stopped at max rounds" 50 (Sched.round t);
  check bool "fibers still live" true (Sched.live t = 2)

let test_cores_limit () =
  (* With 1 core and round-robin, each round advances exactly one fiber. *)
  let cell = Satomic.make 0 in
  let body () =
    for _ = 1 to 10 do
      ignore (Satomic.fetch_and_add cell 1)
    done
  in
  let t = Sched.run ~cores:1 (Array.make 4 body) in
  (* each fiber: 10 faa steps + body return consumes a step slot on start?
     total steps should be >= 40 *)
  check bool "steps bounded below" true (Sched.total_steps t >= 40);
  check int "all committed" 40 (Satomic.get_relaxed cell)

let test_kill_mid_flight () =
  let progress = Satomic.make 0 in
  let killed_progress = ref (-1) in
  let victim () =
    for _ = 1 to 1000 do
      ignore (Satomic.fetch_and_add progress 1)
    done
  in
  let on_round t =
    if Sched.round t = 20 && Sched.live t = 1 then begin
      ignore (Sched.kill t 0);
      killed_progress := Satomic.get_relaxed progress
    end
  in
  let t = Sched.run ~on_round [| victim |] in
  check bool "killed before finishing" true (!killed_progress < 1000);
  check int "no progress after kill" !killed_progress (Satomic.get_relaxed progress);
  check int "none live" 0 (Sched.live t)

let test_spawn_replacement () =
  let done_count = Satomic.make 0 in
  let body () =
    for _ = 1 to 10 do
      Sched.step_point ()
    done;
    Satomic.incr done_count
  in
  let spawned = ref false in
  let on_round t =
    if (not !spawned) && Sched.round t = 3 then begin
      spawned := true;
      ignore (Sched.kill t 0);
      ignore (Sched.spawn t body)
    end
  in
  let t = Sched.run ~on_round [| body; body |] in
  check int "three fibers total" 3 (Sched.fiber_count t);
  check int "two completions (victim died)" 2 (Satomic.get_relaxed done_count)

let test_exception_propagates () =
  let body () =
    Sched.step_point ();
    failwith "boom"
  in
  match Sched.run [| body |] with
  | exception Failure msg -> check Alcotest.string "message" "boom" msg
  | _ -> Alcotest.fail "expected exception"

let test_logical_tid () =
  let observed = ref (-1) in
  let body () =
    Sched.set_logical 7;
    Sched.step_point ();
    observed := Sched.self ()
  in
  ignore (Sched.run [| body |]);
  check int "logical tid visible" 7 !observed

(* ------------------------------------------------------------------ *)
(* Locks *)

let test_spinlock_mutual_exclusion () =
  let lock = Spinlock.create () in
  let counter = Satomic.make 0 in
  let in_cs = Satomic.make 0 in
  let violations = ref 0 in
  let body () =
    for _ = 1 to 20 do
      Spinlock.acquire lock;
      if Satomic.fetch_and_add in_cs 1 <> 0 then incr violations;
      let v = Satomic.get counter in
      Satomic.set counter (v + 1);
      ignore (Satomic.fetch_and_add in_cs (-1));
      Spinlock.release lock
    done
  in
  ignore (Sched.run ~seed:11 (Array.make 4 body));
  check int "no mutual-exclusion violations" 0 !violations;
  check int "no lost updates under lock" 80 (Satomic.get_relaxed counter)

let test_rwlock_excludes_writers () =
  let lock = Rwlock.create ~max_threads:4 in
  let writers_in = Satomic.make 0 in
  let readers_in = Satomic.make 0 in
  let violations = ref 0 in
  let writer () =
    for _ = 1 to 10 do
      Rwlock.write_lock lock;
      if Satomic.fetch_and_add writers_in 1 <> 0 then incr violations;
      if Satomic.get readers_in <> 0 then incr violations;
      ignore (Satomic.fetch_and_add writers_in (-1));
      Rwlock.write_unlock lock
    done
  in
  let reader () =
    for _ = 1 to 10 do
      Rwlock.read_lock lock;
      ignore (Satomic.fetch_and_add readers_in 1);
      if Satomic.get writers_in <> 0 then incr violations;
      ignore (Satomic.fetch_and_add readers_in (-1));
      Rwlock.read_unlock lock
    done
  in
  ignore (Sched.run ~seed:3 [| writer; writer; reader; reader |]);
  check int "no rwlock violations" 0 !violations

(* ------------------------------------------------------------------ *)
(* Real domains *)

let test_real_domains_smoke () =
  let cell = Satomic.make 0 in
  let body () =
    for _ = 1 to 1000 do
      ignore (Satomic.fetch_and_add cell 1)
    done
  in
  Parallel.run (Array.make 4 body);
  check int "atomic under real domains" 4000 (Satomic.get_relaxed cell)

let test_real_domains_self () =
  let seen = Array.make 4 (-1) in
  Parallel.run (Array.init 4 (fun i () -> seen.(i) <- Sched.self ()));
  Array.iteri (fun i s -> check int "domain tid" i s) seen

(* ------------------------------------------------------------------ *)
(* Backoff jitter *)

let draws n = List.init n (fun _ -> Sched.jitter 1000)
let in_range = List.for_all (fun v -> v >= 0 && v < 1000)

(* A fiber's draws depend on the run's seed and the fiber's tid only: the
   same run repeats them after an unrelated run drew from its own
   streams, and two fibers of one run draw differently. *)
let test_jitter_per_fiber () =
  let sim seed =
    let seen = Array.make 2 [] in
    ignore (Sched.run ~seed (Array.init 2 (fun i () -> seen.(i) <- draws 16)));
    seen
  in
  let first = sim 5 in
  ignore (sim 6);
  let again = sim 5 in
  check bool "in range" true (Array.for_all in_range first);
  check bool "same run, same draws" true (first = again);
  check bool "fibers differ" true (first.(0) <> first.(1));
  check bool "seeds differ" true (first <> sim 6)

(* Outside a simulation each domain draws from its own counter, keyed by
   its Parallel tid; plain sequential code is tid 0 and still backs off. *)
let test_jitter_domains () =
  let seen = Array.make 2 [] in
  Parallel.run (Array.init 2 (fun i () -> seen.(i) <- draws 64));
  check bool "in range" true (Array.for_all in_range seen);
  check bool "domains differ" true (seen.(0) <> seen.(1));
  let cap = ref 1 in
  for _ = 1 to 8 do
    cap := Backoff.once !cap
  done;
  check int "sequential cap saturates" 64 !cap

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h i
  done;
  check int "p50" 50 (Histogram.percentile h 50.0);
  check int "p90" 90 (Histogram.percentile h 90.0);
  check int "p100" 100 (Histogram.percentile h 100.0);
  check int "count" 100 (Histogram.count h);
  check int "max" 100 (Histogram.max_value h);
  check bool "mean" true (abs_float (Histogram.mean h -. 50.5) < 1e-9)

let test_histogram_empty () =
  let h = Histogram.create () in
  check int "empty percentile" 0 (Histogram.percentile h 99.0)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1;
  Histogram.add b 2;
  let m = Histogram.merge a b in
  check int "merged count" 2 (Histogram.count m)

let () =
  Alcotest.run "runtime"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        ] );
      ( "sched",
        [
          Alcotest.test_case "all fibers run" `Quick test_fibers_all_run;
          Alcotest.test_case "self tid" `Quick test_self_inside_fiber;
          Alcotest.test_case "interleaving happens" `Quick test_interleaving_happens;
          Alcotest.test_case "atomic increments exact" `Quick test_atomic_increment_exact;
          Alcotest.test_case "deterministic schedules" `Quick test_determinism_same_seed;
          Alcotest.test_case "max rounds" `Quick test_max_rounds_stops;
          Alcotest.test_case "cores limit" `Quick test_cores_limit;
          Alcotest.test_case "kill mid-flight" `Quick test_kill_mid_flight;
          Alcotest.test_case "spawn replacement" `Quick test_spawn_replacement;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "logical tid" `Quick test_logical_tid;
        ] );
      ( "locks",
        [
          Alcotest.test_case "spinlock exclusion" `Quick test_spinlock_mutual_exclusion;
          Alcotest.test_case "rwlock excludes" `Quick test_rwlock_excludes_writers;
        ] );
      ( "domains",
        [
          Alcotest.test_case "real domains atomic" `Quick test_real_domains_smoke;
          Alcotest.test_case "real domains self" `Quick test_real_domains_self;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "per-fiber streams" `Quick test_jitter_per_fiber;
          Alcotest.test_case "per-domain streams" `Quick test_jitter_domains;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
        ] );
    ]
