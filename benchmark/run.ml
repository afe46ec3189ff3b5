(* The repository benchmark: four OneFile workloads, end-to-end metrics
   from an untraced run, per-layer metrics from a separate traced run.

     dune exec --root . -- ./benchmark/run.exe --workload shard-cross \
       --seed 1 --seconds 10 --trace 0

   One process runs one workload once: [Runtime.Backoff] seeds every
   instance from a process-global counter and the router creates
   Backoffs on its cross path, so a second in-process run of the same
   seed would diverge from a fresh process.  Without [--workload] the
   program re-executes itself once per workload; [--repeat K] re-executes
   K times and fails when the simulator metrics differ.

   Output: one line per metric, [<workload> <metric> <value> <unit>],
   then one JSON object {correct, attempted, failed, metrics} as the last
   line.  With [--trace 0] its metrics are the end-to-end ones, with
   [--trace 1] the per-layer ones.  See README.md. *)

open Runtime
module Region = Pmem.Region
module Pstats = Pmem.Pstats
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module W = Workload

let workloads = [ "wf-kv-write"; "lf-list-read90"; "shard-local"; "shard-cross" ]

module Onefile_layer = struct
  let name = "onefile"
end

module Shard_layer = struct
  let name = "tm_shard"
end

module Id (S : Tm.Tm_intf.S) = S

module Traced_lf = struct
  include Trace.Traced (Onefile_layer) (Lf)

  let snapshot_ops = Trace.wrap_snapshot Onefile_layer.name Lf.snapshot_ops
end

module Traced_wf = Trace.Traced (Onefile_layer) (Wf)
module Traced_shard = Trace.Traced (Shard_layer)

let workload name ~traced : (module W.S) =
  match (name, traced) with
  | "wf-kv-write", false -> (module W.Kv (Wf) (Wf))
  | "wf-kv-write", true -> (module W.Kv (Wf) (Traced_wf))
  | "lf-list-read90", false -> (module W.List_read (Lf) (Lf))
  | "lf-list-read90", true -> (module W.List_read (Lf) (Traced_lf))
  | "shard-local", false -> (module W.Bank (W.Local) (Lf) (Lf) (Id))
  | "shard-local", true -> (module W.Bank (W.Local) (Lf) (Traced_lf) (Traced_shard))
  | "shard-cross", false -> (module W.Bank (W.Cross_mix) (Lf) (Lf) (Id))
  | "shard-cross", true -> (module W.Bank (W.Cross_mix) (Lf) (Traced_lf) (Traced_shard))
  | _ -> invalid_arg ("unknown workload " ^ name)

(* ------------------------------------------------------------------ *)
(* Metric output                                                        *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* (name, unit) of the metrics the final JSON line carries; BENCHMARK.json
   lists the same names *)
let end_to_end =
  [
    ("setup_s", "s");
    ("sim_tput_ops_per_kround", "ops/kround");
    ("upd_lat_p50_rounds", "rounds");
    ("upd_lat_p99_rounds", "rounds");
    ("op_lat_p50_rounds", "rounds");
    ("op_lat_p99_rounds", "rounds");
    ("pwb_per_op", "pwb/op");
    ("cpu_ops_per_s", "ops/s");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("sched.steps_per_op", "steps");
    ("sched.cpu_ns_per_step", "ns");
    ("gc.minor_words_per_op", "words");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("structures.loads_per_op", "count");
    ("structures.stores_per_op", "count");
    ("onefile.update.self_rounds_p50", "rounds");
    ("onefile.update.self_rounds_p99", "rounds");
    ("onefile.update.pmem_ops_mean", "count");
    ("onefile.update.execs_per_call", "count");
    ("onefile.update.helper_execs_per_call", "count");
    ("onefile.read.self_rounds_p50", "rounds");
    ("onefile.read.self_rounds_p99", "rounds");
    ("onefile.read.pmem_ops_mean", "count");
    ("onefile.read.execs_per_call", "count");
    ("onefile.commit_frac", "frac");
    ("onefile.helps_per_commit", "count");
    ("onefile.help_exits_per_help", "frac");
    ("onefile.log_recycles_per_commit", "count");
    ("onefile.wf_aggregated_per_published", "count");
    ("onefile.wf_fallbacks", "count");
    ("onefile.ro_pins_per_read", "count");
    ("onefile.ro_snapshot_lag_p99", "commits");
    ("writeset.entries_p50", "entries");
    ("writeset.entries_max", "entries");
    ("writeset.lines_per_commit", "lines");
    ("tm_alloc.allocs_per_op", "count");
    ("tm_alloc.frees_per_op", "count");
    ("tm_alloc.live_cells_delta", "cells");
    ("reclaim.retired_per_op", "count");
    ("reclaim.freed_per_retired", "frac");
    ("reclaim.scans_per_op", "count");
    ("tm_shard.update.self_rounds_p50", "rounds");
    ("tm_shard.update.self_rounds_p99", "rounds");
    ("tm_shard.update.pmem_ops_mean", "count");
    ("tm_shard.read.self_rounds_p50", "rounds");
    ("tm_shard.read.self_rounds_p99", "rounds");
    ("tm_shard.engine_calls_per_op", "count");
    ("tm_shard.batch_commits_per_cross", "count");
    ("tm_shard.batch_size_mean", "members");
    ("tm_shard.batch_size_p99", "members");
    ("tm_shard.helps_per_batch", "count");
    ("tm_shard.shard_commit_imbalance", "ratio");
    ("pmem.loads_per_op", "count");
    ("pmem.stores_per_op", "count");
    ("pmem.cas_per_op", "count");
    ("pmem.dcas_per_op", "count");
    ("pmem.dcas_fail_frac", "frac");
    ("pmem.pfence_per_op", "count");
    ("pmem.pwb.tm_shard_self_per_op", "count");
    ("pmem.pwb.onefile_update_per_op", "count");
    ("pmem.pwb.onefile_read_per_op", "count");
    ("recovery.cpu_ms", "ms");
    ("recovery.pwb", "count");
    ("recovery.lost_acks", "count");
    ("trace.overhead_frac", "frac");
    ("trace.spans_dropped", "count");
  ]

(* Simulator counts: identical for one seed in every process, and between
   the traced and the untraced run. *)
let simulator_metrics =
  [
    "attempted";
    "sim_tput_ops_per_kround";
    "upd_lat_p50_rounds";
    "upd_lat_p99_rounds";
    "op_lat_p50_rounds";
    "op_lat_p99_rounds";
    "ro_lat_p50_rounds";
    "ro_lat_p99_rounds";
    "pwb_per_op";
    "pfence_per_op";
    "sched.steps_per_op";
  ]

let line w (name, v, unit) = Printf.printf "%s %s %s %s\n%!" w name (num v) unit

let json_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* nearest-rank quantile, [q] in (0, 1] *)
let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* ------------------------------------------------------------------ *)
(* One run of one workload                                              *)

let verify_cap = 50_000_000

(* CPU seconds of [setup ()], timed in batches of 20 set-ups for about
   [budget] CPU seconds, each set-up on a freshly collected heap; one
   value per batch, its fastest set-up.  Other tenants of the host slow
   the process by up to 1.8x, in bursts from a tenth of a second to
   seconds.  Over 150 s of back-to-back [shard-local] set-ups, 23% were
   slowed; the median of a 25 ms window was slowed by over 25% in 31% of
   the windows, the median of 1 s of best-of-5 batches in 10%, and the
   median of 2 s of best-of-20 batches in 3%.

   The set-ups run in a forked child while this process waits, so the
   measured process sets up only once.  Its Backoff seeds then do not
   depend on how many set-ups were timed, and its GC does not inherit
   the credit that OCaml 5.1 grants for forced collections: after 500
   [Gc.full_major]s the major GC skipped every slice of a 10 s phase,
   and [heap_peak_mb] tripled.  The forced collections stay: without
   them a set-up pays for its predecessors' garbage, and the same router
   set-up measured 1.7 ms in one run and 2.5 ms in another. *)
let time_setups ~budget setup =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let t0 = Sys.time () in
      let rec batches () =
        let best = ref infinity in
        for _ = 1 to 20 do
          Gc.full_major ();
          let c0 = Sys.time () in
          setup ();
          best := Float.min !best (Sys.time () -. c0)
        done;
        Printf.fprintf oc "%h\n" !best;
        if Sys.time () -. t0 < budget then batches ()
      in
      let code =
        match batches () with
        | () -> 0
        | exception e ->
            prerr_endline ("set-up failed: " ^ Printexc.to_string e);
            1
      in
      close_out oc;
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let rec read acc =
        match input_line ic with l -> read (float_of_string l :: acc) | exception End_of_file -> acc
      in
      let times = read [] in
      close_in ic;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 when times <> [] -> ()
      | _ -> failwith "timing the set-up failed");
      times

type outcome = {
  metrics : (string * float * string) list; (* every metric measured *)
  attempted : int;
  failed : int;
  broken : string list;
}

let run_one ~name ~seed ~seconds ~traced ~fault =
  let (module M) = workload name ~traced in
  let rounds = max 1 (int_of_float (float_of_int M.rounds_per_s *. seconds)) in
  (* set-up timing takes a fifth of the run *)
  let setup_times = time_setups ~budget:(seconds /. 5.) (fun () -> ignore (M.setup ~seed)) in
  let s = M.setup ~seed in
  Option.iter (M.plant s) fault;
  let dev = M.device s in
  let reg = Telemetry.create ~span_cap:(1 lsl 22) () in
  if traced then begin
    M.attach s reg;
    Region.set_observer dev (Some Trace.observer)
  end;
  let op = M.start s ~seed in
  let cells0 = M.allocated_cells s in
  let views = M.shard_regions s in
  let commits0 = Array.map (fun v -> (Region.stats v).Pstats.commits) views in
  let st0 = Pstats.copy (Region.stats dev) in
  Telemetry.reset reg;
  Trace.on := traced;
  let ph = W.closed_loop ~fibers:M.fibers ~rounds ~seed op in
  Trace.on := false;
  Region.set_observer dev None;
  let d = Pstats.diff (Region.stats dev) st0 in
  let commits = Array.mapi (fun i v -> (Region.stats v).Pstats.commits - commits0.(i)) views in
  (* the round cap cut operations off mid-flight: crash, recover, check *)
  let pwb0 = (Region.stats dev).Pstats.pwb in
  Region.crash dev ~evict_fraction:0.5 ~rng:(Rng.create seed) ();
  let c0 = Sys.time () in
  M.recover s;
  let recovery_s = Sys.time () -. c0 in
  let recovery_pwb = (Region.stats dev).Pstats.pwb - pwb0 in
  let lost, broken =
    match W.bounded ~rounds:verify_cap (fun () -> M.verify s) with
    | Some r -> r
    | None -> (0, [ "verification did not finish (corrupt durable image)" ])
  in
  let cells1 = M.allocated_cells s in
  let ops = ph.W.ops in
  let per x = ratio_i x ops in
  let failed = ph.W.failed + lost in
  let pct h p = float_of_int (Histogram.percentile h p) in
  let lat h p = float_of_int (W.Lat.percentile h p) in
  let e2e =
    [
      ("setup_s", quantile 0.5 setup_times, "s");
      ("sim_tput_ops_per_kround", 1000. *. ratio_i ops ph.W.rounds, "ops/kround");
      ("upd_lat_p50_rounds", lat ph.W.upd_lat 50., "rounds");
      ("upd_lat_p99_rounds", lat ph.W.upd_lat 99., "rounds");
      ("op_lat_p50_rounds", lat ph.W.op_lat 50., "rounds");
      ("op_lat_p99_rounds", lat ph.W.op_lat 99., "rounds");
      ("pwb_per_op", per d.Pstats.pwb, "pwb/op");
      (* the fast chunks measure the program: interference from other
         work on the host only ever slows a chunk down, and it comes in
         bursts of seconds that a median would report *)
      ("cpu_ops_per_s", quantile 0.9 ph.W.chunk_rates, "ops/s");
      ( "heap_peak_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
        "MB" );
    ]
  in
  let ro =
    if W.Lat.count ph.W.ro_lat = 0 then []
    else
      [
        ("ro_lat_p50_rounds", lat ph.W.ro_lat 50., "rounds");
        ("ro_lat_p99_rounds", lat ph.W.ro_lat 99., "rounds");
        ("ro_lat.samples", float_of_int (W.Lat.count ph.W.ro_lat), "count");
      ]
  in
  let gc_diff f = f ph.W.gc1 -. f ph.W.gc0 in
  let info =
    [
      ("attempted", float_of_int ops, "ops");
      ("failed_frac", ratio_i failed ops, "frac");
      ("rounds", float_of_int ph.W.rounds, "rounds");
      ("upd_lat.samples", float_of_int (W.Lat.count ph.W.upd_lat), "count");
      ("op_lat.samples", float_of_int (W.Lat.count ph.W.op_lat), "count");
      ("pfence_per_op", per d.Pstats.pfence, "pfence/op");
      ("cost.pwb_steps", float_of_int !Region.pwb_cost, "steps");
      ("cost.pfence_steps", float_of_int !Region.pfence_cost, "steps");
      ("sched.steps_per_op", per ph.W.steps, "steps");
      ("sched.cpu_ns_per_step", 1e9 *. ratio ph.W.cpu_s (float_of_int ph.W.steps), "ns");
      ("gc.minor_words_per_op", ratio (gc_diff (fun g -> g.Gc.minor_words)) (float_of_int ops), "words");
      ( "gc.promoted_words_per_op",
        ratio (gc_diff (fun g -> g.Gc.promoted_words)) (float_of_int ops),
        "words" );
      ( "gc.major_collections",
        float_of_int (ph.W.gc1.Gc.major_collections - ph.W.gc0.Gc.major_collections),
        "count" );
      ("pmem.loads_per_op", per d.Pstats.loads, "count");
      ("pmem.stores_per_op", per d.Pstats.stores, "count");
      ("pmem.cas_per_op", per d.Pstats.cas, "count");
      ("pmem.dcas_per_op", per d.Pstats.dcas, "count");
      ("pmem.dcas_fail_frac", ratio_i d.Pstats.dcas_fail d.Pstats.dcas, "frac");
      ("pmem.pfence_per_op", per d.Pstats.pfence, "count");
      ("recovery.cpu_ms", 1000. *. recovery_s, "ms");
      ("recovery.pwb", float_of_int recovery_pwb, "count");
      ("recovery.lost_acks", float_of_int lost, "count");
    ]
  in
  let layer_metrics =
    if not traced then []
    else begin
      let lay n = Trace.layer n in
      let one = lay "onefile" in
      let router = Array.length views > 0 in
      let top = if router then lay "tm_shard" else one in
      let span_metrics n =
        let a = Trace.agg n in
        ( pct a.Trace.self_rounds 50.,
          pct a.Trace.self_rounds 99.,
          ratio_i a.Trace.mem_sum a.Trace.closed )
      in
      let u50, u99, umem = span_metrics "onefile.update" in
      let r50, r99, rmem = span_metrics "onefile.read" in
      let su50, su99, sumem = span_metrics "tm_shard.update" in
      let sr50, sr99, _ = span_metrics "tm_shard.read" in
      let c n = float_of_int (Telemetry.get reg n) in
      let commits_t = c "tx.commits" in
      let bsize = Telemetry.span_summary reg "router.batch_size" in
      let batches = c "router.batch_commits" in
      let imbalance =
        if Array.length commits = 0 then 0.
        else
          let mx = Array.fold_left max 0 commits in
          let mean = ratio_i (Array.fold_left ( + ) 0 commits) (Array.length commits) in
          ratio (float_of_int mx) mean
      in
      let ws = one.Trace.ws_entries in
      let retired = c "he.retired" in
      let agg_pwb n = (Trace.agg n).Trace.pwb_sum in
      let self_pwb n = (Trace.agg n).Trace.self_pwb_sum in
      [
        ("structures.loads_per_op", per top.Trace.loads, "count");
        ("structures.stores_per_op", per top.Trace.stores, "count");
        ("onefile.update.self_rounds_p50", u50, "rounds");
        ("onefile.update.self_rounds_p99", u99, "rounds");
        ("onefile.update.pmem_ops_mean", umem, "count");
        ("onefile.update.execs_per_call", ratio_i one.Trace.execs one.Trace.updates, "count");
        ( "onefile.update.helper_execs_per_call",
          ratio_i one.Trace.helper_execs one.Trace.updates,
          "count" );
        ("onefile.read.self_rounds_p50", r50, "rounds");
        ("onefile.read.self_rounds_p99", r99, "rounds");
        ("onefile.read.pmem_ops_mean", rmem, "count");
        ("onefile.read.execs_per_call", ratio_i one.Trace.read_execs one.Trace.reads, "count");
        ("onefile.commit_frac", ratio commits_t (commits_t +. c "tx.aborts"), "frac");
        ("onefile.helps_per_commit", ratio (c "tx.helps") commits_t, "count");
        ("onefile.help_exits_per_help", ratio (c "tx.help_exits") (c "tx.helps"), "frac");
        ("onefile.log_recycles_per_commit", ratio (c "log.recycles") commits_t, "count");
        ("onefile.wf_aggregated_per_published", ratio (c "wf.aggregated") (c "wf.published"), "count");
        ("onefile.wf_fallbacks", c "wf.fallbacks", "count");
        ( "onefile.ro_pins_per_read",
          ratio (c "tx.ro_epoch_pins") (float_of_int (W.Lat.count ph.W.ro_lat)),
          "count" );
        ( "onefile.ro_snapshot_lag_p99",
          float_of_int (Telemetry.span_summary reg "ro.snapshot_lag").Telemetry.p99,
          "commits" );
        ("writeset.entries_p50", pct ws 50., "entries");
        ("writeset.entries_max", float_of_int (Histogram.max_value ws), "entries");
        ("writeset.lines_per_commit", ratio_i one.Trace.ws_lines (Histogram.count ws), "lines");
        ("tm_alloc.allocs_per_op", per one.Trace.allocs, "count");
        ("tm_alloc.frees_per_op", per one.Trace.frees, "count");
        ("tm_alloc.live_cells_delta", float_of_int (cells1 - cells0), "cells");
        ("reclaim.retired_per_op", ratio retired (float_of_int ops), "count");
        ("reclaim.freed_per_retired", ratio (c "he.freed") retired, "frac");
        ("reclaim.scans_per_op", ratio (c "he.scans") (float_of_int ops), "count");
        ("tm_shard.update.self_rounds_p50", su50, "rounds");
        ("tm_shard.update.self_rounds_p99", su99, "rounds");
        ("tm_shard.update.pmem_ops_mean", sumem, "count");
        ("tm_shard.read.self_rounds_p50", sr50, "rounds");
        ("tm_shard.read.self_rounds_p99", sr99, "rounds");
        ( "tm_shard.engine_calls_per_op",
          (if router then per (one.Trace.updates + one.Trace.reads + one.Trace.pins) else 0.),
          "count" );
        ("tm_shard.batch_commits_per_cross", ratio batches (float_of_int ph.W.cross), "count");
        ("tm_shard.batch_size_mean", bsize.Telemetry.mean, "members");
        ("tm_shard.batch_size_p99", float_of_int bsize.Telemetry.p99, "members");
        ("tm_shard.helps_per_batch", ratio (c "router.helps") batches, "count");
        ("tm_shard.shard_commit_imbalance", imbalance, "ratio");
        ( "pmem.pwb.tm_shard_self_per_op",
          per (self_pwb "tm_shard.update" + self_pwb "tm_shard.read"),
          "count" );
        ("pmem.pwb.onefile_update_per_op", per (agg_pwb "onefile.update"), "count");
        ("pmem.pwb.onefile_read_per_op", per (agg_pwb "onefile.read"), "count");
        ("trace.spans_dropped", float_of_int !Trace.dropped, "count");
      ]
    end
  in
  { metrics = e2e @ ro @ info @ layer_metrics; attempted = ops; failed; broken }

let value o n =
  Option.value ~default:0. (List.find_map (fun (m, v, _) -> if m = n then Some v else None) o.metrics)

(* ------------------------------------------------------------------ *)
(* Re-execution                                                         *)

(* Run this program again with [args]; its stdout lines and whether it
   exited 0. *)
let reexec args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (lines, ok)

(* metric lines of one workload's output: name -> value as printed *)
let parse_lines lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ _; name; v; _ ] -> Some (name, v)
      | _ -> None)
    lines

let trace_dir = Filename.concat "benchmark" "trace"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let traced_run ~name ~seed ~seconds ~fault ~base_args =
  (* the untraced twin runs first, in its own process *)
  let lines, ok = reexec (base_args @ [ "--workload"; name; "--trace"; "0" ]) in
  let untraced = parse_lines lines in
  let o = run_one ~name ~seed ~seconds ~traced:true ~fault in
  let mine = List.map (fun (n, v, _) -> (n, num v)) o.metrics in
  let mismatches =
    List.filter
      (fun n -> List.assoc_opt n mine <> List.assoc_opt n untraced)
      simulator_metrics
  in
  List.iter
    (fun n ->
      Printf.eprintf "%s: traced %s = %s, untraced %s\n%!" name n
        (Option.value ~default:"-" (List.assoc_opt n mine))
        (Option.value ~default:"-" (List.assoc_opt n untraced)))
    mismatches;
  let from_untraced n = Option.fold ~none:0. ~some:float_of_string (List.assoc_opt n untraced) in
  let extra =
    [
      ( "trace.overhead_frac",
        ratio (from_untraced "cpu_ops_per_s") (value o "cpu_ops_per_s") -. 1.,
        "frac" );
    ]
    (* host-CPU and GC costs come from the untraced twin: the tracer's own
       allocations would swamp them here *)
    @ List.map
        (fun n -> (n, from_untraced n, List.assoc n per_layer))
        [
          "sched.cpu_ns_per_step";
          "gc.minor_words_per_op";
          "gc.promoted_words_per_op";
          "gc.major_collections";
        ]
  in
  let metrics =
    extra @ List.filter (fun (n, _, _) -> not (List.exists (fun (m, _, _) -> m = n) extra)) o.metrics
  in
  mkdir_p trace_dir;
  let path = Filename.concat trace_dir (name ^ ".trace.json") in
  Trace.write_chrome path;
  Printf.eprintf "trace written to %s\n%!" path;
  ({ o with metrics }, ok && mismatches = [])

let print_outcome ~name ~keys o ~ok =
  List.iter (line name) o.metrics;
  List.iter (fun b -> Printf.eprintf "%s: broken invariant: %s\n%!" name b) o.broken;
  let correct = ok && o.failed = 0 && o.broken = [] in
  json_result ~correct ~attempted:o.attempted ~failed:o.failed
    (List.map (fun (n, unit) -> (n, value o n, unit)) keys);
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and repeat = ref 1 and fault = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S run length, about S CPU seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run (default 0)");
      ("--repeat", Arg.Set_int repeat, "K run K processes; fail if simulator metrics differ");
      ( "--fault",
        Arg.Set_string fault,
        "NAME plant a OneFile fault: stale_commit_snapshot or stale_dedup_flush" );
    ]
  in
  let usage = "run.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload <> "" && not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let fault_opt = if !fault = "" then None else Some !fault in
  let base_args =
    [ "--seed"; string_of_int !seed; "--seconds"; num !seconds ]
    @ match fault_opt with Some f -> [ "--fault"; f ] | None -> []
  in
  let ok =
    if !workload = "" || !repeat > 1 then begin
      (* one process per run *)
      let names = if !workload = "" then workloads else [ !workload ] in
      List.for_all Fun.id
      @@ List.map
        (fun w ->
          let args = base_args @ [ "--workload"; w; "--trace"; string_of_int !trace ] in
          let runs = List.init (max 1 !repeat) (fun _ -> reexec args) in
          let first, _ = List.hd runs in
          List.iter print_endline first;
          let sim lines = List.filter (fun (n, _) -> List.mem n simulator_metrics) (parse_lines lines) in
          let same = List.for_all (fun (l, _) -> sim l = sim first) runs in
          if not same then Printf.eprintf "%s: simulator metrics differ across processes\n%!" w;
          same && List.for_all snd runs)
        names
    end
    else if !trace = 1 then begin
      let o, ok =
        traced_run ~name:!workload ~seed:!seed ~seconds:!seconds ~fault:fault_opt ~base_args
      in
      print_outcome ~name:!workload ~keys:per_layer o ~ok
    end
    else begin
      let o = run_one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:false ~fault:fault_opt in
      print_outcome ~name:!workload ~keys:end_to_end o ~ok:true
    end
  in
  exit (if ok then 0 else 1)
