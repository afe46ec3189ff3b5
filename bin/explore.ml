(* Schedule/crash-point explorer CLI over Workloads.Explorer.

     explore [--strategy exhaustive|pct|crash] [options]
     explore --replay TRACE.json

   Generates random transaction programs (Workloads.Proggen), explores
   their schedule space (or crash points) on OneFile and diffs every
   execution against the sequential oracle; the first failure is shrunk to
   a minimal program + schedule (+ crash point) and printed, optionally
   written as a JSON trace replayable with --replay.

   Exit status: 0 = everything explored passed (or a --replay trace no
   longer fails), 1 = failure found (or a --replay trace still fails),
   2 = usage error. *)

module E = Workloads.Explorer
module Proggen = Workloads.Proggen
module J = Workloads.Bench_json

let usage () =
  prerr_endline
    {|usage: explore [options]
  --strategy S     exhaustive | pct | crash      (default exhaustive)
  --wf             explore OneFile-WF            (default OneFile-LF)
  --threads N      fibers the program is dealt onto (default 2)
  --shards N       shard count; >1 routes through Tm_shard and generates
                   cross-shard transfer ops (default 1)
  --seed N         first program seed (default 1)
  --seeds N        number of program seeds to sweep (default 1)
  --txns N         max transactions per program (default 6)
  --ops N          max operations per transaction (default 3)
  --pbound N       exhaustive: preemption bound (default 2)
  --executions N   pct: schedules per program (default 200);
                   exhaustive: execution budget (default unlimited)
  --depth N        pct: bug depth (default 3)
  --sites S        crash: persist | every        (default persist)
  --max-sites N    crash: subsample to N sites   (default all)
  --interleave     crash: after the baseline prefix, step the fibers
                   round-robin instead of running each to its end
  --persistent     persistent region for interleaving strategies
  --no-sanitize    do not attach the Tmcheck sanitizer
  --plant F        plant a fault: durability | lost-update | stale-dedup
                   | torn-commit-record | torn-batch-record
                   | stale-ro-snapshot | skip-nocap | torn-migration
                   | help-curtx | early-retry | early-chunk-done
                   (the torn-record and torn-migration faults need
                   --shards >= 2)
  --max-steps N    per-execution step budget (default 50000)
  --no-shrink      print the raw failure without minimizing it
  --out FILE       write the (shrunk) failing trace as JSON
  --replay FILE    replay a trace written by --out and exit|};
  exit 2

let int_arg name v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ ->
      prerr_endline ("explore: bad value for " ^ name ^ ": " ^ v);
      exit 2

let () =
  let strategy = ref "exhaustive" in
  let wf = ref false in
  let threads = ref 2 in
  let shards = ref 1 in
  let seed = ref 1 in
  let seeds = ref 1 in
  let txns = ref 6 in
  let ops = ref 3 in
  let pbound = ref 2 in
  let executions = ref None in
  let depth = ref 3 in
  let sites = ref `Persist in
  let max_sites = ref None in
  let persistent = ref false in
  let interleave = ref false in
  let sanitize = ref true in
  let fault = ref E.No_fault in
  let max_steps = ref 50_000 in
  let do_shrink = ref true in
  let out = ref None in
  let replay_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--strategy" :: v :: rest ->
        (match v with
        | "exhaustive" | "pct" | "crash" -> strategy := v
        | _ ->
            prerr_endline ("explore: unknown strategy " ^ v);
            exit 2);
        parse rest
    | "--wf" :: rest ->
        wf := true;
        parse rest
    | "--threads" :: v :: rest ->
        threads := max 1 (int_arg "--threads" v);
        parse rest
    | "--shards" :: v :: rest ->
        shards := max 1 (int_arg "--shards" v);
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        parse rest
    | "--seeds" :: v :: rest ->
        seeds := int_arg "--seeds" v;
        parse rest
    | "--txns" :: v :: rest ->
        txns := max 1 (int_arg "--txns" v);
        parse rest
    | "--ops" :: v :: rest ->
        ops := max 1 (int_arg "--ops" v);
        parse rest
    | "--pbound" :: v :: rest ->
        pbound := int_arg "--pbound" v;
        parse rest
    | "--executions" :: v :: rest ->
        executions := Some (int_arg "--executions" v);
        parse rest
    | "--depth" :: v :: rest ->
        depth := max 1 (int_arg "--depth" v);
        parse rest
    | "--sites" :: v :: rest ->
        (match v with
        | "persist" -> sites := `Persist
        | "every" -> sites := `Every
        | _ ->
            prerr_endline ("explore: unknown site filter " ^ v);
            exit 2);
        parse rest
    | "--max-sites" :: v :: rest ->
        max_sites := Some (int_arg "--max-sites" v);
        parse rest
    | "--persistent" :: rest ->
        persistent := true;
        parse rest
    | "--interleave" :: rest ->
        interleave := true;
        parse rest
    | "--no-sanitize" :: rest ->
        sanitize := false;
        parse rest
    | "--plant" :: v :: rest ->
        (* "durability" is the documented short form of durability-hole *)
        let name = if v = "durability" then "durability-hole" else v in
        (match E.fault_of_name name with
        | Some f -> fault := f
        | None ->
            prerr_endline ("explore: unknown fault " ^ v);
            exit 2);
        parse rest
    | "--max-steps" :: v :: rest ->
        max_steps := max 1 (int_arg "--max-steps" v);
        parse rest
    | "--no-shrink" :: rest ->
        do_shrink := false;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | "--replay" :: v :: rest ->
        replay_file := Some v;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ ->
        prerr_endline ("explore: unknown argument " ^ arg);
        usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if
    (!fault = E.Torn_commit_record
    || !fault = E.Torn_batch_record
    || !fault = E.Torn_migration)
    && !shards < 2
  then begin
    prerr_endline
      "explore: the torn-record and torn-migration faults need --shards >= 2 \
       (--plant torn-commit-record | torn-batch-record | torn-migration)";
    exit 2
  end;

  (* --- replay mode ------------------------------------------------- *)
  (match !replay_file with
  | Some path ->
      let f =
        try E.failure_of_json (J.read_file path)
        with
        | Sys_error msg ->
            prerr_endline ("explore: " ^ msg);
            exit 2
        | J.Parse_error msg ->
            prerr_endline ("explore: " ^ path ^ ": " ^ msg);
            exit 2
      in
      Format.printf "replaying %s:@.%a" path E.pp_failure f;
      (match E.replay f with
      | Some reason ->
          Format.printf "replay still fails: %s@." reason;
          exit 1
      | None ->
          Format.printf "replay passes (failure no longer reproduces)@.";
          exit 0)
  | None -> ());

  (* --- exploration mode -------------------------------------------- *)
  let config =
    {
      E.default with
      E.wf = !wf;
      threads = !threads;
      shards = !shards;
      persistent = !persistent;
      sanitize = !sanitize;
      fault = !fault;
      max_steps = !max_steps;
    }
  in
  let find prog =
    let r =
      match !strategy with
      | "exhaustive" ->
          E.explore_exhaustive ~config ~preemption_bound:!pbound
            ?max_executions:!executions prog
      | "pct" ->
          E.explore_pct ~config ~depth:!depth
            ?executions:!executions ~seed:!seed prog
      | _ ->
          E.explore_crashes ~config ~sites:!sites ?max_sites:!max_sites
            ~interleave:!interleave prog
    in
    r
  in
  let failed = ref false in
  let s = !seed in
  (try
     for seed = s to s + !seeds - 1 do
       let prog =
         Proggen.gen_program ~max_txns:!txns ~max_ops:!ops
           ~transfers:(!shards > 1) seed
       in
       Format.printf "seed %d: %d transactions on %d threads, %s%s%s...@." seed
         (List.length prog) !threads
         (if !wf then "OneFile-WF" else "OneFile-LF")
         (if !shards > 1 then Printf.sprintf " over %d shards" !shards else "")
         (match !fault with
         | E.No_fault -> ""
         | f -> " (planted: " ^ E.fault_name f ^ ")");
       let report = find prog in
       Format.printf "%a" E.pp_report report;
       match report.E.failure with
       | None -> ()
       | Some failure ->
           failed := true;
           let failure =
             if !do_shrink then begin
               Format.printf "shrinking...@.";
               let small =
                 E.shrink ~find:(fun p -> (find p).E.failure) failure
               in
               Format.printf "minimal repro:@.%a" E.pp_failure small;
               small
             end
             else failure
           in
           (match !out with
           | Some path ->
               J.write_file path (E.failure_to_json failure);
               Format.printf "trace written to %s (replay with --replay)@."
                 path
           | None -> ());
           raise Exit
     done
   with Exit -> ());
  exit (if !failed then 1 else 0)
