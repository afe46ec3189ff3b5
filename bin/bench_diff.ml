(* Compare two BENCH_*.json files produced by bench/main.exe --json.

     bench_diff baseline.json current.json [--tolerance 0.1]

   Exit status: 0 = no regression, 1 = regression(s) found, 2 = usage or
   parse error.  A regression is a series value that is worse than the
   baseline by more than the tolerance in the table's declared direction
   (higher-better throughput dropping, lower-better latency/abort counts
   rising), or a table/row that disappeared. *)

module J = Workloads.Bench_json

let usage () =
  prerr_endline "usage: bench_diff BASELINE.json CURRENT.json [--tolerance T]";
  exit 2

let () =
  let tolerance = ref J.tolerance in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some t when t >= 0.0 -> tolerance := t
        | _ ->
            prerr_endline ("bench_diff: bad tolerance " ^ v);
            exit 2);
        parse_args rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        prerr_endline ("bench_diff: unknown option " ^ arg);
        usage ()
    | file :: rest ->
        files := file :: !files;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ base_path; cur_path ] -> (
      let load path =
        try J.read_run path
        with
        | Sys_error msg ->
            prerr_endline ("bench_diff: " ^ msg);
            exit 2
        | J.Parse_error msg ->
            prerr_endline ("bench_diff: " ^ path ^ ": " ^ msg);
            exit 2
      in
      let baseline = load base_path in
      let current = load cur_path in
      if baseline.J.figure <> current.J.figure then
        Printf.printf "note: comparing different figures (%s vs %s)\n"
          baseline.J.figure current.J.figure;
      let regs = J.diff ~tolerance:!tolerance ~baseline ~current () in
      Format.printf "%s vs %s: %a@." base_path cur_path
        (J.pp_report ~tolerance:!tolerance)
        regs;
      exit (if regs = [] then 0 else 1))
  | _ -> usage ()
