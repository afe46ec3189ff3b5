(* Parse + lower + check one file.  Parsing uses the same compiler-libs
   front end as the build, so the analyzed tree is exactly what the
   compiler sees; comments come from a second {!Srclex} pass (the parser
   discards them). *)

let parse_error ~path line msg =
  [ { Check.Lint.file = path; line; rule = "parse-error"; message = msg } ]

let analyze_source ?(config = Checks.repo_config) ~path src =
  match
    let lexbuf = Lexing.from_string src in
    Lexing.set_filename lexbuf path;
    Parse.implementation lexbuf
  with
  | exception Syntaxerr.Error e ->
      let loc = Syntaxerr.location_of_error e in
      parse_error ~path loc.Location.loc_start.Lexing.pos_lnum
        "syntax error: flowlint analyzes the same tree the compiler sees, \
         and this file does not parse"
  | exception Lexer.Error (_, loc) ->
      parse_error ~path loc.Location.loc_start.Lexing.pos_lnum "lexer error"
  | str ->
      let _, comments = Check.Srclex.scan src in
      let annots, malformed = Annot.collect comments in
      let annot_findings =
        List.map
          (fun (line, message) ->
            { Check.Lint.file = path; line; rule = "flowlint-annot"; message })
          malformed
      in
      let file = Eventcfg.of_structure str in
      annot_findings @ Checks.run config ~path file annots
      |> List.sort (fun (a : Check.Lint.finding) b ->
             compare (a.line, a.rule) (b.line, b.rule))
