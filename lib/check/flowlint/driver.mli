(** Front door: parse one source file and run every flowlint check.

    Findings include [flowlint-annot] for malformed annotation comments
    and [parse-error] when the file does not lex/parse (such a file does
    not build either, so this only surfaces in fixture corpora). *)

val analyze_source :
  ?config:Checks.config -> path:string -> string -> Check.Lint.finding list
(** [config] defaults to {!Checks.repo_config}; [path] is the
    repo-relative path used for scoping and reporting. *)
