(** tm_lint — source-level concurrency lint (pure stdlib token scan).

    The deterministic scheduler only controls interleavings it can see:
    every shared access must be a {!Runtime.Sched.step_point}.  These
    rules keep the whole tree honest about that:

    - [raw-atomic] — [Atomic.] is forbidden everywhere except
      [lib/runtime/satomic.ml]: a raw atomic is invisible to the scheduler
      and silently shrinks the interleaving space explored by every test.
    - [nondeterminism] — [Random.], [Unix.gettimeofday] and [Sys.time] are
      forbidden in [lib/]: runs must be reproducible from the seed.
    - [relaxed-needs-marker] — the non-stepping accessors ([get_relaxed],
      [Region.peek], [peek_durable]) are allowed
      only in files carrying a [(* relaxed-ok: ... *)] marker stating why
      the access may bypass the scheduler.
    - [mutable-needs-marker] — [mutable] state in [lib/] requires a
      [(* mutable-ok: ... *)] marker saying what confines it (one fiber,
      the cooperative scheduler, set-up code...).  Plain mutable counters
      such as {!Pmem.Pstats} are only sound under the cooperative [Sched].
    - [missing-mli] — every [lib/**/*.ml] must have an [.mli].
    - [hotpath-alloc] — [find_opt], [Telemetry.bump] and
      [Telemetry.record] are forbidden in [lib/onefile]: per-access
      [option] boxes and string-hashed counter bumps are exactly the
      overhead the hot-path overhaul removed (use [Writeset.find_idx] and
      pre-resolved {!Runtime.Telemetry} handles).  Cold paths may carry an
      [(* alloc-ok: ... *)] marker.
    - [layering] — [Core0.] references are forbidden outside [lib/tm] and
      [lib/onefile]: everything else goes through the {!Tm.Tm_intf.S}
      surface (the front-ends re-export [faults]/[recover]/[sanitize]),
      so instances stay composable behind the signature.  Escape with a
      [(* layering-ok: ... *)] marker stating why.
    - [telemetry-step] — in [lib/], no step-taking [Satomic] or [Region]
      access ([Satomic.get]/[set]/[fetch_and_add]/[compare_and_set]/...,
      [Region.load]/[store]/[cas]/[cas1]) inside the argument of a
      [Telemetry] sample ([observe], [tick], [record], [bump], [sample],
      [incr]): instrumentation that takes a scheduling step changes the
      schedule of every run that samples, attached registry or not.
      Read step-free ([get_relaxed], [Region.peek]) under a
      [(* relaxed-ok: ... *)] marker instead.

    The rules run on the {!Srclex} token scan (the real compiler lexer),
    so prose about [Atomic] in comments, string literals — including
    [{|...|}] quoted strings — and char literals can never trip a rule;
    markers are looked up in the comment list.  Paths are repo-relative
    with ['/'] separators; only [lib/], [bin/], [bench/] and [examples/]
    are scanned. *)

type finding = { file : string; line : int; rule : string; message : string }

val pp_finding : Format.formatter -> finding -> unit
val finding_to_string : finding -> string

val strip : string -> string
(** Blank out comments (nested, string-aware), string literals and char
    literals, preserving newlines.  Legacy character scanner, no longer
    used by the rules (it cannot strip [{|...|}] quoted strings — the
    false-positive class that motivated the {!Srclex} rewrite); exposed
    for the regression tests that document exactly that. *)

val lint_source : path:string -> string -> finding list
(** Token rules for one [.ml] file ([path] repo-relative).  Files outside
    the scanned directories, and [.mli] files, yield no findings. *)

val missing_mli : files:string list -> finding list
(** Given all repo-relative source paths, report [lib/**/*.ml] files with
    no sibling [.mli]. *)
