(* Source-level concurrency lint, over the real token stream.

   The rules enforce repo-wide discipline that the deterministic scheduler
   depends on; see lint.mli for the rationale of each.  Since the v2
   rewrite the rules run on the {!Srclex} token scan (compiler-libs
   [Lexer]), so prose in comments, string literals — including [{|...|}]
   quoted strings the old character scanner could not strip — and char
   literals can never trip a rule.  Markers ((* relaxed-ok *),
   (* mutable-ok *), ...) are looked up in the comment list, where they
   live. *)

type finding = { file : string; line : int; rule : string; message : string }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.message

let finding_to_string f = Format.asprintf "%a" pp_finding f

(* ------------------------------------------------------------------ *)
(* Token patterns                                                      *)

(* [Mod.] applications of a module name, regardless of path prefix:
   [Atomic.get], [Stdlib.Atomic.get] and [Foo.Atomic.get] all count as a
   use of [Atomic]; [Satomic.get] is a different token entirely. *)
let module_dot toks name k =
  Array.iteri
    (fun i tk ->
      match tk.Srclex.t with
      | Parser.UIDENT u
        when u = name
             && i + 1 < Array.length toks
             && toks.(i + 1).Srclex.t = Parser.DOT ->
          k tk.Srclex.line
      | _ -> ())
    toks

(* [Mod.meth] with both components fixed. *)
let module_meth toks name meths k =
  Array.iteri
    (fun i tk ->
      match tk.Srclex.t with
      | Parser.UIDENT u when u = name && i + 2 < Array.length toks -> (
          match (toks.(i + 1).Srclex.t, toks.(i + 2).Srclex.t) with
          | Parser.DOT, Parser.LIDENT m when List.mem m meths -> k tk.Srclex.line
          | _ -> ())
      | _ -> ())
    toks

let lident toks names k =
  Array.iter
    (fun tk ->
      match tk.Srclex.t with
      | Parser.LIDENT m when List.mem m names -> k tk.Srclex.line
      | _ -> ())
    toks

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

let under dir path =
  let d = dir ^ "/" in
  String.length path >= String.length d && String.sub path 0 (String.length d) = d

let scanned path =
  under "lib" path || under "bin" path || under "bench" path
  || under "examples" path

let rule_raw_atomic ~path ~toks acc =
  if path = "lib/runtime/satomic.ml" then acc
  else begin
    let acc = ref acc in
    module_dot toks "Atomic" (fun line ->
        acc :=
          {
            file = path;
            line;
            rule = "raw-atomic";
            message =
              "raw Atomic operation: use Runtime.Satomic so the access is a \
               Sched.step_point (a raw atomic is invisible to the deterministic \
               scheduler and silently shrinks the interleaving space)";
          }
          :: !acc);
    !acc
  end

let rule_determinism ~path ~toks acc =
  if not (under "lib" path) then acc
  else begin
    let acc = ref acc in
    let hit tok line =
      acc :=
        {
          file = path;
          line;
          rule = "nondeterminism";
          message =
            tok
            ^ " is forbidden in lib/ (runs must be reproducible from the \
               scheduler seed: use Runtime.Rng, or take time as a \
               parameter)";
        }
        :: !acc
    in
    module_dot toks "Random" (hit "Random.");
    module_meth toks "Unix" [ "gettimeofday" ] (hit "Unix.gettimeofday");
    module_meth toks "Sys" [ "time" ] (hit "Sys.time");
    !acc
  end

let rule_relaxed ~path ~toks ~comments acc =
  if Srclex.has_marker comments "relaxed-ok" then acc
  else begin
    let acc = ref acc in
    let hit tok line =
      acc :=
        {
          file = path;
          line;
          rule = "relaxed-needs-marker";
          message =
            tok
            ^ " used without a (* relaxed-ok: ... *) marker: non-stepping \
               accesses bypass the scheduler and need a stated \
               justification";
        }
        :: !acc
    in
    lident toks [ "get_relaxed" ] (hit "get_relaxed");
    lident toks [ "peek_durable" ] (hit "peek_durable");
    module_meth toks "Region" [ "peek" ] (hit "Region.peek");
    !acc
  end

let rule_mutable ~path ~toks ~comments acc =
  if (not (under "lib" path)) || Srclex.has_marker comments "mutable-ok" then
    acc
  else
    let first = ref None in
    Array.iter
      (fun tk ->
        if tk.Srclex.t = Parser.MUTABLE && !first = None then
          first := Some tk.Srclex.line)
      toks;
    match !first with
    | None -> acc
    | Some line ->
        {
          file = path;
          line;
          rule = "mutable-needs-marker";
          message =
            "mutable state in lib/ without a (* mutable-ok: ... *) marker: \
             shared mutation outside Satomic is only sound if confined to one \
             fiber or to the cooperative scheduler — say which";
        }
        :: acc

(* The TM hot path (lib/onefile, and the router's transaction paths in
   lib/tm) is kept allocation-free by construction: Option-returning
   lookups box their result on every access and string-keyed telemetry
   ([incr]/[sample] on a registry) hashes the name on every call, so both
   are banned there in favour of sentinel or exception lookups
   (Writeset.find_idx, [Hashtbl.find] under [exception Not_found]) and
   pre-resolved Telemetry handles.  Cold paths that genuinely want the
   convenience carry an (* alloc-ok: ... *) marker. *)
let rule_hotpath ~path ~toks ~comments acc =
  if
    (not (under "lib/onefile" path || under "lib/tm" path))
    || Srclex.has_marker comments "alloc-ok"
  then acc
  else begin
    let acc = ref acc in
    let hit tok line =
      acc :=
        {
          file = path;
          line;
          rule = "hotpath-alloc";
          message =
            tok
            ^ " in lib/onefile or lib/tm: allocates or string-hashes on \
               the TM hot path — use a sentinel-returning lookup \
               (Writeset.find_idx), Hashtbl.find under exception \
               Not_found, or a pre-resolved Telemetry handle, or mark the \
               file (* alloc-ok: ... *) if this is a cold path";
        }
        :: !acc
    in
    lident toks [ "find_opt" ] (hit "find_opt");
    module_meth toks "Telemetry" [ "incr" ] (hit "Telemetry.incr");
    module_meth toks "Telemetry" [ "sample" ] (hit "Telemetry.sample");
    !acc
  end

(* A telemetry sample is observation, not algorithm: its argument must
   not take a scheduling step, or attaching a registry (or merely
   sampling with none attached) shifts every later step of the run.
   The argument of a Telemetry sampling call is the token run after the
   callee up to the first depth-0 token that ends an application
   ([;], [in], [then], [|], a closing bracket of an enclosing group,
   ...); a Satomic or Region access that takes a step anywhere in it is
   flagged.  Step-free reads ([get_relaxed], [Region.peek]) are the
   fix, under the file's relaxed-ok marker. *)
let telemetry_samplers = [ "observe"; "tick"; "sample"; "incr" ]

let satomic_steps =
  [ "get"; "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr"; "decr" ]

let region_steps = [ "load"; "store"; "cas"; "cas1" ]

let rule_telemetry_step ~path ~toks acc =
  if not (under "lib" path) then acc
  else begin
    let n = Array.length toks in
    let meth i m ms =
      i + 2 < n
      &&
      match (toks.(i).Srclex.t, toks.(i + 1).Srclex.t, toks.(i + 2).Srclex.t) with
      | Parser.UIDENT u, Parser.DOT, Parser.LIDENT x -> u = m && List.mem x ms
      | _ -> false
    in
    let acc = ref acc in
    let rec scan_arg i depth =
      if i < n then
        match toks.(i).Srclex.t with
        | Parser.LPAREN | Parser.LBRACKET | Parser.LBRACKETBAR | Parser.LBRACE
        | Parser.BEGIN ->
            scan_arg (i + 1) (depth + 1)
        | Parser.RPAREN | Parser.RBRACKET | Parser.BARRBRACKET | Parser.RBRACE
        | Parser.END ->
            if depth > 0 then scan_arg (i + 1) (depth - 1)
        | Parser.SEMI | Parser.SEMISEMI | Parser.IN | Parser.THEN | Parser.ELSE
        | Parser.DO | Parser.DONE | Parser.WITH | Parser.BAR
        | Parser.MINUSGREATER | Parser.COMMA | Parser.LET | Parser.AND
          when depth = 0 ->
            ()
        | _ ->
            if meth i "Satomic" satomic_steps || meth i "Region" region_steps
            then
              acc :=
                {
                  file = path;
                  line = toks.(i).Srclex.line;
                  rule = "telemetry-step";
                  message =
                    "step-taking access inside a Telemetry sample's argument: \
                     instrumentation must not take a scheduling step (it \
                     shifts the schedule of every run that samples) — read \
                     with Satomic.get_relaxed / Region.peek under a (* \
                     relaxed-ok: ... *) marker";
                }
                :: !acc;
            scan_arg (i + 1) depth
    in
    for i = 0 to n - 1 do
      if meth i "Telemetry" telemetry_samplers then scan_arg (i + 3) 0
    done;
    !acc
  end

(* Core0 is the engine room shared by the OneFile front-ends and the
   cross-shard router; everything else must go through the Tm_intf.S
   surface (Onefile_lf/Onefile_wf expose the extras — faults, recover,
   sanitize — precisely so harnesses need no Core0 access).  Direct
   references above that line couple callers to single-instance
   internals and bypass the per-instance telemetry/fault plumbing. *)
let rule_layering ~path ~toks ~comments acc =
  if
    under "lib/tm" path || under "lib/onefile" path
    || Srclex.has_marker comments "layering-ok"
  then acc
  else begin
    let acc = ref acc in
    module_dot toks "Core0" (fun line ->
        acc :=
          {
            file = path;
            line;
            rule = "layering";
            message =
              "direct Onefile.Core0 reference outside lib/tm and lib/onefile: \
               go through the Tm_intf.S surface (the Onefile_lf/Onefile_wf \
               front-ends re-export faults/recover/sanitize), or mark the \
               file (* layering-ok: ... *) with a reason";
          }
          :: !acc);
    !acc
  end

let lint_source ~path raw =
  if not (scanned path) then []
  else if Filename.check_suffix path ".ml" then begin
    let toks, comments = Srclex.scan raw in
    []
    |> rule_raw_atomic ~path ~toks
    |> rule_determinism ~path ~toks
    |> rule_relaxed ~path ~toks ~comments
    |> rule_mutable ~path ~toks ~comments
    |> rule_hotpath ~path ~toks ~comments
    |> rule_layering ~path ~toks ~comments
    |> rule_telemetry_step ~path ~toks
    |> List.sort (fun a b -> compare (a.file, a.line) (b.file, b.line))
  end
  else []

let missing_mli ~files =
  let set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace set f ()) files;
  List.filter_map
    (fun f ->
      if
        under "lib" f
        && Filename.check_suffix f ".ml"
        && not (Hashtbl.mem set (f ^ "i"))
      then
        Some
          {
            file = f;
            line = 1;
            rule = "missing-mli";
            message =
              "every lib/ module needs an .mli: an explicit interface is what \
               keeps internal mutation internal";
          }
      else None)
    files
