(** Machine-readable benchmark persistence.

    A minimal, dependency-free JSON codec plus the document model for
    [BENCH_<figure>.json] files written by [bench/main.exe --json] and the
    tolerance-based regression diff consumed by [bin/bench_diff.exe] and
    [bench/main.exe --baseline].

    The emitter is deterministic and round-trip stable: for every emitted
    document, [parse] succeeds and re-emitting the parsed value yields the
    byte-identical string. *)

(** {1 JSON values} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

val to_string : json -> string
(** Pretty-printed (2-space indent) serialization, ending in a newline.
    Floats are printed with just enough digits to round-trip exactly. *)

val parse : string -> json
(** Inverse of {!to_string}; accepts arbitrary JSON whitespace.
    @raise Parse_error on malformed input. *)

val member : string -> json -> json
(** [member name (Obj fields)] is the named field, or [Null] when absent
    (also [Null] on non-objects). *)

(** {1 Benchmark document model} *)

(** Which direction is "better" for the values of a table — decides what
    counts as a regression in {!diff}.  [Info] tables are never gated. *)
type direction = Higher_better | Lower_better | Info

type row = { label : string; values : float list }

type table = {
  title : string;
  columns : string list;
  better : direction;
  rows : row list;
}

type run = {
  figure : string;
  bench_mode : string;  (** "quick" or "full" *)
  cores : int;
  rounds : int;
  threads : int list;
  seed : int;
  params : (string * int) list;  (** figure-specific knobs (key sizes, …) *)
  tables : table list;
  telemetry : (string * float) list;
      (** flattened {!Runtime.Telemetry.snapshot}: counters by name, spans
          as [name.count]/[.mean]/[.p50]/[.p90]/[.p99]/[.max] *)
}

val run_to_json : run -> json
val run_of_json : json -> run

val telemetry_items : Runtime.Telemetry.snapshot -> (string * float) list
(** Flatten a telemetry snapshot into the [run.telemetry] representation. *)

(** {1 Files} *)

val write_file : string -> json -> unit
val read_file : string -> json
val write_run : string -> run -> unit
val read_run : string -> run

(** {1 Regression diff} *)

type regression = {
  where_ : string;  (** "table / row / column" or "telemetry / key" *)
  baseline : float;
  current : float;
  delta_pct : float;  (** signed change, in the "worse" direction *)
}

val pp_regression : Format.formatter -> regression -> unit

val tolerance : float
(** 0.10: the relative tolerance of the [dune runtest] gate and the
    default of {!diff}. *)

val pp_report : tolerance:float -> Format.formatter -> regression list -> unit
(** ["no regressions (tolerance 10%)"], or ["N regression(s) (tolerance
    10%)"] followed by one indented {!pp_regression} line each; shared by
    [bin/bench_diff.exe] and [bench/main.exe --baseline]. *)

val guarded_telemetry : string list
(** Telemetry keys gated (lower-is-better) by {!diff}:
    ["tx.aborts"], ["pmem.pwb"], ["pmem.pfence"]. *)

val diff : ?tolerance:float -> baseline:run -> current:run -> unit -> regression list
(** Compare [current] against [baseline]: tables matched by title, rows by
    label, values positionally.  A value regresses when it is worse than
    the baseline by more than [tolerance] (default {!tolerance}) in the
    table's {!direction}; [Info] tables are skipped.  A table/row present
    in [baseline] but missing (or shape-changed) in [current] is reported
    as a structural regression.  Gated telemetry keys are compared
    lower-is-better.  Empty result = no regression. *)
