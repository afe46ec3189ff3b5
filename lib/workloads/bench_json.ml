(* Machine-readable benchmark persistence: a minimal JSON codec (no
   external dependency exists in this container) plus the BENCH_*.json
   document model and the tolerance-based regression diff that
   bench/main.exe --baseline and bin/bench_diff.exe share.

   The emitter is deterministic and round-trip stable: for every value
   [v], [parse (to_string v)] succeeds and re-emitting it yields the
   identical string (floats are printed with just enough digits to
   round-trip exactly; integral floats print as integers, which re-parse
   as Int — the string fixpoint is what the trajectory diffing relies
   on). *)

(* ------------------------------------------------------------------ *)
(* JSON values *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let float_repr f =
  if f <> f then "null" (* NaN has no JSON literal *)
  else if f = infinity then "1e999"
  else if f = neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 4096 in
  let rec go ind v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_string buf "[";
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf "\n";
            Buffer.add_string buf (String.make (ind + 2) ' ');
            go (ind + 2) item)
          items;
        Buffer.add_string buf "\n";
        Buffer.add_string buf (String.make ind ' ');
        Buffer.add_string buf "]"
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{";
        List.iteri
          (fun i (k, fv) ->
            if i > 0 then Buffer.add_string buf ",";
            Buffer.add_string buf "\n";
            Buffer.add_string buf (String.make (ind + 2) ' ');
            escape buf k;
            Buffer.add_string buf ": ";
            go (ind + 2) fv)
          fields;
        Buffer.add_string buf "\n";
        Buffer.add_string buf (String.make ind ' ');
        Buffer.add_string buf "}"
  in
  go 0 v;
  Buffer.add_string buf "\n";
  Buffer.contents buf

(* Recursive-descent parser; accepts exactly the JSON grammar over the
   constructs the emitter produces (plus arbitrary whitespace). *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape"
           else
             let e = s.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
                 if !pos + 4 > n then fail "truncated \\u escape";
                 let hex = String.sub s !pos 4 in
                 pos := !pos + 4;
                 let code =
                   try int_of_string ("0x" ^ hex)
                   with _ -> fail "bad \\u escape"
                 in
                 if code < 256 then Buffer.add_char buf (Char.chr code)
                 else Buffer.add_char buf '?'
             | _ -> fail "unknown escape");
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if tok = "" then fail "expected number";
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
    in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad float"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          (* out-of-range integer literal: keep it as a float *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields (kv :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member name = function
  | Obj fields -> ( try List.assoc name fields with Not_found -> Null)
  | _ -> Null

let to_float_v = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Parse_error "expected number")

let to_int_v = function
  | Int i -> i
  | Float f -> int_of_float f
  | _ -> raise (Parse_error "expected int")

let to_str_v = function Str s -> s | _ -> raise (Parse_error "expected string")
let to_list_v = function List l -> l | _ -> raise (Parse_error "expected list")

(* ------------------------------------------------------------------ *)
(* Document model *)

type direction = Higher_better | Lower_better | Info

type row = { label : string; values : float list }
type table = { title : string; columns : string list; better : direction; rows : row list }

type run = {
  figure : string;
  bench_mode : string;
  cores : int;
  rounds : int;
  threads : int list;
  seed : int;
  params : (string * int) list;
  tables : table list;
  telemetry : (string * float) list;
}

let direction_to_string = function
  | Higher_better -> "higher"
  | Lower_better -> "lower"
  | Info -> "info"

let direction_of_string = function
  | "higher" -> Higher_better
  | "lower" -> Lower_better
  | "info" -> Info
  | s -> raise (Parse_error ("unknown direction " ^ s))

let row_to_json r =
  Obj [ ("label", Str r.label); ("values", List (List.map (fun v -> Float v) r.values)) ]

let table_to_json t =
  Obj
    [
      ("title", Str t.title);
      ("better", Str (direction_to_string t.better));
      ("columns", List (List.map (fun c -> Str c) t.columns));
      ("rows", List (List.map row_to_json t.rows));
    ]

let run_to_json r =
  Obj
    [
      ("figure", Str r.figure);
      ("mode", Str r.bench_mode);
      ("cores", Int r.cores);
      ("rounds", Int r.rounds);
      ("threads", List (List.map (fun t -> Int t) r.threads));
      ("seed", Int r.seed);
      ("params", Obj (List.map (fun (k, v) -> (k, Int v)) r.params));
      ("tables", List (List.map table_to_json r.tables));
      ("telemetry", Obj (List.map (fun (k, v) -> (k, Float v)) r.telemetry));
    ]

let row_of_json j =
  {
    label = to_str_v (member "label" j);
    values = List.map to_float_v (to_list_v (member "values" j));
  }

let table_of_json j =
  {
    title = to_str_v (member "title" j);
    better = direction_of_string (to_str_v (member "better" j));
    columns = List.map to_str_v (to_list_v (member "columns" j));
    rows = List.map row_of_json (to_list_v (member "rows" j));
  }

let run_of_json j =
  {
    figure = to_str_v (member "figure" j);
    bench_mode = to_str_v (member "mode" j);
    cores = to_int_v (member "cores" j);
    rounds = to_int_v (member "rounds" j);
    threads = List.map to_int_v (to_list_v (member "threads" j));
    seed = to_int_v (member "seed" j);
    params =
      (match member "params" j with
      | Obj fields -> List.map (fun (k, v) -> (k, to_int_v v)) fields
      | _ -> []);
    tables = List.map table_of_json (to_list_v (member "tables" j));
    telemetry =
      (match member "telemetry" j with
      | Obj fields -> List.map (fun (k, v) -> (k, to_float_v v)) fields
      | _ -> []);
  }

let telemetry_items (snap : Runtime.Telemetry.snapshot) =
  List.map (fun (name, v) -> (name, float_of_int v)) snap.counters
  @ List.concat_map
      (fun (name, (s : Runtime.Telemetry.summary)) ->
        [
          (name ^ ".count", float_of_int s.count);
          (name ^ ".mean", s.mean);
          (name ^ ".p50", float_of_int s.p50);
          (name ^ ".p90", float_of_int s.p90);
          (name ^ ".p99", float_of_int s.p99);
          (name ^ ".max", float_of_int s.max);
        ])
      snap.spans

(* ------------------------------------------------------------------ *)
(* Files *)

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string v))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
  |> parse

let write_run path r = write_file path (run_to_json r)
let read_run path = run_of_json (read_file path)

(* ------------------------------------------------------------------ *)
(* Regression diff *)

type regression = {
  where_ : string;
  baseline : float;
  current : float;
  delta_pct : float; (* signed, in the "worse" direction *)
}

let pp_regression ppf r =
  Format.fprintf ppf "%-60s baseline %.2f -> current %.2f (%+.1f%%)" r.where_
    r.baseline r.current r.delta_pct

let tolerance = 0.10

let pp_report ~tolerance ppf regs =
  (match regs with
  | [] -> Format.fprintf ppf "no regressions"
  | _ -> Format.fprintf ppf "%d regression(s)" (List.length regs));
  Format.fprintf ppf " (tolerance %.0f%%)" (100.0 *. tolerance);
  List.iter (fun r -> Format.fprintf ppf "@\n  %a" pp_regression r) regs

(* The ["tx.latency.*"] spans are per-instance percentiles summed across a
   sweep's instances — informational, not gated.  Gated telemetry keys are
   the ones the paper's evaluation ranks on. *)
let guarded_telemetry = [ "tx.aborts"; "pmem.pwb"; "pmem.pfence" ]

let worse ~better ~tolerance ~base ~cur =
  match better with
  | Info -> None
  | Higher_better ->
      if cur < base -. (tolerance *. Float.max (Float.abs base) 1e-9) then
        Some (100.0 *. (cur -. base) /. Float.max (Float.abs base) 1e-9)
      else None
  | Lower_better ->
      if cur -. base > tolerance *. Float.max (Float.abs base) 1.0 then
        Some (100.0 *. (cur -. base) /. Float.max (Float.abs base) 1.0)
      else None

let diff ?(tolerance = tolerance) ~baseline ~current () =
  let regs = ref [] in
  let flag where_ base cur delta =
    regs := { where_; baseline = base; current = cur; delta_pct = delta } :: !regs
  in
  let structural where_ =
    flag (where_ ^ ": missing or mismatched in current run") 0.0 0.0 0.0
  in
  List.iter
    (fun (bt : table) ->
      match List.find_opt (fun ct -> ct.title = bt.title) current.tables with
      | None -> structural ("table \"" ^ bt.title ^ "\"")
      | Some ct ->
          if ct.columns <> bt.columns then
            structural ("columns of \"" ^ bt.title ^ "\"")
          else
            List.iter
              (fun (br : row) ->
                match
                  List.find_opt (fun (cr : row) -> cr.label = br.label) ct.rows
                with
                | None -> structural (bt.title ^ " / row " ^ br.label)
                | Some cr ->
                    if List.length cr.values <> List.length br.values then
                      structural (bt.title ^ " / row " ^ br.label)
                    else
                      List.iteri
                        (fun i base ->
                          let cur = List.nth cr.values i in
                          let col =
                            match List.nth_opt bt.columns i with
                            | Some c -> c
                            | None -> string_of_int i
                          in
                          match
                            worse ~better:bt.better ~tolerance ~base ~cur
                          with
                          | Some delta ->
                              flag
                                (Printf.sprintf "%s / %s / %s" bt.title
                                   br.label col)
                                base cur delta
                          | None -> ())
                        br.values)
              bt.rows)
    baseline.tables;
  List.iter
    (fun key ->
      match
        ( List.assoc_opt key baseline.telemetry,
          List.assoc_opt key current.telemetry )
      with
      | Some base, Some cur -> (
          match worse ~better:Lower_better ~tolerance ~base ~cur with
          | Some delta -> flag ("telemetry / " ^ key) base cur delta
          | None -> ())
      | _ -> ())
    guarded_telemetry;
  List.rev !regs
