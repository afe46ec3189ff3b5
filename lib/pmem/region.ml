(* relaxed-ok: peek/peek_durable are defined here; get_relaxed backs the
   line write-back, which models hardware cache eviction, not a program
   access, and must not be a scheduling point. *)
(* mutable-ok: the observer slot and the views list are written only from
   sequential set-up code (Tmcheck attach/detach, partitioning), never
   from inside a simulation. *)

open Runtime

type mode = Volatile | Persistent

let line_cells = 4

type event =
  | Ev_load of { addr : int; w : Word.t }
  | Ev_store of { addr : int; was : Word.t; now : Word.t }
  | Ev_cas of { addr : int; old : Word.t; desired : Word.t; ok : bool; dcas : bool }
  | Ev_pwb of { line : int }
  | Ev_pfence
  | Ev_crash

(* A value of type [t] is either a whole simulated device (parent = None)
   or a partitioned view of one (parent = Some root).  Views share the
   device's backing arrays — cells, durable shadow, dirty bits — and
   translate cell indices by [off].  Each view keeps its own Pstats and
   observer so N TM instances hosted on one device stay independently
   instrumentable; the root observer additionally sees every access in
   device-global coordinates (the crash/eviction driver is shared). *)
type t = {
  mode : mode;
  off : int;
  len : int;
  id : string; (* telemetry key prefix; "" = unprefixed (sole instance) *)
  parent : t option;
  cells : Word.t Satomic.t array;
  durable : Word.t array; (* empty in Volatile mode *)
  dirty : bool array; (* per device line; empty in Volatile mode *)
  stats : Pstats.t;
  mutable observer : (event -> unit) option;
  mutable views : t list;
      (* on the root: every view ever carved anywhere in the device (the
         Ev_crash broadcast list); on a view: its own direct sub-views *)
}

let create ?(mode = Persistent) ?(id = "") n =
  let cells = Array.init n (fun _ -> Satomic.make Word.zero) in
  let durable, dirty =
    match mode with
    | Volatile -> ([||], [||])
    | Persistent ->
        (Array.make n Word.zero, Array.make ((n + line_cells - 1) / line_cells) false)
  in
  {
    mode;
    off = 0;
    len = n;
    id;
    parent = None;
    cells;
    durable;
    dirty;
    stats = Pstats.create ();
    observer = None;
    views = [];
  }

(* Views always point at the ROOT device: nested partitioning (carving a
   view out of a view) composes the offsets instead of chaining parents,
   so the double-notify in the hot paths stays a two-level affair and
   [crash] keeps one flat list of views to broadcast [Ev_crash] to. *)
let root_of t = match t.parent with Some r -> r | None -> t

let partition ?(id_prefix = "s") t sizes =
  let root = root_of t in
  let rec build i off = function
    | [] -> []
    | sz :: rest ->
        if sz <= 0 || sz mod line_cells <> 0 then
          invalid_arg "Region.partition: sizes must be positive line multiples";
        if off + sz > t.len then
          invalid_arg "Region.partition: sizes exceed the region";
        let v =
          {
            t with
            off = t.off + off;
            len = sz;
            id = id_prefix ^ string_of_int i;
            parent = Some root;
            stats = Pstats.create ();
            observer = None;
            views = [];
          }
        in
        v :: build (i + 1) (off + sz) rest
  in
  let vs = build 0 0 sizes in
  t.views <- vs;
  if root != t then root.views <- root.views @ vs;
  vs

let set_observer t o = t.observer <- o
let notify t ev = match t.observer with None -> () | Some f -> f ev

let mode t = t.mode
let size t = t.len
let offset t = t.off
let stats t = t.stats
let id t = t.id
let parent t = t.parent
let line_of i = i / line_cells

let mark_dirty t b =
  match t.mode with Volatile -> () | Persistent -> t.dirty.(line_of b) <- true

(* Hot paths construct their event records lazily, under the observer
   match: with no observer attached (the common case) a load/store/pwb
   must not touch the minor heap.  Views notify twice — their own
   observer in view-local coordinates, the root's in device-global ones —
   and mirror their counters into the root's Pstats so the device handle
   always reports aggregate traffic. *)
let load t i =
  t.stats.loads <- t.stats.loads + 1;
  let b = t.off + i in
  let w = Satomic.get t.cells.(b) in
  (match t.observer with None -> () | Some f -> f (Ev_load { addr = i; w }));
  (match t.parent with
  | None -> ()
  | Some r -> (
      r.stats.loads <- r.stats.loads + 1;
      match r.observer with None -> () | Some f -> f (Ev_load { addr = b; w })));
  w

let cas t i old nw =
  t.stats.dcas <- t.stats.dcas + 1;
  let b = t.off + i in
  let ok = Satomic.compare_and_set t.cells.(b) old nw in
  if ok then mark_dirty t b else t.stats.dcas_fail <- t.stats.dcas_fail + 1;
  (match t.observer with
  | None -> ()
  | Some f -> f (Ev_cas { addr = i; old; desired = nw; ok; dcas = true }));
  (match t.parent with
  | None -> ()
  | Some r -> (
      r.stats.dcas <- r.stats.dcas + 1;
      if not ok then r.stats.dcas_fail <- r.stats.dcas_fail + 1;
      match r.observer with
      | None -> ()
      | Some f -> f (Ev_cas { addr = b; old; desired = nw; ok; dcas = true })));
  ok

let cas1 t i old nw =
  t.stats.cas <- t.stats.cas + 1;
  let b = t.off + i in
  let ok = Satomic.compare_and_set t.cells.(b) old nw in
  if ok then mark_dirty t b;
  (match t.observer with
  | None -> ()
  | Some f -> f (Ev_cas { addr = i; old; desired = nw; ok; dcas = false }));
  (match t.parent with
  | None -> ()
  | Some r -> (
      r.stats.cas <- r.stats.cas + 1;
      match r.observer with
      | None -> ()
      | Some f -> f (Ev_cas { addr = b; old; desired = nw; ok; dcas = false })));
  ok

let store t i w =
  t.stats.stores <- t.stats.stores + 1;
  let b = t.off + i in
  (match t.parent with None -> () | Some r -> r.stats.stores <- r.stats.stores + 1);
  match (t.observer, t.parent) with
  | None, None ->
      Satomic.set t.cells.(b) w;
      mark_dirty t b
  | None, Some { observer = None; _ } ->
      Satomic.set t.cells.(b) w;
      mark_dirty t b
  | obs, par ->
      let was = Satomic.get_relaxed t.cells.(b) in
      Satomic.set t.cells.(b) w;
      mark_dirty t b;
      (match obs with None -> () | Some f -> f (Ev_store { addr = i; was; now = w }));
      (match par with
      | None -> ()
      | Some r -> (
          match r.observer with
          | None -> ()
          | Some f -> f (Ev_store { addr = b; was; now = w })))

let flush_line t line =
  (* device-global line *)
  let lo = line * line_cells in
  let hi = min (Array.length t.cells) (lo + line_cells) - 1 in
  for j = lo to hi do
    t.durable.(j) <- Satomic.get_relaxed t.cells.(j)
  done;
  t.dirty.(line) <- false

let pwb_cost = ref 1
let pfence_cost = ref 4

let burn n =
  for _ = 1 to n do
    Sched.step_point ()
  done

let pwb t i =
  match t.mode with
  | Volatile -> ()
  | Persistent ->
      t.stats.pwb <- t.stats.pwb + 1;
      burn !pwb_cost;
      let gline = line_of (t.off + i) in
      flush_line t gline;
      (match t.observer with
      | None -> ()
      | Some f -> f (Ev_pwb { line = line_of i }));
      (match t.parent with
      | None -> ()
      | Some r -> (
          r.stats.pwb <- r.stats.pwb + 1;
          match r.observer with None -> () | Some f -> f (Ev_pwb { line = gline })))

let pwb_range t off len =
  if len > 0 then begin
    let first = line_of off and last = line_of (off + len - 1) in
    for line = first to last do
      pwb t (line * line_cells)
    done
  end

let pfence t =
  match t.mode with
  | Volatile -> ()
  | Persistent ->
      t.stats.pfence <- t.stats.pfence + 1;
      burn !pfence_cost;
      (match t.observer with None -> () | Some f -> f Ev_pfence);
      (match t.parent with
      | None -> ()
      | Some r -> (
          r.stats.pfence <- r.stats.pfence + 1;
          match r.observer with None -> () | Some f -> f Ev_pfence))

let first_line t = t.off / line_cells
let nlines t = (t.len + line_cells - 1) / line_cells

let dirty_lines t =
  if Array.length t.dirty = 0 then 0
  else begin
    let acc = ref 0 in
    let base = first_line t in
    for l = base to base + nlines t - 1 do
      if t.dirty.(l) then incr acc
    done;
    !acc
  end

let dirty_line_indices t =
  let acc = ref [] in
  let base = first_line t in
  for l = Array.length t.dirty - 1 downto 0 do
    if t.dirty.(l) && l >= base && l < base + nlines t then acc := (l - base) :: !acc
  done;
  !acc

let crash t ?(evict_fraction = 0.0) ?(evict_lines = []) ?rng () =
  (match t.mode with
  | Volatile -> invalid_arg "Region.crash: volatile region"
  | Persistent -> ());
  (match t.parent with
  | Some _ -> invalid_arg "Region.crash: crash the root region, not a view"
  | None -> ());
  List.iter
    (fun line ->
      if line < 0 || line >= Array.length t.dirty then
        invalid_arg "Region.crash: evict_lines out of range";
      if t.dirty.(line) then flush_line t line)
    evict_lines;
  (if evict_fraction > 0.0 then
     match rng with
     | None ->
         invalid_arg
           "Region.crash: evict_fraction > 0 requires ~rng (derive it from \
            the campaign seed; a shared default would correlate eviction \
            choices across campaigns)"
     | Some rng ->
         Array.iteri
           (fun line d ->
             if d && Rng.float rng < evict_fraction then flush_line t line)
           t.dirty);
  Array.iteri
    (fun i cell -> Satomic.set cell t.durable.(i))
    t.cells;
  Array.fill t.dirty 0 (Array.length t.dirty) false;
  notify t Ev_crash;
  List.iter (fun v -> notify v Ev_crash) t.views

(* Pull source: the region's own Pstats, renamed into the telemetry
   namespace and prefixed with the region id (when set) so two live
   regions or shard views registered in one registry do not collide on
   the pmem.* keys. *)
let attach_telemetry t tele =
  let p = if t.id = "" then "" else t.id ^ "." in
  let k_pwb = p ^ "pmem.pwb"
  and k_pfence = p ^ "pmem.pfence"
  and k_cas = p ^ "pmem.cas"
  and k_dcas = p ^ "pmem.dcas"
  and k_dcas_fail = p ^ "pmem.dcas_fail"
  and k_loads = p ^ "pmem.loads"
  and k_stores = p ^ "pmem.stores" in
  Telemetry.add_source tele (fun () ->
      let s = t.stats in
      [
        (k_pwb, s.Pstats.pwb);
        (k_pfence, s.Pstats.pfence);
        (k_cas, s.Pstats.cas);
        (k_dcas, s.Pstats.dcas);
        (k_dcas_fail, s.Pstats.dcas_fail);
        (k_loads, s.Pstats.loads);
        (k_stores, s.Pstats.stores);
      ])

let peek t i = Satomic.get_relaxed t.cells.(t.off + i)

let peek_durable t i =
  match t.mode with Volatile -> peek t i | Persistent -> t.durable.(t.off + i)
