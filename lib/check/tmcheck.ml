(* Runtime opacity/durability sanitizer for the OneFile TMs.

   The checker mirrors the region word-for-word (shadow + bounded version
   history) by observing every access through the Region observer hook,
   and validates the invariants the paper's proofs rest on — see
   tmcheck.mli for the list.  It runs synchronously at each event under
   the cooperative scheduler, so a violation is reported at the exact
   access that caused it, with the schedule that produced it reproducible
   from the seed. *)
(* relaxed-ok: the checker reads the region only through peek/peek_durable
   — a checker access must never be a scheduling point, or attaching the
   sanitizer would change the schedule under test. *)
(* mutable-ok: all checker state is written from observer callbacks and
   transaction hooks, which run between scheduling points; the sanitizer
   is sim-only by construction. *)

module Region = Pmem.Region
module Word = Pmem.Word

type layout = {
  curtx_cell : int;
  max_threads : int;
  ws_cap : int;
  req_cell : int -> int;
  log_len : Word.t -> int;
  entry_cell : int -> int -> int;
  req_tid_of : int -> int option;
  data_base : int;
  heap_base : int;
}

type violation = { rule : string; detail : string }

exception Violation of violation

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.rule v.detail
let violation_to_string v = Format.asprintf "%a" pp_violation v

type mode = Raise | Collect

(* A transaction's heap accesses and allocator calls, in program order *)
type heap_ev =
  | Hload of int * int * int (* addr, v, s *)
  | Hstore of int
  | Palloc of int * int (* payload, cells *)
  | Pfree of int

type txstate = {
  mutable active : bool;
  mutable ro : bool;
  mutable start_seq : int;
  mutable in_alloc : int; (* allocator-call nesting depth; accesses suppressed *)
  mutable heap : heap_ev list; (* newest first *)
}

(* One allocation lifetime of a block: live in commits [aseq, fseq). *)
type arec = { ncells : int; aseq : int; mutable fseq : int }

type t = {
  region : Region.t;
  lay : layout;
  mode : mode;
  mutable violations : violation list; (* newest first *)
  mutable events : int;
  shadow : Word.t array;
  history : (int * int) list array; (* data cells only; (v, s), newest first *)
  txs : txstate array;
  owner : (int, int) Hashtbl.t; (* heap cell -> payload addr of its block *)
  recs : (int, arec list ref) Hashtbl.t; (* payload -> lifetimes, newest first *)
  freed_closures : (int, unit) Hashtbl.t; (* opids whose descriptor was freed *)
}

let hist_cap = 8

let fire c rule detail =
  let v = { rule; detail } in
  c.violations <- v :: c.violations;
  match c.mode with Raise -> raise (Violation v) | Collect -> ()

let violations c = List.rev c.violations
let events_checked c = c.events
let is_data c addr = addr >= c.lay.data_base
let is_heap c addr = addr >= c.lay.heap_base

let push_version c addr v s =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  c.history.(addr) <- take hist_cap ((v, s) :: c.history.(addr))

(* Newest version with seq <= s; None when it predates the kept window. *)
let version_at c addr s =
  let rec go = function
    | [] -> None
    | (v, s') :: tl -> if s' <= s then Some (v, s') else go tl
  in
  go c.history.(addr)

let snapshot c =
  let n = Region.size c.region in
  for i = 0 to n - 1 do
    let w = Region.peek c.region i in
    c.shadow.(i) <- w;
    c.history.(i) <- (if is_data c i then [ (w.Word.v, w.Word.s) ] else [])
  done

let reset_tx ts =
  ts.active <- false;
  ts.ro <- true;
  ts.start_seq <- 0;
  ts.in_alloc <- 0;
  ts.heap <- []

let create ?(mode = Raise) lay region =
  let n = Region.size region in
  let c =
    {
      region;
      lay;
      mode;
      violations = [];
      events = 0;
      shadow = Array.make n Word.zero;
      history = Array.make n [];
      txs =
        Array.init lay.max_threads (fun _ ->
            {
              active = false;
              ro = true;
              start_seq = 0;
              in_alloc = 0;
              heap = [];
            });
      owner = Hashtbl.create 256;
      recs = Hashtbl.create 64;
      freed_closures = Hashtbl.create 16;
    }
  in
  snapshot c;
  c

let durable_curtx c = (Region.peek_durable c.region c.lay.curtx_cell).Word.v

(* ------------------------------------------------------------------ *)
(* Region-event invariants                                             *)

(* (a) per-cell sequence monotonicity over the data area *)
let check_data_write c ~via addr (old : Word.t) (now : Word.t) =
  if now.Word.s <= old.Word.s then
    fire c "seq-monotonicity"
      (Format.sprintf
         "%s wrote cell %d with seq %d over value (%d,#%d): data sequences must \
          strictly increase (DCAS ABA argument, paper Prop. 2)"
         via addr now.Word.s old.Word.v old.Word.s)

(* commit CAS discipline on curTx *)
let check_commit c (old : Word.t) (now : Word.t) =
  if now.Word.v <> old.Word.v + 1 then
    fire c "curtx-discipline"
      (Format.sprintf "curTx advanced %d -> %d (must be +1)" old.Word.v now.Word.v);
  let prev_req = Region.peek c.region (c.lay.req_cell old.Word.s) in
  if prev_req.Word.v = old.Word.v then
    fire c "curtx-discipline"
      (Format.sprintf
         "commit CAS to seq %d while request of seq %d (tid %d) is still open"
         now.Word.v old.Word.v old.Word.s);
  let req = Region.peek c.region (c.lay.req_cell now.Word.s) in
  if req.Word.v <> now.Word.v then
    fire c "curtx-discipline"
      (Format.sprintf
         "commit CAS to (seq %d, tid %d) without a published log (request cell \
          holds %d)"
         now.Word.v now.Word.s req.Word.v)

(* (c) a request may close only after its write-set is fully applied;
   the closing word [old] announces the count *)
let check_close c ~tid (old : Word.t) =
  let seq = old.Word.v in
  let n = c.lay.log_len old in
  if n < 0 || n > c.lay.ws_cap then
    fire c "close-before-applied"
      (Format.sprintf "request (tid %d, seq %d) closed with corrupt entry count %d"
         tid seq n)
  else
    for i = 0 to n - 1 do
      let e = Region.peek c.region (c.lay.entry_cell tid i) in
      let addr = e.Word.v and v = e.Word.s in
      let w = Region.peek c.region addr in
      if not (w.Word.v = v && w.Word.s = seq) then
        fire c "close-before-applied"
          (Format.sprintf
             "request (tid %d, seq %d) closed but entry %d [cell %d := %d] is \
              unapplied: cell holds (%d,#%d)"
             tid seq i addr v w.Word.v w.Word.s)
    done

(* (b) no data word durable with a seq newer than the durable curTx *)
let check_durable_cell c ~ctx addr =
  let d = Region.peek_durable c.region addr in
  let dc = durable_curtx c in
  if d.Word.s > dc then
    fire c "durable-ahead-of-curtx"
      (Format.sprintf
         "%s: cell %d durable as (%d,#%d) but durable curTx seq is %d — a crash \
          here resurrects a transaction recovery does not know about"
         ctx addr d.Word.v d.Word.s dc)

let check_line_durability c line =
  let lo = line * Region.line_cells in
  let hi = min (Region.size c.region) (lo + Region.line_cells) - 1 in
  for j = max lo c.lay.data_base to hi do
    check_durable_cell c ~ctx:"pwb" j
  done

(* Crash: validate the whole durable image, then resynchronize all
   checker state with the post-crash world. *)
let on_crash c =
  let dc = durable_curtx c in
  for j = c.lay.data_base to Region.size c.region - 1 do
    check_durable_cell c ~ctx:"crash" j
  done;
  snapshot c;
  Array.iter reset_tx c.txs;
  (* allocator effects of committed-but-not-durable transactions vanished *)
  Hashtbl.iter
    (fun _ rl ->
      rl := List.filter (fun r -> r.aseq <= dc) !rl;
      List.iter (fun r -> if r.fseq <> max_int && r.fseq > dc then r.fseq <- max_int) !rl)
    c.recs

let record_write c addr (now : Word.t) =
  c.shadow.(addr) <- now;
  if is_data c addr then push_version c addr now.Word.v now.Word.s

let on_event c (ev : Region.event) =
  c.events <- c.events + 1;
  match ev with
  | Region.Ev_load _ -> ()
  | Region.Ev_store { addr; was; now } ->
      if is_data c addr then
        fire c "raw-store-to-data"
          (Format.sprintf
             "plain store of (%d,#%d) to data cell %d (was (%d,#%d)): data cells \
              change only through sequence-guarded DCAS"
             now.Word.v now.Word.s addr was.Word.v was.Word.s);
      record_write c addr now
  | Region.Ev_cas { ok = false; _ } -> ()
  | Region.Ev_cas { addr; old; desired; ok = true; dcas = _ } ->
      if addr = c.lay.curtx_cell then check_commit c old desired
      else begin
        (match c.lay.req_tid_of addr with
        | Some tid when desired.Word.v = old.Word.v + 1 -> check_close c ~tid old
        | _ -> ());
        if is_data c addr then check_data_write c ~via:"CAS" addr old desired
      end;
      record_write c addr desired
  | Region.Ev_pwb { line } -> check_line_durability c line
  | Region.Ev_pfence -> ()
  | Region.Ev_crash -> on_crash c

(* ------------------------------------------------------------------ *)
(* Transaction hooks (driven by Core0)                                 *)

let me c = c.txs.(Runtime.Sched.self ())

let tx_begin c ~read_only ~start_seq =
  let ts = me c in
  reset_tx ts;
  ts.active <- true;
  ts.ro <- read_only;
  ts.start_seq <- start_seq

let tx_abort c =
  let ts = me c in
  reset_tx ts

let alloc_enter c =
  let ts = me c in
  ts.in_alloc <- ts.in_alloc + 1

let alloc_exit c =
  let ts = me c in
  ts.in_alloc <- max 0 (ts.in_alloc - 1)

(* (d) opacity: an accepted read must be the version current at the
   transaction's snapshot, and never newer than the snapshot. *)
let tx_load c ~addr ~v ~s =
  let ts = me c in
  if ts.active && ts.in_alloc = 0 && is_data c addr then begin
    if s > ts.start_seq then
      fire c "opacity"
        (Format.sprintf
           "%s transaction with snapshot %d observed cell %d as (%d,#%d): read \
            past its snapshot"
           (if ts.ro then "read-only" else "update")
           ts.start_seq addr v s);
    (match version_at c addr ts.start_seq with
    | Some (v0, s0) when v0 <> v || s0 <> s ->
        fire c "opacity"
          (Format.sprintf
             "transaction with snapshot %d observed cell %d as (%d,#%d) but the \
              version at its snapshot is (%d,#%d): torn snapshot"
             ts.start_seq addr v s v0 s0)
    | _ -> ());
    if is_heap c addr then ts.heap <- Hload (addr, v, s) :: ts.heap
  end

let tx_store c ~addr =
  let ts = me c in
  if ts.active && ts.in_alloc = 0 && is_heap c addr then
    ts.heap <- Hstore addr :: ts.heap

let note_alloc c ~payload ~cells =
  let ts = me c in
  if ts.active then ts.heap <- Palloc (payload, cells) :: ts.heap

let note_free c ~payload =
  let ts = me c in
  if ts.active then ts.heap <- Pfree payload :: ts.heap

(* Is heap cell [a] inside a block live at snapshot [s]? *)
let live_at c a s =
  match Hashtbl.find_opt c.owner a with
  | None -> false
  | Some p -> (
      match Hashtbl.find_opt c.recs p with
      | None -> false
      | Some rl -> List.exists (fun r -> r.aseq <= s && s < r.fseq) !rl)

(* (f) allocator discipline, validated at commit (aborted or helped-out
   attempts may legitimately touch freed blocks before noticing the
   conflict; only a committed transaction's accesses must be clean), in
   program order: each access is checked against the blocks live at that
   point of the transaction — those live in its snapshot that it has not
   freed yet, and those it allocated and has not freed.  So one WF
   aggregate may run an operation that allocates and writes a block and a
   later one that frees it, while an access after the free still fires. *)
let validate_heap c ts committed =
  let s = ts.start_seq in
  let evs = List.rev ts.heap in
  (* blocks allocated (and not yet freed) by this very transaction *)
  let own = Hashtbl.create 8 in
  let own_covers a =
    Hashtbl.fold (fun p n acc -> acc || (a >= p && a < p + n)) own false
  in
  (* blocks live in the snapshot that this transaction freed *)
  let freed_in_tx = Hashtbl.create 8 in
  let live a =
    own_covers a
    || (live_at c a s && not (Hashtbl.mem freed_in_tx (Hashtbl.find c.owner a)))
  in
  List.iter
    (function
      | Palloc (p, n) -> Hashtbl.replace own p n
      | Pfree p ->
          if Hashtbl.mem own p then Hashtbl.remove own p
          else if Hashtbl.mem freed_in_tx p then
            fire c "double-free"
              (Format.sprintf
                 "committed transaction (snapshot %d) freed block %d twice" s p)
          else if not (live_at c p s) then
            fire c "double-free"
              (Format.sprintf
                 "committed transaction (snapshot %d) freed block %d which is not \
                  live in its snapshot (double free or foreign pointer)"
                 s p)
          else Hashtbl.replace freed_in_tx p ()
      | Hload (a, v, sq) ->
          if not (live a) then
            fire c "unallocated-access"
              (Format.sprintf
                 "committed transaction (snapshot %d) read heap cell %d (saw \
                  (%d,#%d)) outside any live block"
                 s a v sq)
      | Hstore a ->
          if not (live a) then
            fire c "unallocated-access"
              (Format.sprintf
                 "committed transaction (snapshot %d) wrote heap cell %d outside \
                  any live block"
                 s a))
    evs;
  (* commit the allocator effects into the checker's world *)
  match committed with
  | None -> ()
  | Some cseq ->
      List.iter
        (function
          | Palloc (p, n) ->
              let rl =
                match Hashtbl.find_opt c.recs p with
                | Some rl -> rl
                | None ->
                    let rl = ref [] in
                    Hashtbl.replace c.recs p rl;
                    rl
              in
              rl := { ncells = n; aseq = cseq; fseq = max_int } :: !rl;
              for a = p to p + n - 1 do
                Hashtbl.replace c.owner a p
              done
          | Pfree p -> (
              match Hashtbl.find_opt c.recs p with
              | Some ({ contents = r :: _ } : arec list ref) when r.fseq = max_int ->
                  r.fseq <- cseq
              | _ -> ())
          | Hload _ | Hstore _ -> ())
        evs

let tx_end c ~committed =
  let ts = me c in
  if ts.active then validate_heap c ts committed;
  reset_tx ts

(* ------------------------------------------------------------------ *)
(* (e) hazard-era discipline                                           *)

let closure_free c ~opid = Hashtbl.replace c.freed_closures opid ()

let closure_exec c ~opid ~freed =
  if freed || Hashtbl.mem c.freed_closures opid then
    fire c "freed-closure-exec"
      (Format.sprintf
         "operation descriptor %d executed after hazard-era reclamation freed it"
         opid)
