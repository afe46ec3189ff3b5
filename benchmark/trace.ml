(* Span tracing for the traced run (--trace 1).

   Spans are recorded from the benchmark's own code, around the calls
   into each layer: [Traced] wraps a TM's transaction drivers, the user
   closure and the interposition functions, and a root-device observer
   keeps per-fiber pmem-op and pwb counters that every span snapshots at
   its start and end ([Pstats] is global across fibers and cannot
   attribute work to a span).  Nothing here is a scheduling point, so a
   traced run executes exactly the schedule of the untraced one.

   Span times are simulated rounds.  Fibers never outnumber simulated
   cores and the quantum is 1, so every live fiber steps once per round
   and a span's length in rounds is its own fiber's step count.  Host
   time is deliberately not recorded per span: fibers interleave inside
   one OS thread, so host time between a span's start and end includes
   foreign work. *)

open Runtime
module Region = Pmem.Region
module Tm_intf = Tm.Tm_intf

(* Tracing is switched on only around the timed phase; set-up, recovery
   and verification go through the wrappers untraced. *)
let on = ref false
let max_fibers = 64

(* ------------------------------------------------------------------ *)
(* Per-fiber pmem counters                                             *)

let fiber_mem = Array.make max_fibers 0 (* loads + stores + CAS + DCAS *)
let fiber_pwb = Array.make max_fibers 0

let observer (ev : Region.event) =
  if !on && Sched.in_fiber () then begin
    let f = Sched.self () in
    match ev with
    | Ev_load _ | Ev_store _ | Ev_cas _ -> fiber_mem.(f) <- fiber_mem.(f) + 1
    | Ev_pwb _ -> fiber_pwb.(f) <- fiber_pwb.(f) + 1
    | Ev_pfence | Ev_crash -> ()
  end

(* the benchmark operation each fiber is running: spans carry it, so the
   spans of one operation share an identifier *)
let cur_op = Array.make max_fibers 0
let next_op = ref 0

let begin_op () =
  if !on then begin
    incr next_op;
    cur_op.(Sched.self ()) <- !next_op
  end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

type span = {
  id : int;
  name : string;
  fiber : int;
  op : int;
  parent : int; (* id of the enclosing span on the same fiber, -1 = none *)
  start : int;
  mem0 : int;
  pwb0 : int;
  mutable stop : int;
  mutable mem : int;
  mutable pwb : int;
  mutable child_rounds : int;
  mutable child_pwb : int;
}

(* Aggregates cover every closed span, buffered or not. *)
type agg = {
  self_rounds : Histogram.t;
  mutable closed : int;
  mutable mem_sum : int;
  mutable pwb_sum : int;
  mutable self_pwb_sum : int;
}

let aggs : (string, agg) Hashtbl.t = Hashtbl.create 8

let agg name =
  match Hashtbl.find_opt aggs name with
  | Some a -> a
  | None ->
      let a =
        {
          self_rounds = Histogram.create ();
          closed = 0;
          mem_sum = 0;
          pwb_sum = 0;
          self_pwb_sum = 0;
        }
      in
      Hashtbl.add aggs name a;
      a

let buffer_cap = 1 lsl 16
let buffer : span option array = Array.make buffer_cap None
let buffered = ref 0
let dropped = ref 0
let next_id = ref 0
let stacks : span list array = Array.make max_fibers []

let open_span name =
  let f = Sched.self () in
  let parent = match stacks.(f) with p :: _ -> p.id | [] -> -1 in
  let sp =
    {
      id = !next_id;
      name;
      fiber = f;
      op = cur_op.(f);
      parent;
      start = Sched.now ();
      mem0 = fiber_mem.(f);
      pwb0 = fiber_pwb.(f);
      stop = 0;
      mem = 0;
      pwb = 0;
      child_rounds = 0;
      child_pwb = 0;
    }
  in
  incr next_id;
  stacks.(f) <- sp :: stacks.(f);
  sp

let close_span sp =
  let f = sp.fiber in
  (match stacks.(f) with
  | top :: rest when top == sp -> stacks.(f) <- rest
  | _ -> failwith "Trace.close_span: spans closed out of order");
  sp.stop <- Sched.now ();
  sp.mem <- fiber_mem.(f) - sp.mem0;
  sp.pwb <- fiber_pwb.(f) - sp.pwb0;
  let dur = sp.stop - sp.start in
  (match stacks.(f) with
  | p :: _ ->
      p.child_rounds <- p.child_rounds + dur;
      p.child_pwb <- p.child_pwb + sp.pwb
  | [] -> ());
  let a = agg sp.name in
  Histogram.add a.self_rounds (dur - sp.child_rounds);
  a.closed <- a.closed + 1;
  a.mem_sum <- a.mem_sum + sp.mem;
  a.pwb_sum <- a.pwb_sum + sp.pwb;
  a.self_pwb_sum <- a.self_pwb_sum + (sp.pwb - sp.child_pwb);
  if !buffered < buffer_cap then begin
    buffer.(!buffered) <- Some sp;
    incr buffered
  end
  else incr dropped

let with_span name f =
  let sp = open_span name in
  match f () with
  | r ->
      close_span sp;
      r
  | exception e ->
      close_span sp;
      raise e

(* ------------------------------------------------------------------ *)
(* Layer counters                                                      *)

type layer = {
  mutable updates : int;
  mutable reads : int;
  mutable execs : int; (* update-closure executions, any fiber *)
  mutable helper_execs : int; (* ... on a fiber other than the caller's *)
  mutable read_execs : int;
  mutable loads : int;
  mutable stores : int;
  mutable allocs : int;
  mutable frees : int;
  mutable pins : int; (* snapshot-epoch pins through [snapshot_ops] *)
  ws_entries : Histogram.t;
      (* distinct store addresses of the last completed execution of each
         update call's closure — the committed one *)
  mutable ws_lines : int;
  cur : (int, unit) Hashtbl.t option array;
      (* per fiber: store addresses of the closure execution running now *)
}

let layers : (string, layer) Hashtbl.t = Hashtbl.create 4

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l =
        {
          updates = 0;
          reads = 0;
          execs = 0;
          helper_execs = 0;
          read_execs = 0;
          loads = 0;
          stores = 0;
          allocs = 0;
          frees = 0;
          pins = 0;
          ws_entries = Histogram.create ();
          ws_lines = 0;
          cur = Array.make max_fibers None;
        }
      in
      Hashtbl.add layers name l;
      l

(* Run one closure execution with its own store-address set; [saved]
   restores an enclosing execution of the same layer, if any. *)
let exec st f tx ~on_done =
  let me = Sched.self () in
  let saved = st.cur.(me) in
  let h = Hashtbl.create 8 in
  st.cur.(me) <- Some h;
  match f tx with
  | r ->
      st.cur.(me) <- saved;
      on_done h;
      r
  | exception e ->
      st.cur.(me) <- saved;
      raise e

let record_writeset st = function
  | None -> ()
  | Some h ->
      Histogram.add st.ws_entries (Hashtbl.length h);
      let lines = Hashtbl.create 8 in
      Hashtbl.iter (fun a () -> Hashtbl.replace lines (Region.line_of a) ()) h;
      st.ws_lines <- st.ws_lines + Hashtbl.length lines

module type LAYER = sig
  val name : string
end

module Traced (L : LAYER) (T : Tm_intf.S) :
  Tm_intf.S with type t = T.t and type tx = T.tx = struct
  include T

  let st = layer L.name
  let s_update = L.name ^ ".update"
  let s_read = L.name ^ ".read"

  let update_tx t f =
    if not !on then T.update_tx t f
    else begin
      let owner = Sched.self () in
      st.updates <- st.updates + 1;
      let last = ref None in
      let g tx =
        st.execs <- st.execs + 1;
        if Sched.self () <> owner then st.helper_execs <- st.helper_execs + 1;
        exec st f tx ~on_done:(fun h -> last := Some h)
      in
      let r = with_span s_update (fun () -> T.update_tx t g) in
      record_writeset st !last;
      r
    end

  let read_tx t f =
    if not !on then T.read_tx t f
    else begin
      st.reads <- st.reads + 1;
      let g tx =
        st.read_execs <- st.read_execs + 1;
        f tx
      in
      with_span s_read (fun () -> T.read_tx t g)
    end

  let load tx a =
    if !on then st.loads <- st.loads + 1;
    T.load tx a

  let store tx a v =
    (if !on then begin
       st.stores <- st.stores + 1;
       match st.cur.(Sched.self ()) with
       | Some h -> Hashtbl.replace h a ()
       | None -> ()
     end);
    T.store tx a v

  let alloc tx n =
    if !on then st.allocs <- st.allocs + 1;
    T.alloc tx n

  let free tx a =
    if !on then st.frees <- st.frees + 1;
    T.free tx a
end

(* An engine's snapshot-read primitives, counted into its layer: the
   router's cross-shard snapshot reads pin and load shards directly,
   outside any engine transaction. *)
let wrap_snapshot name (o : 'a Tm_intf.snapshot_ops) : 'a Tm_intf.snapshot_ops =
  let st = layer name in
  {
    Tm_intf.snap_pin =
      (fun x ->
        if !on then st.pins <- st.pins + 1;
        o.Tm_intf.snap_pin x);
    snap_load =
      (fun x e a ->
        if !on then st.loads <- st.loads + 1;
        o.Tm_intf.snap_load x e a);
    snap_unpin = o.Tm_intf.snap_unpin;
  }

(* ------------------------------------------------------------------ *)
(* Chrome trace-event output (loads in https://ui.perfetto.dev and
   chrome://tracing).  One simulated round is shown as one microsecond;
   [tid] is the fiber. *)

let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to !buffered - 1 do
    match buffer.(i) with
    | None -> ()
    | Some sp ->
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d,\"self_rounds\":%d,\"pmem_ops\":%d,\"pwb\":%d}}\n"
          (if i = 0 then "" else ",")
          sp.name sp.fiber sp.start (sp.stop - sp.start) sp.id sp.parent sp.op
          (sp.stop - sp.start - sp.child_rounds)
          sp.mem sp.pwb
  done;
  output_string oc "]}\n";
  close_out oc
