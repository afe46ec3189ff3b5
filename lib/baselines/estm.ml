(* mutable-ok: tx records are confined to their owning fiber; [txs] is
   grown in sequential set-up code only. *)
module Region = Pmem.Region
module Word = Pmem.Word
module Pstats = Pmem.Pstats
module Writeset = Onefile.Writeset
open Runtime

exception Abort = Tm.Tm_intf.Abort

let name = "ESTM"
let window_size = 2

type t = {
  region : Region.t;
  elastic_enabled : bool;
  locks : int Satomic.t array;
  lock_mask : int;
  clock : int Satomic.t;
  roots_base : int;
  num_roots : int;
  alloc : Tm.Tm_alloc.t;
  mutable txs : tx array;
}

and tx = {
  inst : t;
  me : int;
  mutable rv : int;
  mutable read_only : bool;
  mutable elastic : bool;
  wset : Writeset.t;
  read_locks : Ivec.t;
  read_vers : Ivec.t;
}

let create ?(size = 1 lsl 18) ?(num_roots = 8) ?(lock_bits = 16)
    ?(max_threads = 64) ?(elastic = false) () =
  let region = Region.create ~mode:Region.Volatile size in
  let roots_base = 1 in
  let meta_base = roots_base + num_roots in
  let heap_base = meta_base + Tm.Tm_alloc.meta_cells in
  let alloc = Tm.Tm_alloc.create ~meta_base ~heap_base ~heap_end:size in
  let inst =
    {
      region;
      elastic_enabled = elastic;
      locks = Array.init (1 lsl lock_bits) (fun _ -> Satomic.make 0);
      lock_mask = (1 lsl lock_bits) - 1;
      clock = Satomic.make 0;
      roots_base;
      num_roots;
      alloc;
      txs = [||];
    }
  in
  inst.txs <-
    Array.init max_threads (fun me ->
        {
          inst;
          me;
          rv = 0;
          read_only = true;
          elastic = true;
          wset = Writeset.create 4096;
          read_locks = Ivec.create ();
          read_vers = Ivec.create ();
        });
  let init_ops =
    {
      Tm.Tm_intf.aload = (fun a -> (Region.load region a).Word.v);
      astore = (fun a v -> Region.store region a (Word.make v 0));
    }
  in
  Tm.Tm_alloc.init inst.alloc init_ops;
  inst

let marker_of tid = (2 * tid) + 1
let lock_index t addr = addr land t.lock_mask

let validate tx =
  let mine = marker_of tx.me in
  let ok = ref true in
  for i = 0 to Ivec.len tx.read_locks - 1 do
    let cur = Satomic.get tx.inst.locks.(Ivec.get tx.read_locks i) in
    if cur <> Ivec.get tx.read_vers i && cur <> mine then ok := false
  done;
  !ok

let record_read tx li lv =
  if tx.inst.elastic_enabled && tx.elastic && Ivec.len tx.read_locks >= window_size
  then begin
    (* the cut: the window must still be valid, then the oldest entry is
       dropped — the prefix of the traversal is committed implicitly *)
    if not (validate tx) then raise Abort;
    for i = 0 to Ivec.len tx.read_locks - 2 do
      Ivec.set tx.read_locks i (Ivec.get tx.read_locks (i + 1));
      Ivec.set tx.read_vers i (Ivec.get tx.read_vers (i + 1))
    done;
    Ivec.set tx.read_locks (Ivec.len tx.read_locks - 1) li;
    Ivec.set tx.read_vers (Ivec.len tx.read_vers - 1) lv
  end
  else begin
    Ivec.push tx.read_locks li;
    Ivec.push tx.read_vers lv
  end

let load tx addr =
  match if tx.read_only then None else Writeset.find tx.wset addr with
  | Some v -> v
  | None ->
      let inst = tx.inst in
      let li = lock_index inst addr in
      let lv = Satomic.get inst.locks.(li) in
      if lv land 1 = 1 then raise Abort;
      let v = (Region.load inst.region addr).Word.v in
      let lv' = Satomic.get inst.locks.(li) in
      if lv' <> lv then raise Abort;
      if lv lsr 1 > tx.rv then begin
        let new_rv = Satomic.get inst.clock in
        if not (validate tx) then raise Abort;
        tx.rv <- new_rv
      end;
      record_read tx li lv;
      v

let store tx addr v =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  tx.elastic <- false;
  Writeset.put tx.wset addr v

(* Commit: acquire per-entry locks, validate reads, write back, release. *)
let commit tx =
  if Writeset.is_empty tx.wset then ()
  else begin
    let inst = tx.inst in
    let mine = marker_of tx.me in
    let acquired = Ivec.create () in
    let acquired_old = Ivec.create () in
    let release_old () =
      for i = 0 to Ivec.len acquired - 1 do
        Satomic.set inst.locks.(Ivec.get acquired i) (Ivec.get acquired_old i)
      done
    in
    (try
       Writeset.iter tx.wset (fun addr _ ->
           let li = lock_index inst addr in
           let lv = Satomic.get inst.locks.(li) in
           if lv = mine then ()
           else begin
             if lv land 1 = 1 then raise Abort;
             if not (Satomic.compare_and_set inst.locks.(li) lv mine) then
               raise Abort;
             Ivec.push acquired li;
             Ivec.push acquired_old lv
           end)
     with Abort ->
       release_old ();
       raise Abort);
    let wv = Satomic.fetch_and_add inst.clock 1 + 1 in
    if not (validate tx) then begin
      release_old ();
      raise Abort
    end;
    Writeset.iter tx.wset (fun addr v ->
        Region.store inst.region addr (Word.make v 0));
    for i = 0 to Ivec.len acquired - 1 do
      Satomic.set inst.locks.(Ivec.get acquired i) (2 * wv)
    done
  end

let stats t = Region.stats t.region

let reset_tx tx =
  Writeset.clear tx.wset;
  Ivec.clear tx.read_locks;
  Ivec.clear tx.read_vers;
  tx.elastic <- true

let update_tx inst f =
  let tx = inst.txs.(Sched.self ()) in
  let st = stats inst in
  let rec attempt cap =
    reset_tx tx;
    tx.read_only <- false;
    tx.rv <- Satomic.get inst.clock;
    match
      let r = f tx in
      commit tx;
      r
    with
    | r ->
        if not (Writeset.is_empty tx.wset) then
          st.Pstats.commits <- st.Pstats.commits + 1;
        r
    | exception Abort ->
        st.Pstats.aborts <- st.Pstats.aborts + 1;
        attempt (Backoff.once cap)
  in
  attempt 1

let read_tx inst f =
  let tx = inst.txs.(Sched.self ()) in
  let st = stats inst in
  let rec attempt cap =
    reset_tx tx;
    tx.read_only <- true;
    tx.rv <- Satomic.get inst.clock;
    match f tx with
    | r -> r
    | exception Abort ->
        st.Pstats.aborts <- st.Pstats.aborts + 1;
        attempt (Backoff.once cap)
  in
  attempt 1

let alloc_ops tx =
  { Tm.Tm_intf.aload = (fun a -> load tx a); astore = (fun a v -> store tx a v) }

let alloc tx n =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  Tm.Tm_alloc.alloc tx.inst.alloc (alloc_ops tx) n

let free tx a =
  if tx.read_only then raise Tm.Tm_intf.Store_in_read_tx;
  Tm.Tm_alloc.free tx.inst.alloc (alloc_ops tx) a

let root inst i =
  if i < 0 || i >= inst.num_roots then invalid_arg "Estm.root";
  inst.roots_base + i

let num_roots inst = inst.num_roots
let region inst = inst.region
