(* Random transaction programs over the 8 root slots, shared by the
   sequential differential oracle (test_oracle.ml) and the schedule/crash
   explorer (Explorer).  See the .mli for the slot model. *)

open Runtime

let value_slots = 4
let ptr_slots = 4

type op =
  | Load of int
  | Store of int * int
  | Add_delta of int * int
  | Alloc_into of int * int * int
  | Free_slot of int
  | Load_through of int
  | Transfer of int * int * int

type txn = { read_only : bool; ops : op list }
type program = txn list

let pp_op ppf = function
  | Load k -> Format.fprintf ppf "load r%d" k
  | Store (k, v) -> Format.fprintf ppf "store r%d %d" k v
  | Add_delta (k, d) -> Format.fprintf ppf "add r%d %+d" k d
  | Alloc_into (k, n, m) -> Format.fprintf ppf "alloc r%d (%d cells, mark %d)" k n m
  | Free_slot k -> Format.fprintf ppf "free r%d" k
  | Load_through k -> Format.fprintf ppf "deref r%d" k
  | Transfer (a, b, d) -> Format.fprintf ppf "xfer r%d->r%d %d" a b d

let pp_program ppf prog =
  List.iteri
    (fun i t ->
      Format.fprintf ppf "  tx%d%s:" i (if t.read_only then " (ro)" else "");
      List.iter (fun op -> Format.fprintf ppf " [%a]" pp_op op) t.ops;
      Format.fprintf ppf "@.")
    prog

(* --- generation --------------------------------------------------- *)

(* [fresh] tracks pointer slots already re-allocated earlier in the same
   transaction.  Freeing a block that the same transaction allocated is
   legal, and Tmcheck now validates it in program order, but the
   generator still degrades such a free into a dereference so that every
   seed's program stays the one earlier runs and traces used; alloc/free
   interplay across transactions (and, under WF, across the operations
   of one aggregate) stays fully exercised. *)
let gen_op rng ~read_only ~weight ~fresh =
  if read_only then
    if Rng.bool rng then Load (Rng.int rng value_slots)
    else Load_through (value_slots + Rng.int rng ptr_slots)
  else
    (* the [weight] extra transfer cases widen the draw range, so the
       stream of rng calls — and hence every existing seed's program —
       is byte-identical for the historical knob settings:
       [transfers = false] is weight 0 (range 10) and the plain
       [transfers = true] default is weight 2 (range 12) *)
    match Rng.int rng (10 + weight) with
    | 0 | 1 -> Load (Rng.int rng value_slots)
    | 2 | 3 -> Store (Rng.int rng value_slots, Rng.int rng 1000)
    | 4 | 5 -> Add_delta (Rng.int rng value_slots, Rng.int rng 21 - 10)
    | 6 | 7 ->
        let k = value_slots + Rng.int rng ptr_slots in
        if List.mem k !fresh then Load_through k
        else begin
          fresh := k :: !fresh;
          Alloc_into (k, 1 + Rng.int rng 3, 1 + Rng.int rng 10_000)
        end
    | 8 ->
        let k = value_slots + Rng.int rng ptr_slots in
        if List.mem k !fresh then Load_through k else Free_slot k
    | 9 -> Load_through (value_slots + Rng.int rng ptr_slots)
    | _ ->
        let a = Rng.int rng value_slots and b = Rng.int rng value_slots in
        Transfer (a, b, 1 + Rng.int rng 9)

let gen_txn rng ~max_ops ~weight ~ro_weight =
  (* the [ro_weight] extra cases widen the draw range the same way the
     transfer knob does, keeping every historical seed's rng stream —
     and hence its program — byte-identical at the default:
     [ro_weight = 0] is the original [Rng.int rng 4 = 0] *)
  let read_only = Rng.int rng (4 + ro_weight) < 1 + ro_weight in
  let nops = 1 + Rng.int rng max_ops in
  let fresh = ref [] in
  {
    read_only;
    ops = List.init nops (fun _ -> gen_op rng ~read_only ~weight ~fresh);
  }

let gen_program ?(max_txns = 20) ?(max_ops = 6) ?(transfers = false)
    ?transfer_weight ?(ro_weight = 0) seed =
  let weight =
    match transfer_weight with
    | Some w ->
        if w < 0 then invalid_arg "Proggen.gen_program: transfer_weight < 0";
        w
    | None -> if transfers then 2 else 0
  in
  if ro_weight < 0 then invalid_arg "Proggen.gen_program: ro_weight < 0";
  let rng = Rng.create seed in
  let ntx = 1 + Rng.int rng max_txns in
  List.init ntx (fun _ -> gen_txn rng ~max_ops ~weight ~ro_weight)

let split ~threads prog =
  let parts = Array.make threads [] in
  List.iteri (fun i t -> parts.(i mod threads) <- t :: parts.(i mod threads)) prog;
  Array.map List.rev parts

(* --- migration injection ------------------------------------------ *)

type mig_mode = Mig_off | Mig_every of int | Mig_random of int
type mig_action = Mig_split of int * int | Mig_merge of int * int

let pp_mig_action ppf = function
  | Mig_split (s, d) -> Format.fprintf ppf "split %d->%d" s d
  | Mig_merge (s, d) -> Format.fprintf ppf "merge %d<-%d" d s

let migration_plan ~seed ~txns ~shards ~mode =
  (match mode with
  | Mig_every k | Mig_random k ->
      if k <= 0 then invalid_arg "Proggen.migration_plan: interval must be > 0"
  | Mig_off -> ());
  if mode = Mig_off || shards < 2 then []
  else begin
    (* the plan draws from its OWN rng: historical seeds' program streams
       must stay byte-identical whether or not migrations are injected *)
    let rng = Rng.create ((seed * 0x9e3779b1) lxor 0x656c6173) in
    (* live splits (src, dst), oldest first; at most one per source shard
       (a second split of the same source would overlap its map entry) *)
    let live = ref [] in
    let acts = ref [] in
    let emit i =
      let splittable =
        List.filter
          (fun s -> not (List.exists (fun (s', _) -> s' = s) !live))
          (List.init shards Fun.id)
      in
      let merging =
        match (splittable, !live) with
        | [], _ -> true
        | _, [] -> false
        | _ -> Rng.bool rng
      in
      if merging then (
        match !live with
        | (s, d) :: rest ->
            live := rest;
            (* merge's [src] is the HOST shard, [dst] the native home *)
            acts := (i, Mig_merge (d, s)) :: !acts
        | [] -> ())
      else begin
        let src = List.nth splittable (Rng.int rng (List.length splittable)) in
        let d = Rng.int rng (shards - 1) in
        let dst = if d >= src then d + 1 else d in
        live := !live @ [ (src, dst) ];
        acts := (i, Mig_split (src, dst)) :: !acts
      end
    in
    for i = 0 to txns - 1 do
      match mode with
      | Mig_every k -> if i > 0 && i mod k = 0 then emit i
      | Mig_random k -> if Rng.int rng k = 0 then emit i
      | Mig_off -> ()
    done;
    List.rev !acts
  end

(* --- execution ---------------------------------------------------- *)

module Exec (T : Tm.Tm_intf.S) = struct
  let interp t tx op =
    match op with
    | Load k -> T.load tx (T.root t k)
    | Store (k, v) ->
        T.store tx (T.root t k) v;
        v
    | Add_delta (k, d) ->
        let v = T.load tx (T.root t k) + d in
        T.store tx (T.root t k) v;
        v
    | Alloc_into (k, n, mark) ->
        let slot = T.root t k in
        let old = T.load tx slot in
        if old <> 0 then T.free tx old;
        let p = T.alloc tx n in
        T.store tx p mark;
        T.store tx slot p;
        mark
    | Free_slot k ->
        let slot = T.root t k in
        let old = T.load tx slot in
        if old = 0 then 0
        else begin
          T.free tx old;
          T.store tx slot 0;
          1
        end
    | Load_through k ->
        let p = T.load tx (T.root t k) in
        if p = 0 then -1 else T.load tx p
    | Transfer (a, b, d) ->
        let ra = T.root t a and rb = T.root t b in
        let va = T.load tx ra - d in
        T.store tx ra va;
        let vb = T.load tx rb + d in
        T.store tx rb vb;
        va + vb

  let exec_txn t txn =
    let body tx = List.fold_left (fun acc op -> acc + interp t tx op) 0 txn.ops in
    if txn.read_only then T.read_tx t body else T.update_tx t body

  (* Address-independent observable state: value slots verbatim; pointer
     slots as null/marker-behind-the-pointer. *)
  let observe t =
    let values =
      List.init value_slots (fun k -> T.read_tx t (fun tx -> T.load tx (T.root t k)))
    in
    let pointers =
      List.init ptr_slots (fun i ->
          let k = value_slots + i in
          T.read_tx t (fun tx ->
              let p = T.load tx (T.root t k) in
              if p = 0 then -1 else T.load tx p))
    in
    (values, pointers)

  let run ?(before_txn = fun _ _ -> ()) mk prog =
    let t = mk () in
    let results =
      List.mapi
        (fun i txn ->
          before_txn t i;
          exec_txn t txn)
        prog
    in
    (results, observe t)
end

(* --- shrinking ---------------------------------------------------- *)

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

(* Greedy delta-debugging: repeatedly delete any transaction (then any
   single operation) whose removal keeps the program failing. *)
let shrink ~fails prog =
  let still_fails p = p <> [] && fails p in
  let rec drop_txns p =
    let n = List.length p in
    let rec try_at i =
      if i >= n then p
      else
        let cand = drop_nth p i in
        if still_fails cand then drop_txns cand else try_at (i + 1)
    in
    try_at 0
  in
  let rec drop_ops p =
    let try_one ti oi =
      List.mapi
        (fun i t -> if i = ti then { t with ops = drop_nth t.ops oi } else t)
        p
      |> List.filter (fun t -> t.ops <> [])
    in
    let rec scan ti =
      if ti >= List.length p then p
      else
        let t = List.nth p ti in
        let rec ops oi =
          if oi >= List.length t.ops then scan (ti + 1)
          else
            let cand = try_one ti oi in
            if still_fails cand then drop_ops cand else ops (oi + 1)
        in
        ops 0
    in
    scan 0
  in
  drop_ops (drop_txns prog)
