open Runtime
module Lf = Onefile.Onefile_lf
module Wf = Onefile.Onefile_wf
module Q = Structures.Tm_queue.Make (Lf)

type result = {
  transfers : int;
  kills : int;
  torn_observations : int;
  final_total_ok : bool;
  leaked_cells : int;
}

let run ~wf ~processes ~rounds ~kill_every ~items ~seed ?(sanitize = false) () =
  let tm =
    Lf.create ~mode:Pmem.Region.Persistent ~size:(1 lsl 17)
      ~max_threads:(processes + 1) ~ws_cap:128 ()
  in
  if sanitize then ignore (Lf.sanitize tm);
  (* only [update_tx] differs: both front-ends read through the one
     snapshot path, [Lf.read_tx] *)
  let update = if wf then Wf.update_tx else Lf.update_tx in
  let q1 = Q.create tm ~root:0 and q2 = Q.create tm ~root:1 in
  for i = 1 to items do
    Q.enqueue q1 i
  done;
  let h1 = Q.header_addr q1 and h2 = Q.header_addr q2 in
  let allocated0 = Lf.allocated_cells tm in
  let transfers = Array.make processes 0 in
  let kills = ref 0 in
  let torn = ref 0 in
  let rng = Rng.create seed in
  (* one transaction: move an item between the queues (whichever direction
     has items), allocating the target node and freeing the source node *)
  let transfer tx =
    (match Q.dequeue_in tx h1 with
    | Some v -> Q.enqueue_in tx h2 v
    | None -> (
        match Q.dequeue_in tx h2 with
        | Some v -> Q.enqueue_in tx h1 v
        | None -> ()));
    0
  in
  let worker logical () =
    Sched.set_logical logical;
    while Sched.now () < rounds do
      ignore (update tm transfer);
      transfers.(logical) <- transfers.(logical) + 1
    done
  in
  let observer () =
    Sched.set_logical processes;
    while Sched.now () < rounds do
      let total = Lf.read_tx tm (fun tx -> Q.length_in tx h1 + Q.length_in tx h2) in
      if total <> items then incr torn
    done
  in
  (* fiber-id -> logical mapping for live workers, maintained across kills *)
  let live = Hashtbl.create 16 in
  for i = 0 to processes - 1 do
    Hashtbl.replace live i i
  done;
  let on_round sched =
    match kill_every with
    | None -> ()
    | Some k ->
        let r = Sched.round sched in
        if r > 0 && r mod k = 0 && Hashtbl.length live > 0 then begin
          let victims = Hashtbl.fold (fun fid l acc -> (fid, l) :: acc) live [] in
          let fid, logical = List.nth victims (Rng.int rng (List.length victims)) in
          if Sched.kill sched fid then begin
            incr kills;
            Hashtbl.remove live fid;
            let fid' = Sched.spawn sched (worker logical) in
            Hashtbl.replace live fid' logical
          end
          else Hashtbl.remove live fid
        end
  in
  let fibers =
    Array.init (processes + 1) (fun i ->
        if i < processes then worker i else observer)
  in
  ignore (Sched.run ~seed ~max_rounds:(rounds + 1) ~on_round fibers);
  let final_total = Lf.read_tx tm (fun tx -> Q.length_in tx h1 + Q.length_in tx h2) in
  {
    transfers = Array.fold_left ( + ) 0 transfers;
    kills = !kills;
    torn_observations = !torn;
    final_total_ok = final_total = items;
    leaked_cells = Lf.allocated_cells tm - allocated0;
  }
