(* mutable-ok: the telemetry sink is a ref written from sequential set-up
   code; bumps happen between scheduling points of the cooperative Sched. *)
open Runtime

type 'a t = {
  slots : 'a option Satomic.t array array; (* [thread].[slot] *)
  limbo : 'a list array;
  free : 'a -> unit;
  scan_threshold : int;
  max_threads : int;
  slots_per_thread : int;
  tele : Telemetry.sink;
  c_scans : Telemetry.handle;
  c_freed : Telemetry.handle;
  c_retired : Telemetry.handle;
}

let create ?(slots_per_thread = 3) ?(scan_threshold = 8) ~max_threads ~free () =
  let tele = Telemetry.sink () in
  {
    slots =
      Array.init max_threads (fun _ ->
          Array.init slots_per_thread (fun _ -> Satomic.make None));
    limbo = Array.make max_threads [];
    free;
    scan_threshold;
    max_threads;
    slots_per_thread;
    tele;
    c_scans = Telemetry.counter tele "hp.scans";
    c_freed = Telemetry.counter tele "hp.freed";
    c_retired = Telemetry.counter tele "hp.retired";
  }

let set_telemetry t s =
  match s with Some r -> Telemetry.attach t.tele r | None -> Telemetry.detach t.tele

let publish t ~slot v = Satomic.set t.slots.(Sched.self ()).(slot) v

let protect t ~slot ~read =
  let me = Sched.self () in
  let cell = t.slots.(me).(slot) in
  (* stability is physical equality of the protected object, not of the
     option box (readers typically allocate a fresh [Some] per read) *)
  let same a b =
    match (a, b) with
    | Some x, Some y -> x == y
    | None, None -> true
    | Some _, None | None, Some _ -> false
  in
  (* flowlint: bounded a retry happens only when the protected pointer changed under us, i.e. another thread completed an update *)
  let rec loop candidate =
    Satomic.set cell candidate;
    let again = read () in
    if same again candidate then candidate
    else
      match again with
      | None ->
          Satomic.set cell None;
          None
      | Some _ -> loop again
  in
  match read () with
  | None -> None
  | candidate -> loop candidate

let clear t ~slot = Satomic.set t.slots.(Sched.self ()).(slot) None

let hazardous t obj =
  let found = ref false in
  for i = 0 to t.max_threads - 1 do
    for j = 0 to t.slots_per_thread - 1 do
      match Satomic.get t.slots.(i).(j) with
      | Some o when o == obj -> found := true
      | _ -> ()
    done
  done;
  !found

let scan t me =
  let keep, drop = List.partition (hazardous t) t.limbo.(me) in
  t.limbo.(me) <- keep;
  Telemetry.tick t.c_scans;
  Telemetry.tick t.c_freed ~by:(List.length drop);
  List.iter t.free drop

let retire t obj =
  let me = Sched.self () in
  Telemetry.tick t.c_retired;
  t.limbo.(me) <- obj :: t.limbo.(me);
  if List.length t.limbo.(me) >= t.scan_threshold then scan t me

let flush t =
  for me = 0 to t.max_threads - 1 do
    scan t me
  done

let pending t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.limbo
