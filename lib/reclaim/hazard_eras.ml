(* mutable-ok: the telemetry sink is a ref written from sequential set-up
   code; bumps happen between scheduling points of the cooperative Sched.
   [limbo.(i)] and the scan scratch [seen.(i)] are confined to thread i. *)
open Runtime

type 'a record = { obj : 'a; birth : int; del : int }

type 'a t = {
  clock : int Satomic.t;
  eras : int Satomic.t array; (* 0 = not reading *)
  limbo : 'a record list array; (* per-thread retired lists *)
  seen : int array array; (* per-thread scan scratch: every slot's era *)
  free : 'a -> unit;
  scan_threshold : int;
  max_threads : int;
  tele : Telemetry.sink;
  c_scans : Telemetry.handle;
  c_freed : Telemetry.handle;
  c_retired : Telemetry.handle;
}

let create ?(scan_threshold = 8) ~max_threads ~free () =
  let tele = Telemetry.sink () in
  {
    clock = Satomic.make 1;
    eras = Array.init max_threads (fun _ -> Satomic.make 0);
    limbo = Array.make max_threads [];
    seen = Array.init max_threads (fun _ -> Array.make max_threads 0);
    free;
    scan_threshold;
    max_threads;
    tele;
    c_scans = Telemetry.counter tele "he.scans";
    c_freed = Telemetry.counter tele "he.freed";
    c_retired = Telemetry.counter tele "he.retired";
  }

let set_telemetry t s =
  match s with Some r -> Telemetry.attach t.tele r | None -> Telemetry.detach t.tele

let current_era t = Satomic.get t.clock
let new_era t = Satomic.fetch_and_add t.clock 1 + 1
let set_era t e = Satomic.set t.eras.(Sched.self ()) e
let clear t = Satomic.set t.eras.(Sched.self ()) 0

let protect_current t =
  let e = Satomic.get t.clock in
  set_era t e;
  e

(* flowlint: bounded a retry happens only when the global era advanced, i.e. another thread made progress; eras advance at most once per commit *)
let rec get_protected t ~read =
  let mine = t.eras.(Sched.self ()) in
  let v = read () in
  let e = Satomic.get t.clock in
  if Satomic.get mine = e then v
  else begin
    Satomic.set mine e;
    get_protected t ~read
  end

let era t i = Satomic.get t.eras.(i)

let reset t =
  for i = 0 to t.max_threads - 1 do
    Satomic.set t.eras.(i) 0
  done

let conflicts seen r =
  let alive = ref false in
  for i = 0 to Array.length seen - 1 do
    let e = seen.(i) in
    if e <> 0 && e >= r.birth && e <= r.del then alive := true
  done;
  !alive

(* Each era slot is read once per scan, not once per record: every record
   was retired before the scan began, so an era published after its slot
   was read cannot reach the record (it is unreachable by then). *)
let scan t me =
  let seen = t.seen.(me) in
  for i = 0 to t.max_threads - 1 do
    seen.(i) <- era t i
  done;
  let keep, drop = List.partition (conflicts seen) t.limbo.(me) in
  t.limbo.(me) <- keep;
  Telemetry.tick t.c_scans;
  Telemetry.tick t.c_freed ~by:(List.length drop);
  List.iter (fun r -> t.free r.obj) drop

let retire_at t ~birth ~del obj =
  let me = Sched.self () in
  Telemetry.tick t.c_retired;
  t.limbo.(me) <- { obj; birth; del } :: t.limbo.(me);
  if List.length t.limbo.(me) >= t.scan_threshold then scan t me

let retire t ~birth obj = retire_at t ~birth ~del:(Satomic.get t.clock) obj

let flush t =
  for me = 0 to t.max_threads - 1 do
    scan t me
  done

let pending t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.limbo
