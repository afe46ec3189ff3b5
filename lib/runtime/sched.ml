(* mutable-ok: this IS the cooperative scheduler — its state is mutated
   only between fiber switches, on the scheduler side of the effect
   handler; a fiber's [draws] only by that fiber. *)
open Effect
open Effect.Deep

type _ Effect.t += Step : unit Effect.t

exception Fiber_killed

type status =
  | Ready of (unit -> unit)
  | Paused of (unit, unit) continuation
  | Done

type fiber = {
  tid : int;
  mutable logical : int;
  mutable status : status;
  mutable draws : int;  (* jitter draws made so far *)
}

type policy = Round_robin | Random_order

type t = {
  mutable fibers : fiber array;
  mutable nfibers : int;
  mutable nlive : int;
  cores : int;
  quantum : int;
  policy : policy;
  seed : int;
  rng : Rng.t;
  mutable round_no : int;
  mutable steps : int;
  mutable cursor : int;
  mutable stopping : bool;
  mutable error : exn option;
}

let active : t option ref = ref None
let current : fiber option ref = ref None

let in_fiber () = !current <> None

let step_point () = if !current <> None then perform Step

let new_fiber tid status = { tid; logical = tid; status; draws = 0 }

let dls_tid : int option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let set_domain_tid id = Domain.DLS.get dls_tid := Some id

let set_logical id =
  match !current with
  | Some f -> f.logical <- id
  | None -> failwith "Sched.set_logical: not in a fiber"

let self () =
  match !current with
  | Some f -> f.logical
  | None -> ( match !(Domain.DLS.get dls_tid) with Some id -> id | None -> 0)

let dls_draws : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let jitter n =
  match (!current, !active) with
  | Some f, Some t ->
      let i = f.draws in
      f.draws <- i + 1;
      Rng.at ~seed:t.seed ~stream:f.tid i n
  | _ ->
      let c = Domain.DLS.get dls_draws in
      let i = !c in
      c := i + 1;
      Rng.at ~seed:0 ~stream:(self ()) i n

let round t = t.round_no
let total_steps t = t.steps
let live t = t.nlive
let fiber_count t = t.nfibers
let now () = match !active with Some t -> t.round_no | None -> 0
let stop t = t.stopping <- true

let runnable f = match f.status with Ready _ | Paused _ -> true | Done -> false

let kill t tid =
  let f = t.fibers.(tid) in
  if runnable f then begin
    (* The continuation is dropped without unwinding: a killed process does
       not run cleanup code, which is exactly what crash-resilience tests
       need to observe. *)
    f.status <- Done;
    t.nlive <- t.nlive - 1;
    true
  end
  else false

let spawn t fn =
  if t.nfibers = Array.length t.fibers then begin
    let bigger =
      Array.make (2 * (t.nfibers + 1)) (new_fiber (-1) Done)
    in
    Array.blit t.fibers 0 bigger 0 t.nfibers;
    t.fibers <- bigger
  end;
  let tid = t.nfibers in
  t.fibers.(tid) <- new_fiber tid (Ready fn);
  t.nfibers <- t.nfibers + 1;
  t.nlive <- t.nlive + 1;
  tid

let handler t fiber =
  {
    retc =
      (fun () ->
        fiber.status <- Done;
        t.nlive <- t.nlive - 1);
    exnc =
      (fun e ->
        fiber.status <- Done;
        t.nlive <- t.nlive - 1;
        if t.error = None then t.error <- Some e;
        t.stopping <- true);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Step ->
            Some (fun (k : (a, unit) continuation) -> fiber.status <- Paused k)
        | _ -> None);
  }

let exec_step t fiber =
  t.steps <- t.steps + 1;
  current := Some fiber;
  (match fiber.status with
  | Ready f -> match_with f () (handler t fiber)
  | Paused k ->
      fiber.status <- Done;
      (* overwritten by the handler unless the fiber really finishes *)
      continue k ()
  | Done -> assert false);
  current := None

let choose_rr t =
  let n = t.nfibers in
  let want = min t.cores t.nlive in
  let rec go i scanned acc got =
    if got >= want || scanned >= n then begin
      t.cursor <- i mod n;
      List.rev acc
    end
    else
      let idx = i mod n in
      if runnable t.fibers.(idx) then go (i + 1) (scanned + 1) (idx :: acc) (got + 1)
      else go (i + 1) (scanned + 1) acc got
  in
  go (t.cursor mod n) 0 [] 0

let choose_random t =
  let runnables = ref [] in
  let count = ref 0 in
  for i = t.nfibers - 1 downto 0 do
    if runnable t.fibers.(i) then begin
      runnables := i :: !runnables;
      incr count
    end
  done;
  let want = min t.cores !count in
  let arr = Array.of_list !runnables in
  (* partial Fisher-Yates: the first [want] slots become a uniform sample *)
  for i = 0 to want - 1 do
    let j = i + Rng.int t.rng (!count - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 want)

(* Make a run over [fns] the active simulation for [loop]; re-raise the
   first exception that escaped a fiber. *)
let simulate who ~cores ~quantum ~policy ~seed fns loop =
  if !active <> None then failwith (who ^ ": nested simulations not supported");
  let t =
    {
      fibers = Array.mapi (fun i f -> new_fiber i (Ready f)) fns;
      nfibers = Array.length fns;
      nlive = Array.length fns;
      cores;
      quantum;
      policy;
      seed;
      rng = Rng.create seed;
      round_no = 0;
      steps = 0;
      cursor = 0;
      stopping = false;
      error = None;
    }
  in
  active := Some t;
  Fun.protect
    ~finally:(fun () ->
      active := None;
      current := None)
    (fun () -> loop t);
  (match t.error with Some e -> raise e | None -> ());
  t

(* One simulated CPU, one step per decision: the controlled entry point the
   schedule-exploration layer (Explore) drives.  [pick] is called between
   steps, on the scheduler side of the effect handler, with the sorted
   runnable tids; the chosen fiber executes exactly one shared-memory step.
   [on_step] runs after each step (same side) and may call [stop] — this is
   how crash-point injection halts the world at an exact event without
   unwinding any fiber. *)
let run_controlled ?(max_steps = max_int) ?on_step ~pick fns =
  simulate "Sched.run_controlled" ~cores:1 ~quantum:1 ~policy:Round_robin ~seed:0
    fns
  @@ fun t ->
  let last = ref (-1) in
  while (not t.stopping) && t.nlive > 0 && t.steps < max_steps do
    let enabled = Array.make t.nlive 0 in
    let j = ref 0 in
    for i = 0 to t.nfibers - 1 do
      if runnable t.fibers.(i) then begin
        enabled.(!j) <- i;
        incr j
      end
    done;
    let tid = pick ~step:t.steps ~enabled ~last:!last in
    if tid < 0 || tid >= t.nfibers || not (runnable t.fibers.(tid)) then
      invalid_arg "Sched.run_controlled: pick chose a non-runnable fiber";
    exec_step t t.fibers.(tid);
    last := tid;
    t.round_no <- t.round_no + 1;
    (match on_step with Some f -> f t | None -> ())
  done

let run ?(cores = max_int) ?(quantum = 1) ?(policy = Round_robin) ?(seed = 42)
    ?(max_rounds = max_int) ?on_round fns =
  simulate "Sched.run" ~cores:(max cores 1) ~quantum:(max quantum 1) ~policy
    ~seed fns
  @@ fun t ->
  while (not t.stopping) && t.nlive > 0 && t.round_no < max_rounds do
    (match on_round with Some f -> f t | None -> ());
    if (not t.stopping) && t.nlive > 0 then begin
      let chosen =
        match t.policy with
        | Round_robin -> choose_rr t
        | Random_order -> choose_random t
      in
      let step_fiber idx =
        let fiber = t.fibers.(idx) in
        let q = ref t.quantum in
        while !q > 0 && runnable fiber && not t.stopping do
          exec_step t fiber;
          decr q
        done
      in
      List.iter step_fiber chosen;
      t.round_no <- t.round_no + 1
    end
  done
