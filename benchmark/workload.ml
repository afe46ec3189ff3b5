(* The four benchmark workloads and the closed-loop harness that times
   them.

   Every workload runs in one OS thread as cooperative simulated fibers,
   one per simulated core, on persistent regions.  The loop is closed:
   each fiber issues its next operation only after the previous one
   returned.  Operations are checked as they return, and after the round
   cap the root device is crashed (half the dirty lines evicted at
   random) and recovered, and every acknowledged effect is checked again
   against the fibers' models.  Inputs derive from the seed alone. *)

open Runtime
module Region = Pmem.Region
module Tm_intf = Tm.Tm_intf

type kind = Update | Cross | Read

(* a checked result that is wrong *)
exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* What a workload needs from a OneFile front-end ([Onefile_lf] or
   [Onefile_wf]) beyond the TM signature. *)
module type ENGINE = sig
  include Tm_intf.S

  val create :
    ?mode:Region.mode ->
    ?size:int ->
    ?region:Region.t ->
    ?instance:string ->
    ?max_threads:int ->
    ?ws_cap:int ->
    ?num_roots:int ->
    ?read_tries:int ->
    ?linear_threshold:int ->
    unit ->
    t

  val recover : t -> unit
  val allocated_cells : t -> int
  val attach_telemetry : t -> Telemetry.t -> unit
  val snapshot_ops : t Tm_intf.snapshot_ops
  val faults : t -> Onefile.Core0.faults
end

module type S = sig
  val name : string
  val fibers : int

  val rounds_per_s : int
  (** Simulated rounds per requested second: sized so that one second of
      the timed phase takes about one CPU second on the reference host
      (see README.md). *)

  type sys

  val setup : seed:int -> sys
  (** Regions, instances, router and prefill. *)

  val device : sys -> Region.t
  (** The root device: crash target and Pstats/observer aggregation point. *)

  val shard_regions : sys -> Region.t array
  val attach : sys -> Telemetry.t -> unit

  val plant : sys -> string -> unit
  (** Set a OneFile fault-injection flag on every engine instance. *)

  val start : sys -> seed:int -> int -> kind
  (** [start sys ~seed] is the operation function: [op fiber] runs the
      fiber's next operation, checks its result and returns its kind.
      Raises {!Wrong} on a wrong result. *)

  val recover : sys -> unit

  val verify : sys -> int * string list
  (** After crash and recovery: (acknowledged effects missing, broken
      global invariants). *)

  val allocated_cells : sys -> int
end

let plant_fault (f : Onefile.Core0.faults) = function
  | "stale_commit_snapshot" -> f.stale_commit_snapshot <- true
  | "stale_dedup_flush" -> f.stale_dedup_flush <- true
  | other -> invalid_arg ("unknown fault " ^ other)

(* Per-fiber generators: independent of each other and of the prefill
   generator ([Rng.create seed]). *)
let fiber_rngs ~seed n = Array.init n (fun f -> Rng.create ((seed * 7919) + f + 1))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Operation classes in blocks: every block of [sum of counts] operations
   holds each class exactly [count] times, in a fresh random order, so
   the shares are exact (the mix adds no run-to-run noise) and no fixed
   period can lock the fibers into step.  [next f rng] is fiber f's
   next class. *)
let mix_blocks n (mix : (kind * int) list) =
  let block = Array.of_list (List.concat_map (fun (k, m) -> List.init m (fun _ -> k)) mix) in
  let blocks = Array.init n (fun _ -> Array.copy block) in
  let pos = Array.make n 0 in
  fun f rng ->
    let b = blocks.(f) in
    if pos.(f) = 0 then shuffle rng b;
    let k = b.(pos.(f)) in
    pos.(f) <- (pos.(f) + 1) mod Array.length b;
    k

(* ------------------------------------------------------------------ *)
(* wf-kv-write                                                          *)

(* OneFile-WF resizable hash set, pre-sized and prefilled; every
   transaction moves one of its fiber's keys out and another in. *)
module Kv (E : ENGINE) (T : Tm_intf.S with type t = E.t) = struct
  module H = Structures.Hash_set.Make (T)

  let name = "wf-kv-write"
  let fibers = 8
  let rounds_per_s = 660_000
  let keys = 4096 (* present at any time *)
  let buckets = 8192
  let own = 2 * keys / fibers (* keys per fiber: k mod fibers = fiber *)
  let half = own / 2

  type sys = {
    inst : E.t;
    h : H.h;
    (* fiber f's model: slot s stands for key s * fibers + f *)
    pres : int array array; (* slots present, [half] each *)
    abs : int array array; (* slots absent *)
    infl_a : int array; (* in-flight op's removed / added slot, -1 = none *)
    infl_b : int array;
    tainted : bool array; (* a wrong result left the model unknown *)
  }

  let key f s = (s * fibers) + f

  let setup ~seed =
    let inst = E.create ~size:(1 lsl 16) ~max_threads:fibers ~ws_cap:1024 ~num_roots:2 () in
    let h = H.create ~initial_buckets:buckets inst ~root:0 in
    let rng = Rng.create seed in
    let pres = Array.make fibers [||] and abs = Array.make fibers [||] in
    for f = 0 to fibers - 1 do
      let slots = Array.init own Fun.id in
      shuffle rng slots;
      pres.(f) <- Array.sub slots 0 half;
      abs.(f) <- Array.sub slots half half
    done;
    let hdr = H.header_addr h in
    for f = 0 to fibers - 1 do
      (* 64 adds per transaction: well inside the write-set capacity *)
      for c = 0 to (half / 64) - 1 do
        ignore
          (T.update_tx inst (fun tx ->
               for i = c * 64 to (c * 64) + 63 do
                 ignore (H.add_in tx hdr (key f pres.(f).(i)))
               done;
               0))
      done
    done;
    {
      inst;
      h;
      pres;
      abs;
      infl_a = Array.make fibers (-1);
      infl_b = Array.make fibers (-1);
      tainted = Array.make fibers false;
    }

  let device s = E.region s.inst
  let shard_regions _ = [||]
  let attach s reg = E.attach_telemetry s.inst reg
  let plant s fault = plant_fault (E.faults s.inst) fault

  let start s ~seed =
    let rngs = fiber_rngs ~seed fibers in
    let hdr = H.header_addr s.h in
    fun f ->
      let rng = rngs.(f) in
      let i = Rng.int rng half and j = Rng.int rng half in
      let sa = s.pres.(f).(i) and sb = s.abs.(f).(j) in
      let a = key f sa and b = key f sb in
      s.infl_a.(f) <- sa;
      s.infl_b.(f) <- sb;
      let r =
        T.update_tx s.inst (fun tx ->
            let removed = H.remove_in tx hdr a in
            let added = H.add_in tx hdr b in
            (if removed then 1 else 0) + if added then 2 else 0)
      in
      s.infl_a.(f) <- -1;
      s.infl_b.(f) <- -1;
      if r <> 3 then begin
        s.tainted.(f) <- true;
        wrong "remove_in %d / add_in %d flags %d, expected both true" a b r
      end;
      s.pres.(f).(i) <- sb;
      s.abs.(f).(j) <- sa;
      Update

  let recover s = E.recover s.inst

  let verify s =
    let lost = ref 0 in
    let present k = H.contains s.h k in
    for f = 0 to fibers - 1 do
      if not s.tainted.(f) then begin
        let ia = s.infl_a.(f) and ib = s.infl_b.(f) in
        let check slot want = if slot <> ia && slot <> ib && present (key f slot) <> want then incr lost in
        Array.iter (fun sl -> check sl true) s.pres.(f);
        Array.iter (fun sl -> check sl false) s.abs.(f);
        (* the in-flight move either committed whole or not at all *)
        if ia >= 0 then
          match (present (key f ia), present (key f ib)) with
          | true, false | false, true -> ()
          | _ -> incr lost
      end
    done;
    let n = H.cardinal s.h in
    (!lost, if n = keys then [] else [ Printf.sprintf "cardinality %d, expected %d" n keys ])

  let allocated_cells s = E.allocated_cells s.inst
end

(* ------------------------------------------------------------------ *)
(* lf-list-read90                                                       *)

(* OneFile-LF sorted linked list of 256 keys.  Even keys are stable;
   every fiber owns 16 odd "churn" keys.  90% of operations are
   snapshot [contains] on a random key, 10% toggle one of the fiber's
   churn keys. *)
module List_read (E : ENGINE) (T : Tm_intf.S with type t = E.t) = struct
  module L = Structures.Ll_set.Make (T)

  let name = "lf-list-read90"
  let fibers = 8
  let rounds_per_s = 920_000
  let keys = 256
  let churn = keys / 2 / fibers (* odd keys per fiber *)

  type sys = {
    inst : E.t;
    l : L.h;
    present : bool array; (* model of every key *)
    infl : int array; (* key of the in-flight toggle, -1 = none *)
    tainted : bool array;
  }

  (* odd key k = 2i + 1 belongs to fiber i mod fibers *)
  let owner k = (k / 2) mod fibers
  let churn_key f i = (2 * (f + (fibers * i))) + 1

  let setup ~seed =
    let inst = E.create ~size:(1 lsl 14) ~max_threads:fibers ~ws_cap:256 ~num_roots:2 () in
    let l = L.create inst ~root:0 in
    let rng = Rng.create seed in
    let present = Array.init keys (fun k -> k land 1 = 0 || Rng.bool rng) in
    let hdr = L.header_addr l in
    for c = 0 to (keys / 16) - 1 do
      ignore
        (T.update_tx inst (fun tx ->
             for k = c * 16 to (c * 16) + 15 do
               if present.(k) then ignore (L.add_in tx hdr k)
             done;
             0))
    done;
    { inst; l; present; infl = Array.make fibers (-1); tainted = Array.make fibers false }

  let device s = E.region s.inst
  let shard_regions _ = [||]
  let attach s reg = E.attach_telemetry s.inst reg
  let plant s fault = plant_fault (E.faults s.inst) fault

  let start s ~seed =
    let rngs = fiber_rngs ~seed fibers in
    let next = mix_blocks fibers [ (Update, 1); (Read, 9) ] in
    let hdr = L.header_addr s.l in
    fun f ->
      let rng = rngs.(f) in
      match next f rng with
      | Read ->
          let k = Rng.int rng keys in
          let r = T.read_tx s.inst (fun tx -> if L.contains_in tx hdr k then 1 else 0) in
          if k land 1 = 0 && r <> 1 then wrong "stable key %d missing" k;
          if k land 1 = 1 && owner k = f && (r = 1) <> s.present.(k) && not s.tainted.(f)
          then wrong "own key %d in the wrong state" k;
          Read
      | Update | Cross ->
          let k = churn_key f (Rng.int rng churn) in
          let was = s.present.(k) in
          s.infl.(f) <- k;
          let r =
            T.update_tx s.inst (fun tx ->
                let ok = if was then L.remove_in tx hdr k else L.add_in tx hdr k in
                if ok then 1 else 0)
          in
          s.infl.(f) <- -1;
          if r <> 1 then begin
            s.tainted.(f) <- true;
            wrong "%s %d returned false" (if was then "remove_in" else "add_in") k
          end;
          s.present.(k) <- not was;
          Update

  let recover s = E.recover s.inst

  let verify s =
    let lost = ref 0 in
    let l = L.to_list s.l in
    let durable = Array.make keys false in
    List.iter (fun k -> if k >= 0 && k < keys then durable.(k) <- true) l;
    for k = 0 to keys - 1 do
      if k land 1 = 0 then (if not durable.(k) then incr lost)
      else begin
        let f = owner k in
        if (not s.tainted.(f)) && s.infl.(f) <> k && durable.(k) <> s.present.(k) then
          incr lost
      end
    done;
    let broken = ref [] in
    if not (L.check_sorted s.l) then broken := "list not sorted" :: !broken;
    let n = L.cardinal s.l in
    if n <> List.length l then
      broken := Printf.sprintf "cardinality %d, %d nodes" n (List.length l) :: !broken;
    (!lost, !broken)

  let allocated_cells s = E.allocated_cells s.inst
end

(* ------------------------------------------------------------------ *)
(* shard-local / shard-cross                                            *)

module type MIX = sig
  val name : string
  val rounds_per_s : int

  val mix : (kind * int) list
  (** One fiber's cycle: [Update] = transfer on the home shard, [Cross] =
      transfer to another shard, [Read] = snapshot sum of every account. *)
end

(* The router over 4 partitioned views of one device, 64 accounts
   (account i lives on shard i mod 4), 16 fibers, fiber f homed on
   shard f mod 4.  Every transfer also bumps the fiber's receipt cell on
   its home shard, so the receipt counts acknowledged transfers. *)
module Bank
    (M : MIX)
    (E : ENGINE)
    (TE : sig
      include Tm_intf.S with type t = E.t

      val snapshot_ops : t Tm_intf.snapshot_ops
    end)
    (Top : functor (S : Tm_intf.S) -> Tm_intf.S with type t = S.t) =
struct
  module Sh = Tm.Tm_shard.Make (TE)
  module T = Top (Sh)

  let name = M.name
  let rounds_per_s = M.rounds_per_s
  let fibers = 16
  let shards = 4
  let accounts = 64
  let initial = 100
  let span = 1 lsl 13
  let max_threads = fibers + 2
  let per_shard = accounts / shards

  type sys = {
    device : Region.t;
    views : Region.t array;
    insts : E.t array;
    tm : Sh.t;
    acct : int array; (* global address of account i *)
    rcpt : int array; (* global address of fiber f's receipt *)
    acked : int array; (* acknowledged transfers per fiber *)
    infl : bool array;
    tainted : bool array;
  }

  let setup ~seed:_ =
    let device = Region.create ~mode:Region.Persistent (shards * span) in
    let views = Array.of_list (Region.partition device (List.init shards (fun _ -> span))) in
    (* accounts and receipts as router roots, plus the reserved root *)
    let num_roots = ((accounts + fibers) / shards) + 1 in
    let insts =
      Array.map (fun v -> E.create ~region:v ~max_threads ~ws_cap:256 ~num_roots ()) views
    in
    let tm =
      Sh.make ~max_threads ~batch_watermark:(fibers - 1) ~ro_snapshot:TE.snapshot_ops insts
    in
    let acct = Array.init accounts (fun i -> Sh.root tm i) in
    let rcpt = Array.init fibers (fun f -> Sh.root tm (accounts + f)) in
    for s = 0 to shards - 1 do
      ignore
        (T.update_tx tm (fun tx ->
             for j = 0 to per_shard - 1 do
               T.store tx acct.(s + (shards * j)) initial
             done;
             0))
    done;
    {
      device;
      views;
      insts;
      tm;
      acct;
      rcpt;
      acked = Array.make fibers 0;
      infl = Array.make fibers false;
      tainted = Array.make fibers false;
    }

  let device s = s.device
  let shard_regions s = s.views

  let attach s reg =
    Array.iter (fun i -> E.attach_telemetry i reg) s.insts;
    Sh.attach_telemetry s.tm reg

  let plant s fault =
    Array.iter (fun i -> plant_fault (E.faults i) fault) s.insts

  let sum s tx = Array.fold_left (fun acc a -> acc + T.load tx a) 0 s.acct

  let start s ~seed =
    let rngs = fiber_rngs ~seed fibers in
    let next = mix_blocks fibers M.mix in
    fun f ->
      let rng = rngs.(f) in
      let kind = next f rng in
      let home = f mod shards in
      match kind with
      | Read ->
          let v = T.read_tx s.tm (fun tx -> sum s tx) in
          if v <> accounts * initial then wrong "torn sum %d" v;
          Read
      | Update | Cross ->
          let j1 = Rng.int rng per_shard in
          let a = home + (shards * j1) in
          let b =
            if kind = Update then home + (shards * ((j1 + 1 + Rng.int rng (per_shard - 1)) mod per_shard))
            else ((home + 1 + Rng.int rng (shards - 1)) mod shards) + (shards * Rng.int rng per_shard)
          in
          let amt = 1 + Rng.int rng 9 in
          let ra = s.acct.(a) and rb = s.acct.(b) and rr = s.rcpt.(f) in
          s.infl.(f) <- true;
          let r =
            T.update_tx s.tm (fun tx ->
                T.store tx ra (T.load tx ra - amt);
                T.store tx rb (T.load tx rb + amt);
                let n = T.load tx rr + 1 in
                T.store tx rr n;
                n)
          in
          s.infl.(f) <- false;
          s.acked.(f) <- s.acked.(f) + 1;
          if r <> s.acked.(f) then begin
            s.tainted.(f) <- true;
            wrong "receipt %d after %d acknowledged transfers" r s.acked.(f)
          end;
          kind

  let recover s = Sh.recover ~shard_recover:E.recover s.tm

  let verify s =
    let lost = ref 0 and broken = ref [] in
    let total = T.read_tx s.tm (fun tx -> sum s tx) in
    if total <> accounts * initial then
      broken := Printf.sprintf "account total %d, expected %d" total (accounts * initial) :: !broken;
    for f = 0 to fibers - 1 do
      if not s.tainted.(f) then begin
        let r = T.read_tx s.tm (fun tx -> T.load tx s.rcpt.(f)) in
        let a = s.acked.(f) in
        if not (r = a || (s.infl.(f) && r = a + 1)) then begin
          incr lost;
          broken := Printf.sprintf "fiber %d receipt %d, acknowledged %d" f r a :: !broken
        end
      end
    done;
    (!lost, !broken)

  let allocated_cells s = Array.fold_left (fun acc i -> acc + E.allocated_cells i) 0 s.insts
end

module Local = struct
  let name = "shard-local"
  let rounds_per_s = 420_000
  let mix = [ (Update, 1) ]
end

module Cross_mix = struct
  let name = "shard-cross"
  let rounds_per_s = 600_000
  let mix = [ (Update, 13); (Cross, 5); (Read, 2) ]
end

(* ------------------------------------------------------------------ *)
(* The timed phase                                                      *)

(* Latency samples in rounds: an exact count per value below [cap] and
   the rare larger values kept apart, so memory stays constant however
   many operations a run completes (the sample store must not move
   [heap_peak_mb]).  Percentiles are nearest-rank, as in [Histogram]. *)
module Lat = struct
  let cap = 1 lsl 16

  type t = { counts : int array; mutable n : int; mutable over : int list }

  let create () = { counts = Array.make cap 0; n = 0; over = [] }

  let add t v =
    t.n <- t.n + 1;
    if v < cap then t.counts.(v) <- t.counts.(v) + 1 else t.over <- v :: t.over

  let count t = t.n

  let percentile t p =
    if t.n = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.n))) in
      let v = ref 0 and seen = ref t.counts.(0) in
      while !seen < rank && !v < cap - 1 do
        incr v;
        seen := !seen + t.counts.(!v)
      done;
      if !seen >= rank then !v else List.nth (List.sort compare t.over) (rank - !seen - 1)
    end
end

type phase = {
  rounds : int;
  steps : int;
  ops : int; (* operations that returned, checked or failed *)
  failed : int;
  cross : int;
  upd_lat : Lat.t; (* Update and Cross *)
  ro_lat : Lat.t;
  op_lat : Lat.t;
  cpu_s : float;
  chunk_rates : float list; (* ops per CPU second, per chunk *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

let chunks = 50

(* Think time between a fiber's operations, uniform in [0, think) rounds:
   without it the round-robin lockstep settles each seed into its own
   periodic conflict pattern, and tail latencies jump between discrete
   modes from seed to seed. *)
let think = 8
let reported = ref 0

let report_failure f e =
  incr reported;
  if !reported <= 5 then
    Printf.eprintf "fiber %d: %s\n%!" f
      (match e with Wrong m -> m | e -> "exception " ^ Printexc.to_string e)

(* Run [fibers] closed-loop fibers for exactly [rounds] rounds on as
   many simulated cores, round-robin, quantum 1.  Operations still in
   flight at the cap are cut off mid-way, which the caller treats as a
   crash.  Process CPU time is sampled every [rounds / chunks] rounds. *)
let closed_loop ~fibers ~rounds ~seed op =
  let ops = ref 0 and failed = ref 0 and cross = ref 0 in
  let upd_lat = Lat.create () and ro_lat = Lat.create () and op_lat = Lat.create () in
  let every = max 1 (rounds / chunks) in
  let marks = ref [] in
  let on_round s = if Sched.round s mod every = 0 then marks := (Sys.time (), !ops) :: !marks in
  let body f () =
    let rng = Rng.create ((seed * 6151) + f + 1) in
    while true do
      for _ = 1 to Rng.int rng think do
        Sched.step_point ()
      done;
      Trace.begin_op ();
      let t0 = Sched.now () in
      match op f with
      | kind ->
          let dt = Sched.now () - t0 in
          incr ops;
          Lat.add op_lat dt;
          (match kind with
          | Read -> Lat.add ro_lat dt
          | Update -> Lat.add upd_lat dt
          | Cross ->
              incr cross;
              Lat.add upd_lat dt)
      | exception e ->
          incr ops;
          incr failed;
          report_failure f e
    done
  in
  let gc0 = Gc.quick_stat () in
  let c0 = Sys.time () in
  let s =
    Sched.run ~cores:fibers ~quantum:1 ~policy:Sched.Round_robin ~seed ~max_rounds:rounds
      ~on_round (Array.init fibers body)
  in
  let c1 = Sys.time () in
  let gc1 = Gc.quick_stat () in
  let rec rates acc = function
    | (t1, n1) :: ((t0, n0) :: _ as rest) ->
        let acc = if t1 > t0 then (float_of_int (n1 - n0) /. (t1 -. t0)) :: acc else acc in
        rates acc rest
    | _ -> acc
  in
  {
    rounds = Sched.round s;
    steps = Sched.total_steps s;
    ops = !ops;
    failed = !failed;
    cross = !cross;
    upd_lat;
    ro_lat;
    op_lat;
    cpu_s = c1 -. c0;
    chunk_rates = rates [] ((c1, !ops) :: !marks);
    gc0;
    gc1;
  }

(* Run [f] alone in a fiber with a round cap: verification of a corrupted
   durable image (a planted fault) could otherwise follow a pointer cycle
   forever.  [None] when the cap was hit. *)
let bounded ~rounds f =
  let res = ref None in
  ignore (Sched.run ~max_rounds:rounds [| (fun () -> res := Some (f ())) |]);
  !res
