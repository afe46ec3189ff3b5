(** Deterministic cooperative fiber scheduler.

    Concurrent algorithms in this repository access shared memory only
    through {!Satomic}, which calls {!step_point} before every access.
    Under a simulation run, [step_point] suspends the calling fiber, so a
    schedule is a sequence of shared-memory steps chosen by this scheduler.
    Outside a simulation (plain code, or real [Domain]s), [step_point] is a
    no-op and {!Satomic} degenerates to [Stdlib.Atomic].

    The scheduler models [cores] simulated CPUs over [n >= cores] fibers.
    Simulated time advances in rounds: each round, up to [cores] runnable
    fibers execute [quantum] steps each.  Over-subscription ([n > cores])
    therefore delays each fiber by roughly [n/cores] foreign steps between
    its own, reproducing the preempted-lock-holder pathology the OneFile
    paper discusses.  All choices derive from a seed: runs are reproducible. *)

type t

type policy =
  | Round_robin  (** fair time-slicing over runnable fibers *)
  | Random_order (** uniformly random runnable fiber per slot *)

val run :
  ?cores:int ->
  ?quantum:int ->
  ?policy:policy ->
  ?seed:int ->
  ?max_rounds:int ->
  ?on_round:(t -> unit) ->
  (unit -> unit) array ->
  t
(** [run fns] executes one fiber per element of [fns] (fiber [i] has tid
    [i]) until all fibers finish or [max_rounds] elapse.  [on_round] is
    invoked at the beginning of every round and may {!kill} or {!spawn}
    fibers.  Any exception escaping a fiber aborts the run and is re-raised.
    Defaults: [cores] = all fibers, [quantum = 1], [policy = Round_robin],
    [seed = 42], [max_rounds] = unlimited. *)

val run_controlled :
  ?max_steps:int ->
  ?on_step:(t -> unit) ->
  pick:(step:int -> enabled:int array -> last:int -> int) ->
  (unit -> unit) array ->
  t
(** Controlled variant of {!run} for systematic schedule exploration (see
    {!Explore}): one simulated CPU, quantum 1, and an externally chosen
    fiber per step.  Before every step, [pick ~step ~enabled ~last] receives
    the step index, the sorted tids of runnable fibers (non-empty) and the
    previously stepped tid ([-1] on the first step); the fiber it returns
    executes exactly one shared-memory step.  [on_step] runs after each step
    on the scheduler side and may call {!stop} (the loop exits before the
    next step — crash injection uses this to halt the world at an exact
    memory event) or {!kill}/{!spawn}.  The run ends when all fibers finish,
    [stop] is called, or [max_steps] elapse; a fiber exception is re-raised.
    Raises [Invalid_argument] if [pick] returns a non-runnable tid. *)

exception Fiber_killed
(** Never raised into user code; used internally to discard continuations of
    killed fibers. *)

val step_point : unit -> unit
(** Scheduling point. Suspends the current fiber when running simulated. *)

val set_domain_tid : int -> unit
(** Register a tid for the calling domain so {!self} works outside a
    simulation. Used by {!Parallel}. *)

val self : unit -> int
(** Logical tid of the calling fiber (or of the calling registered domain;
    see {!Parallel}).  On a plain thread outside any simulation, returns 0:
    sequential callers are "thread 0". *)

val set_logical : int -> unit
(** Override the calling fiber's logical tid.  A respawned "process" in the
    kill test takes over the slot (write-set, operation entry) of the fiber
    it replaces by adopting its logical tid. *)

val in_fiber : unit -> bool
(** True when called from inside a simulated fiber. *)

val jitter : int -> int
(** [jitter n] is uniform in [\[0, n)] ([n > 0]) and takes no step.  A
    fiber's [k]th draw is {!Rng.at} keyed by the run's seed (0 under
    {!run_controlled}), the fiber's spawn tid and [k], so a run's draws
    depend on nothing outside it; a respawned process draws its own
    stream.  Outside a simulation the key is seed 0, {!self} and the
    calling domain's own draw count. *)

val round : t -> int
(** Current round number (simulated time). *)

val total_steps : t -> int
(** Total shared-memory steps executed so far. *)

val live : t -> int
(** Number of fibers not yet finished or killed. *)

val fiber_count : t -> int
(** Total fibers ever created (tids are [0 .. fiber_count - 1]). *)

val now : unit -> int
(** Round number of the active simulation; 0 if none. Usable from fibers to
    timestamp events. *)

val kill : t -> int -> bool
(** [kill t tid] destroys fiber [tid] at its current scheduling point,
    simulating the death of a process mid-operation.  No unwinding of the
    fiber's stack is performed: whatever shared state it left behind stays
    as-is.  Returns false if the fiber was already finished. *)

val spawn : t -> (unit -> unit) -> int
(** Add a fiber during a run (e.g. respawning a killed process); returns its
    tid. *)

val stop : t -> unit
(** Ends the run at the next round boundary. *)
