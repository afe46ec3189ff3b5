(** Truncated exponential backoff, with no state of its own.

    A wait loop threads its current cap through its iterations, starting
    at 1.  Under simulation a backoff burns scheduling steps (simulated
    time); under real domains it calls [Domain.cpu_relax].  A wait
    allocates nothing. *)

val once : ?max:int -> int -> int
(** [once ?max cap] spins [1 + Sched.jitter cap] steps and returns the
    next cap, [min max (2 * cap)].  [max] defaults to 64. *)
