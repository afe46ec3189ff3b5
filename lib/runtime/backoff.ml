(* Jittered waits: without the jitter, round-robin lockstep can keep two
   contending transactions perfectly symmetric and livelock them (or
   starve a reader against a periodic writer) forever.  Each fiber draws
   from its own {!Sched.jitter} stream, so the waits of one run depend on
   that run alone. *)

let once ?(max = 64) cap =
  let spins = 1 + Sched.jitter cap in
  for _ = 1 to spins do
    if Sched.in_fiber () then Sched.step_point () else Domain.cpu_relax ()
  done;
  min max (2 * cap)
