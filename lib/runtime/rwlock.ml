(* Counter-based reader indicator.  The original RomulusLog uses a
   per-thread-slot "scalable" reader-writer lock to avoid reader contention
   on one cache line; our simulator does not price cache-line sharing, but
   it does price every shared access, so scanning N slots per write lock
   would bill writers N steps for nothing.  One ingress counter plus a
   writer flag is behaviourally equivalent here. *)

type t = { readers : int Satomic.t; writer : Spinlock.t }

let create ~max_threads:_ =
  { readers = Satomic.make 0; writer = Spinlock.create () }

let read_lock t =
  let rec loop cap =
    if Spinlock.holder t.writer <> -1 then loop (Backoff.once cap)
    else begin
      Satomic.incr t.readers;
      if Spinlock.holder t.writer <> -1 then begin
        (* writer arrived between check and increment: back out *)
        Satomic.decr t.readers;
        loop (Backoff.once cap)
      end
    end
  in
  loop 1

let read_unlock t = Satomic.decr t.readers

let write_lock t =
  Spinlock.acquire t.writer;
  let rec drain cap = if Satomic.get t.readers <> 0 then drain (Backoff.once cap) in
  drain 1

let write_unlock t = Spinlock.release t.writer

let reset t =
  Satomic.set t.readers 0;
  Spinlock.reset t.writer
