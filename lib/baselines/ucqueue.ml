open Runtime

type op = Enq of int | Deq

type announce = { opid : int; op : op }

(* Immutable state; replaced wholesale by CAS. *)
type state = {
  front : int list;
  back : int list;
  applied : int array; (* last opid applied, per thread *)
  results : int array; (* result of that opid (dequeue: value or -1) *)
}

type t = {
  head : state Satomic.t;
  announces : announce option Satomic.t array;
  next_opid : int array;
  max_threads : int;
}

let create ?(max_threads = 64) () =
  {
    head =
      Satomic.make
        {
          front = [];
          back = [];
          applied = Array.make max_threads 0;
          results = Array.make max_threads (-1);
        };
    announces = Array.init max_threads (fun _ -> Satomic.make None);
    next_opid = Array.make max_threads 0;
    max_threads;
  }

let apply_op (front, back) op =
  match op with
  | Enq v -> ((front, v :: back), -1)
  | Deq -> (
      match front with
      | v :: rest -> ((rest, back), v)
      | [] -> (
          match List.rev back with
          | v :: rest -> ((rest, []), v)
          | [] -> (([], []), -1)))

(* Build the successor state: apply every pending announcement. *)
let transition t s =
  let applied = Array.copy s.applied in
  let results = Array.copy s.results in
  let q = ref (s.front, s.back) in
  for u = 0 to t.max_threads - 1 do
    match Satomic.get t.announces.(u) with
    | Some a when a.opid > applied.(u) ->
        let q', r = apply_op !q a.op in
        q := q';
        applied.(u) <- a.opid;
        results.(u) <- r
    | _ -> ()
  done;
  let front, back = !q in
  { front; back; applied; results }

let perform t op =
  let me = Sched.self () in
  let opid = t.next_opid.(me) + 1 in
  t.next_opid.(me) <- opid;
  Satomic.set t.announces.(me) (Some { opid; op });
  let rec loop () =
    let s = Satomic.get t.head in
    if s.applied.(me) >= opid then begin
      Satomic.set t.announces.(me) None;
      s.results.(me)
    end
    else begin
      let s' = transition t s in
      ignore (Satomic.compare_and_set t.head s s');
      loop ()
    end
  in
  loop ()

let enqueue t v =
  if v < 0 then invalid_arg "Ucqueue.enqueue: values must be non-negative";
  ignore (perform t (Enq v))

let dequeue t =
  let r = perform t Deq in
  if r < 0 then None else Some r
