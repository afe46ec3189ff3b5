(* Tests for hazard eras and hazard pointers. *)

open Runtime
module He = Reclaim.Hazard_eras
module Hp = Reclaim.Hazard_pointers

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

type obj = { id : int; mutable freed : bool }

let test_he_protected_not_freed () =
  let he = He.create ~max_threads:2 ~free:(fun o -> o.freed <- true) () in
  let o = { id = 1; freed = false } in
  let protector () =
    let e = He.protect_current he in
    ignore e;
    for _ = 1 to 50 do
      Sched.step_point ();
      if o.freed then Alcotest.fail "freed while protected"
    done;
    He.clear he
  in
  let retirer () =
    for _ = 1 to 5 do
      Sched.step_point ()
    done;
    ignore (He.new_era he);
    He.retire he ~birth:1 o
  in
  ignore (Sched.run [| protector; retirer |]);
  He.flush he;
  check bool "freed after clear" true o.freed

let test_he_unprotected_freed_promptly () =
  let he = He.create ~scan_threshold:1 ~max_threads:1 ~free:(fun o -> o.freed <- true) () in
  let o = { id = 2; freed = false } in
  let body () =
    ignore (He.new_era he);
    He.retire he ~birth:1 o
  in
  ignore (Sched.run [| body |]);
  check bool "freed at retire-time scan" true o.freed

let test_he_era_window () =
  (* An object alive [3,5] must not be freed while a thread publishes 4. *)
  let he = He.create ~scan_threshold:1 ~max_threads:2 ~free:(fun o -> o.freed <- true) () in
  let o = { id = 3; freed = false } in
  let t0 () =
    He.set_era he 4;
    Sched.step_point ();
    Sched.step_point ();
    Sched.step_point ();
    check bool "not freed inside window" false o.freed;
    He.clear he
  in
  let t1 () =
    Sched.step_point ();
    He.retire_at he ~birth:3 ~del:5 o
  in
  ignore (Sched.run [| t0; t1 |]);
  He.flush he;
  check bool "freed once window closed" true o.freed

let test_he_disjoint_window_freed () =
  let he = He.create ~scan_threshold:1 ~max_threads:2 ~free:(fun o -> o.freed <- true) () in
  let o = { id = 4; freed = false } in
  let t0 () =
    He.set_era he 10;
    (* outside [3,5] *)
    Sched.step_point ();
    Sched.step_point ()
  in
  let t1 () =
    Sched.step_point ();
    He.retire_at he ~birth:3 ~del:5 o
  in
  ignore (Sched.run [| t0; t1 |]);
  check bool "freed despite other reader (era disjoint)" true o.freed

let test_he_pending_count () =
  let he = He.create ~scan_threshold:100 ~max_threads:1 ~free:(fun _ -> ()) () in
  let body () =
    He.retire he ~birth:1 { id = 0; freed = false };
    He.retire he ~birth:1 { id = 1; freed = false }
  in
  ignore (Sched.run [| body |]);
  check int "pending" 2 (He.pending he);
  He.flush he;
  check int "drained" 0 (He.pending he)

(* A scan reads each era slot once, not once per limbo record: eight
   records over eight slots cost eight era reads (scheduling steps), and
   a record is still kept alive by an era inside its window. *)
let test_he_scan_reads_each_slot_once () =
  let he = He.create ~max_threads:8 ~free:(fun o -> o.freed <- true) () in
  let objs = Array.init 8 (fun id -> { id; freed = false }) in
  let body () =
    Array.iteri (fun i o -> He.retire_at he ~birth:(i + 1) ~del:(i + 1) o) objs
  in
  let steps f = Sched.total_steps (Sched.run [| f |]) in
  ignore (steps (fun () -> He.set_era he 3));
  check int "one scan of 8 slots" 8 (steps body - steps ignore);
  check int "one record protected" 1 (He.pending he);
  check bool "the protected record survives" false objs.(2).freed

let test_hp_protect_blocks_free () =
  let hp = Hp.create ~scan_threshold:1 ~max_threads:2 ~free:(fun o -> o.freed <- true) () in
  let shared = Satomic.make (Some { id = 5; freed = false }) in
  let failure = ref None in
  let reader () =
    match Hp.protect hp ~slot:0 ~read:(fun () -> Satomic.get shared) with
    | None -> ()
    | Some o ->
        for _ = 1 to 30 do
          Sched.step_point ();
          if o.freed then failure := Some "freed under hazard"
        done;
        Hp.clear hp ~slot:0
  in
  let retirer () =
    for _ = 1 to 3 do
      Sched.step_point ()
    done;
    match Satomic.exchange shared None with
    | Some o -> Hp.retire hp o
    | None -> ()
  in
  ignore (Sched.run [| reader; retirer |]);
  (match !failure with Some m -> Alcotest.fail m | None -> ());
  Hp.flush hp;
  check int "nothing pending at the end" 0 (Hp.pending hp)

let test_hp_protect_rereads () =
  (* If the pointer changes while being protected, protect must land on a
     stable snapshot. *)
  let hp = Hp.create ~max_threads:2 ~free:(fun _ -> ()) () in
  let a = { id = 10; freed = false } and b = { id = 11; freed = false } in
  let shared = Satomic.make (Some a) in
  let got = ref None in
  let reader () = got := Hp.protect hp ~slot:0 ~read:(fun () -> Satomic.get shared) in
  let writer () = Satomic.set shared (Some b) in
  ignore (Sched.run ~seed:9 [| reader; writer |]);
  match !got with
  | Some o -> check bool "stable object" true (o == a || o == b)
  | None -> Alcotest.fail "protect returned None for non-null pointer"

let test_hp_retire_unprotected () =
  let hp = Hp.create ~scan_threshold:1 ~max_threads:1 ~free:(fun o -> o.freed <- true) () in
  let o = { id = 12; freed = false } in
  let body () = Hp.retire hp o in
  ignore (Sched.run [| body |]);
  check bool "freed immediately" true o.freed

let () =
  Alcotest.run "reclaim"
    [
      ( "hazard-eras",
        [
          Alcotest.test_case "protected not freed" `Quick test_he_protected_not_freed;
          Alcotest.test_case "unprotected freed" `Quick test_he_unprotected_freed_promptly;
          Alcotest.test_case "era window" `Quick test_he_era_window;
          Alcotest.test_case "disjoint window" `Quick test_he_disjoint_window_freed;
          Alcotest.test_case "pending count" `Quick test_he_pending_count;
          Alcotest.test_case "scan reads each slot once" `Quick
            test_he_scan_reads_each_slot_once;
        ] );
      ( "hazard-pointers",
        [
          Alcotest.test_case "protect blocks free" `Quick test_hp_protect_blocks_free;
          Alcotest.test_case "protect re-reads" `Quick test_hp_protect_rereads;
          Alcotest.test_case "retire unprotected" `Quick test_hp_retire_unprotected;
        ] );
    ]
