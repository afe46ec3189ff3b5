(* A schedule that parks committers, for tests that need helping.

   An LF claim loser waits for the winning commit's request to close for
   up to [claim_budget] (64) polls before it helps, so under a fair
   schedule a short commit closes before anyone helps it.  [pick] holds
   the owner of every open commit back for [park] steps after the
   commit is first seen open, which is longer than those polls when
   [park] is a few hundred steps per waiting fiber. *)

(* [pick] for [Sched.run_controlled] over instance [t]: round-robin from
   the last stepped fiber over the runnable fibers, skipping the owner of
   an open commit for [park] steps unless it is the only one runnable.
   Step-free: it reads curTx and the request through [curtx_info]. *)
let pick ~park t =
  let opened = ref 0 and since = ref 0 in
  fun ~step ~enabled ~last ->
    let seq, owner, open_ = Onefile.Onefile_lf.curtx_info t in
    if open_ && seq <> !opened then begin
      opened := seq;
      since := step
    end;
    let free =
      List.filter
        (fun f -> not (open_ && f = owner && step - !since < park))
        (Array.to_list enabled)
    in
    match free with
    | [] -> enabled.(0)
    | _ -> (
        match List.find_opt (fun f -> f > last) free with
        | Some f -> f
        | None -> List.hd free)
