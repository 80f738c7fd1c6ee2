(* Cooperative cancellation of the long-running engines — the contract the
   service layer's deadlines rely on: a cancelled run never reports a
   verdict (it raises), and re-running uncancelled reproduces the
   deterministic seed result exactly. *)

open Simkit
open Efd

let check_bool = Alcotest.(check bool)

(* a hook that flips to true at its [n]-th poll and stays true *)
let cancel_after n =
  let polls = ref 0 in
  fun () ->
    incr polls;
    !polls >= n

let sa_build () =
  let mem = Memory.create () in
  let sa = Bglib.Safe_agreement.create mem ~n:2 in
  let c_code i () =
    Bglib.Safe_agreement.propose sa ~me:i (Value.int (100 + i));
    let rec resolve () =
      match Bglib.Safe_agreement.try_resolve sa with
      | Some v -> Runtime.Op.decide v
      | None -> resolve ()
    in
    resolve ()
  in
  Runtime.create
    {
      Runtime.n_c = 2;
      n_s = 1;
      memory = mem;
      pattern = Failure.failure_free 1;
      history = History.trivial;
      record_trace = false;
    }
    ~c_code
    ~s_code:(fun _ () -> ())

let sa_prop rt =
  match (Runtime.decision rt 0, Runtime.decision rt 1) with
  | Some a, Some b -> Value.equal a b
  | _ -> true

let exhaustive_verdict ?cancel ~depth () =
  Exhaustive.run ?cancel ~build:sa_build
    ~pids:[ Pid.c 0; Pid.c 1; Pid.s 0 ]
    ~depth ~prop:sa_prop ()
  |> fst

let verdict_eq a b =
  match (a, b) with
  | Exhaustive.Ok n, Exhaustive.Ok m -> n = m
  | Exhaustive.Counterexample c, Exhaustive.Counterexample c' -> c = c'
  | _ -> false

(* Cancelled => Exhaustive.Cancelled raised, no verdict escapes; not
   cancelled early enough => the full deterministic verdict. Either way a
   subsequent uncancelled run reproduces the baseline. *)
let prop_exhaustive_cancel =
  QCheck.Test.make ~name:"cancelled Exhaustive.run reports no verdict"
    ~count:25
    QCheck.(pair (int_range 5 8) (int_range 1 5_000))
    (fun (depth, fire_at) ->
      let baseline = exhaustive_verdict ~depth () in
      let observed =
        match exhaustive_verdict ~cancel:(cancel_after fire_at) ~depth () with
        | v -> `Verdict v
        | exception Exhaustive.Cancelled -> `Cancelled
      in
      let rerun = exhaustive_verdict ~depth () in
      (match observed with
      | `Cancelled -> true
      | `Verdict v -> verdict_eq v baseline)
      && verdict_eq rerun baseline)

let fuzz_fingerprint (r : Adversary.fuzz_result) =
  ( r.Adversary.f_trials,
    r.Adversary.f_witnesses,
    Option.map (fun w -> w.Adversary.w_seed) r.Adversary.f_witness,
    r.Adversary.f_trial )

let prop_fuzz_cancel =
  QCheck.Test.make ~name:"cancelled Adversary.fuzz reports no result"
    ~count:15
    QCheck.(pair (int_range 1 1_000) (int_range 1 200))
    (fun (seed, fire_at) ->
      let target = Adversary.strong_renaming_target ~n:4 ~j:3 in
      let go ?cancel () =
        Adversary.fuzz_target ?cancel ~seed ~budget:40 target ()
      in
      let baseline = fuzz_fingerprint (go ()) in
      let observed =
        match go ~cancel:(cancel_after fire_at) () with
        | r -> `Result (fuzz_fingerprint r)
        | exception Adversary.Cancelled -> `Cancelled
      in
      let rerun = fuzz_fingerprint (go ()) in
      (match observed with
      | `Cancelled -> true
      | `Result r -> r = baseline)
      && rerun = baseline)

(* the solve path: Run.execute polls its hook once per scheduling step *)
let solve_report ?cancel () =
  let task = Tasklib.Set_agreement.consensus ~n:3 () in
  let algo = Ksa.consensus () in
  let fd = Fdlib.Leader_fds.vector_omega_k ~k:1 () in
  let pattern = Failure.failure_free 3 in
  let input = Tasklib.Task.sample_input task (Random.State.make [| 7 |]) in
  Run.execute ?cancel ~task ~algo ~fd ~pattern ~input ~seed:7 ()

let solve_fingerprint r = Obs.Json.to_string (Run.report_json r)

let prop_run_cancel =
  QCheck.Test.make ~name:"cancelled Run.execute reports nothing" ~count:25
    QCheck.(int_range 1 2_000)
    (fun fire_at ->
      let baseline = solve_fingerprint (solve_report ()) in
      let observed =
        match solve_report ~cancel:(cancel_after fire_at) () with
        | r -> `Report (solve_fingerprint r)
        | exception Run.Cancelled -> `Cancelled
      in
      let rerun = solve_fingerprint (solve_report ()) in
      (match observed with
      | `Cancelled -> true
      | `Report r -> r = baseline)
      && rerun = baseline)

(* the hook is genuinely consulted: an immediate cancel always raises *)
let test_immediate_cancel () =
  check_bool "exhaustive immediate" true
    (match exhaustive_verdict ~cancel:(fun () -> true) ~depth:8 () with
    | _ -> false
    | exception Exhaustive.Cancelled -> true);
  check_bool "solve immediate" true
    (match solve_report ~cancel:(fun () -> true) () with
    | _ -> false
    | exception Run.Cancelled -> true);
  check_bool "fuzz immediate" true
    (match
       Adversary.fuzz_target
         ~cancel:(fun () -> true)
         ~seed:1 ~budget:50
         (Adversary.consensus_reduction_target ~n:3)
         ()
     with
    | _ -> false
    | exception Adversary.Cancelled -> true)

(* parallel runs honour cancellation too: every frontier job (the unit a
   checkpointed run or a fleet worker executes) and the fuzz domains *)
let test_parallel_cancel () =
  let pids = [ Pid.c 0; Pid.c 1; Pid.s 0 ] in
  let fr =
    Exhaustive.split ~build:sa_build ~pids ~depth:8 ~split_depth:2
      ~prop:sa_prop ()
  in
  check_bool "split emits jobs" true (fr.Exhaustive.fr_jobs <> []);
  check_bool "every exhaustive frontier job" true
    (List.for_all
       (fun sj ->
         match
           Test_exhaustive.run_job
             ~cancel:(fun () -> true)
             ~build:sa_build ~pids ~depth:8 ~prop:sa_prop sj
         with
         | _ -> false
         | exception Exhaustive.Cancelled -> true)
       fr.Exhaustive.fr_jobs);
  check_bool "fuzz domains=2" true
    (match
       Adversary.fuzz_target ~domains:2
         ~cancel:(fun () -> true)
         ~seed:1 ~budget:50
         (Adversary.strong_renaming_target ~n:4 ~j:3)
         ()
     with
    | _ -> false
    | exception Adversary.Cancelled -> true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exhaustive_cancel;
    QCheck_alcotest.to_alcotest prop_fuzz_cancel;
    QCheck_alcotest.to_alcotest prop_run_cancel;
    Alcotest.test_case "immediate cancel raises" `Quick test_immediate_cancel;
    Alcotest.test_case "parallel engines honour cancel" `Quick
      test_parallel_cancel;
  ]
