(* Model-checking the agreement primitives: every schedule up to a depth,
   not just sampled ones. *)

open Simkit
open Bglib

let check_bool = Alcotest.(check bool)

let mk ~n_c mem c_code =
  Runtime.create
    {
      Runtime.n_c;
      n_s = 1;
      memory = mem;
      pattern = Failure.failure_free 1;
      history = History.trivial;
      record_trace = false;
    }
    ~c_code
    ~s_code:(fun _ () -> ())

(* --- safe agreement: agreement + validity over ALL schedules --- *)

let test_safe_agreement_exhaustive () =
  let build () =
    let mem = Memory.create () in
    let sa = Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    mk ~n_c:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b ->
      Value.equal a b && (Value.to_int a = 100 || Value.to_int a = 101)
    | Some a, None | None, Some a ->
      let x = Value.to_int a in
      x = 100 || x = 101
    | None, None -> true
  in
  match
    Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1 ] ~depth:11 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 1000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "safe agreement violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- commit-adopt: if anyone commits, everyone's value matches --- *)

let test_commit_adopt_exhaustive () =
  let outcomes = Array.make 2 None in
  let build () =
    outcomes.(0) <- None;
    outcomes.(1) <- None;
    let mem = Memory.create () in
    let ca = Commit_adopt.create mem ~n:2 in
    let c_code i () =
      let o = Commit_adopt.run ca ~me:i (Value.int i) in
      outcomes.(i) <- Some o;
      Runtime.Op.decide (Commit_adopt.outcome_value o)
    in
    mk ~n_c:2 mem c_code
  in
  let prop _rt =
    match (outcomes.(0), outcomes.(1)) with
    | Some o1, Some o2 ->
      let committed =
        List.filter_map
          (function Commit_adopt.Commit v -> Some v | _ -> None)
          [ o1; o2 ]
      in
      List.for_all
        (fun c ->
          Value.equal c (Commit_adopt.outcome_value o1)
          && Value.equal c (Commit_adopt.outcome_value o2))
        committed
    | _ -> true
  in
  match
    Exhaustive.check_final ~build ~pids:[ Pid.c 0; Pid.c 1 ] ~depth:12 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 1000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "commit-adopt violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- adoption set agreement: 2 deciders, 2-SA trivially; with 3 procs at
       full concurrency k=3 values allowed, but never a non-input --- *)

let test_adoption_validity_exhaustive () =
  let build () =
    let mem = Memory.create () in
    let input_regs = Memory.alloc mem 3 in
    let ctx = { Efd.Algorithm.mem; n_c = 3; n_s = 1; input_regs } in
    let inst = (Efd.Kconc_tasks.adoption ()).Efd.Algorithm.make ctx in
    let c_code i () =
      Runtime.Op.write input_regs.(i) (Value.int i);
      inst.Efd.Algorithm.c_run i (Value.int i)
    in
    mk ~n_c:3 mem c_code
  in
  let prop rt =
    List.for_all
      (fun i ->
        match Runtime.decision rt i with
        | None -> true
        | Some v ->
          let x = Value.to_int v in
          x >= 0 && x < 3)
      [ 0; 1; 2 ]
  in
  match
    Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1; Pid.c 2 ] ~depth:8 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 5000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "adoption validity violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- the checker finds real bugs: a deliberately broken mutex-ish
       algorithm (decide your register's final value; races lose) --- *)

let test_exhaustive_finds_violations () =
  let build () =
    let mem = Memory.create () in
    let r = Memory.alloc1 mem () in
    let c_code i () =
      Runtime.Op.write r (Value.int i);
      (* unsafe read-back: both processes can decide they "own" r *)
      let v = Runtime.Op.read r in
      Runtime.Op.decide v
    in
    mk ~n_c:2 mem c_code
  in
  (* claim (falsely) that the two decisions always differ *)
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> not (Value.equal a b)
    | _ -> true
  in
  match Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1 ] ~depth:6 ~prop with
  | Exhaustive.Ok _ -> Alcotest.fail "expected a counterexample"
  | Exhaustive.Counterexample cex ->
    check_bool "counterexample found" true (List.length cex <= 6)

(* --- splitter: at most one Stop, over all schedules of 3 entrants --- *)

let test_splitter_exhaustive () =
  let outcomes = Array.make 3 None in
  let build () =
    Array.fill outcomes 0 3 None;
    let mem = Memory.create () in
    let sp = Efd.Splitter.create mem in
    let c_code i () =
      outcomes.(i) <- Some (Efd.Splitter.enter sp ~me:i);
      Runtime.Op.decide Value.unit
    in
    mk ~n_c:3 mem c_code
  in
  let prop _rt =
    let stops =
      Array.to_list outcomes
      |> List.filter (fun o -> o = Some Efd.Splitter.Stop)
    in
    List.length stops <= 1
  in
  match
    Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1; Pid.c 2 ] ~depth:9 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 10_000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "splitter violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- differential: incremental engine (+/- memo, frontier split) must agree
       with the replay-from-scratch baseline, verdict and count alike --- *)

let mk_ns ~n_c ~n_s mem c_code =
  Runtime.create
    {
      Runtime.n_c;
      n_s;
      memory = mem;
      pattern = Failure.failure_free (max 1 n_s);
      history = History.trivial;
      record_trace = false;
    }
    ~c_code
    ~s_code:(fun _ () -> ())

let race_build ~n_c ~n_s () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let c_code i () =
    Runtime.Op.write r (Value.int i);
    let v = Runtime.Op.read r in
    Runtime.Op.decide v
  in
  mk_ns ~n_c ~n_s mem c_code

let race_prop_valid ~n_c rt =
  List.for_all
    (fun i ->
      match Runtime.decision rt i with
      | None -> true
      | Some v -> Value.to_int v >= 0 && Value.to_int v < n_c)
    (List.init n_c Fun.id)

(* the deliberately false claim: the two decisions always differ *)
let race_prop_false rt =
  match (Runtime.decision rt 0, Runtime.decision rt 1) with
  | Some a, Some b -> not (Value.equal a b)
  | _ -> true

let verdict_str = function
  | Exhaustive.Ok n -> Fmt.str "Ok %d" n
  | Exhaustive.Counterexample cex ->
    Fmt.str "Counterexample [%a]" Fmt.(list ~sep:(any " ") Pid.pp) cex

let test_engines_agree () =
  List.iter
    (fun (n_c, n_s, depth) ->
      List.iter
        (fun mode ->
          let build = race_build ~n_c ~n_s in
          let prop = race_prop_valid ~n_c in
          let pids = Pid.all ~n_c ~n_s in
          let label =
            Fmt.str "n_c=%d n_s=%d depth=%d %s" n_c n_s depth
              (match mode with Exhaustive.Every -> "every" | Final -> "final")
          in
          let oracle, _ = Exhaustive.run_replay ~mode ~build ~pids ~depth ~prop () in
          List.iter
            (fun (variant, memo) ->
              let v, _ = Exhaustive.run ~memo ~mode ~build ~pids ~depth ~prop () in
              Alcotest.(check string)
                (label ^ " " ^ variant)
                (verdict_str oracle) (verdict_str v))
            [ ("incremental", false); ("incremental+memo", true) ])
        [ Exhaustive.Every; Exhaustive.Final ])
    [ (2, 1, 6); (3, 1, 5); (2, 2, 4); (3, 2, 4) ]

let test_engines_agree_on_violation () =
  let build = race_build ~n_c:2 ~n_s:1 in
  let pids = Pid.all_c 2 in
  let oracle, _ =
    Exhaustive.run_replay ~build ~pids ~depth:6 ~prop:race_prop_false ()
  in
  List.iter
    (fun memo ->
      let v, _ =
        Exhaustive.run ~memo ~build ~pids ~depth:6 ~prop:race_prop_false ()
      in
      Alcotest.(check string) "same counterexample" (verdict_str oracle)
        (verdict_str v))
    [ false; true ]

(* One frontier job through its own [run_subtrees] call, hence its own
   memo table — how a fleet worker answers a [subtree] request. *)
let run_job ?memo ?mode ?reduce ?cancel ~build ~pids ~depth ~prop sj =
  let result = ref None in
  Exhaustive.run_subtrees ?memo ?mode ?reduce ?cancel ~build ~pids ~depth
    ~prop [ sj ] (fun _ r -> result := Some r);
  Option.get !result

(* The frontier pipeline, in-process: split at [split_depth], run every job
   through [run_job], fold the merge monoids over the results in [order],
   starting from the splitter's own credit and counterexample. This is how
   the search is sharded across workers, so every sharded executor
   (checkpointed runs, TCP fleets) must agree with it. *)
let frontier_run ?(memo = true) ?reduce ?(mode = Exhaustive.Every)
    ?(order = Fun.id) ~build ~pids ~depth ~split_depth ~prop () =
  let fr =
    Exhaustive.split ~mode ?reduce ~build ~pids ~depth ~split_depth ~prop ()
  in
  let results =
    List.map
      (fun sj ->
        run_job ~memo ~mode ?reduce ~build ~pids ~depth ~prop sj)
      fr.Exhaustive.fr_jobs
  in
  let verdict =
    List.fold_left
      (fun acc (v, _) -> Exhaustive.merge_verdicts ~pids acc v)
      (Exhaustive.Ok fr.Exhaustive.fr_pruned)
      (order results)
  in
  let verdict =
    match fr.Exhaustive.fr_cex with
    | Some cex ->
      Exhaustive.merge_verdicts ~pids verdict (Exhaustive.Counterexample cex)
    | None -> verdict
  in
  let stats =
    List.fold_left
      (fun acc (_, s) -> Exhaustive.merge_stats acc s)
      fr.Exhaustive.fr_stats (order results)
  in
  (verdict, stats, List.length fr.Exhaustive.fr_jobs)

(* sharding the search into frontier jobs changes nothing: for a holding
   property and a violated one, at a shallow, a middle and the deepest
   frontier (where the split itself meets the violation), the fold equals
   [run] and the [run_replay] oracle — count and lex-least counterexample *)
let test_parallel_engine_agrees () =
  let agree ~label ~build ~pids ~prop =
    let oracle, _ = Exhaustive.run_replay ~build ~pids ~depth:6 ~prop () in
    let seq, _ = Exhaustive.run ~build ~pids ~depth:6 ~prop () in
    Alcotest.(check string) (label ^ ": run = run_replay") (verdict_str oracle)
      (verdict_str seq);
    List.iter
      (fun split_depth ->
        let v, _, _ =
          frontier_run ~order:List.rev ~build ~pids ~depth:6 ~split_depth
            ~prop ()
        in
        Alcotest.(check string)
          (Fmt.str "%s: frontier fold sd=%d = run" label split_depth)
          (verdict_str seq) (verdict_str v))
      [ 1; 3; 5 ];
    seq
  in
  ignore
    (agree ~label:"count" ~build:(race_build ~n_c:3 ~n_s:1)
       ~pids:(Pid.all ~n_c:3 ~n_s:1) ~prop:(race_prop_valid ~n_c:3));
  match
    agree ~label:"violation" ~build:(race_build ~n_c:2 ~n_s:1)
      ~pids:(Pid.all_c 2) ~prop:race_prop_false
  with
  | Exhaustive.Ok _ -> Alcotest.fail "expected a counterexample"
  | Exhaustive.Counterexample cex ->
    check_bool "the counterexample reproduces the violation" false
      (Exhaustive.replay_ok ~build:(race_build ~n_c:2 ~n_s:1)
         ~prop:race_prop_false cex)

(* --- counts never wrap: 3^41 (like 3^40) exceeds max_int, so every entry
       point refuses before building a single runtime; 3^39 still fits --- *)

let test_count_overflow_rejected () =
  let built = ref 0 in
  let build () =
    incr built;
    race_build ~n_c:2 ~n_s:1 ()
  in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let prop = race_prop_valid ~n_c:2 in
  let reduce = { Exhaustive.symmetry = [] } in
  let job =
    { Exhaustive.sj_id = 0; sj_prefix = [ List.hd pids ]; sj_sleep = [];
      sj_factor = 1; sj_used = [] }
  in
  let rejected name f =
    check_bool (name ^ " rejects 3^41") true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejected "run" (fun () -> Exhaustive.run ~build ~pids ~depth:41 ~prop ());
  rejected "run reduced" (fun () ->
      Exhaustive.run ~reduce ~build ~pids ~depth:41 ~prop ());
  rejected "split" (fun () ->
      Exhaustive.split ~build ~pids ~depth:41 ~split_depth:2 ~prop ());
  rejected "run_subtrees" (fun () ->
      Exhaustive.run_subtrees ~build ~pids ~depth:41 ~prop [ job ]
        (fun _ _ -> ()));
  rejected "run_replay" (fun () ->
      Exhaustive.run_replay ~build ~pids ~depth:41 ~prop ());
  Alcotest.(check int) "no runtime built" 0 !built;
  check_bool "3^39 is accepted" true
    (match Exhaustive.split ~build ~pids ~depth:39 ~split_depth:1 ~prop () with
    | fr -> List.length fr.Exhaustive.fr_jobs = 3
    | exception Invalid_argument _ -> false)

(* --- determinism: a reported counterexample replays to the same violation,
       and re-running the checker reports the same schedule --- *)

let test_counterexample_replays () =
  let build = race_build ~n_c:2 ~n_s:1 in
  let pids = Pid.all_c 2 in
  match Exhaustive.run ~build ~pids ~depth:6 ~prop:race_prop_false () with
  | Exhaustive.Ok _, _ -> Alcotest.fail "expected a counterexample"
  | Exhaustive.Counterexample cex, _ ->
    check_bool "replaying the counterexample violates the property" false
      (Exhaustive.replay_ok ~build ~prop:race_prop_false cex);
    (match Exhaustive.run ~build ~pids ~depth:6 ~prop:race_prop_false () with
    | Exhaustive.Counterexample cex', _ ->
      Alcotest.(check string) "second run reports the same schedule"
        (verdict_str (Exhaustive.Counterexample cex))
        (verdict_str (Exhaustive.Counterexample cex'))
    | Exhaustive.Ok _, _ -> Alcotest.fail "second run found no counterexample")

(* --- the acceptance bar: on the fixed seed config (n_c=2, n_s=2, depth 8,
       every mode) the incremental engine executes >= 3x fewer steps than the
       replay baseline, at identical verdict and schedule count --- *)

let test_incremental_speedup () =
  let build () =
    let mem = Memory.create () in
    let sa = Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    mk_ns ~n_c:2 ~n_s:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  let pids = Pid.all ~n_c:2 ~n_s:2 in
  let base_v, base_st = Exhaustive.run_replay ~build ~pids ~depth:8 ~prop () in
  let inc_v, inc_st = Exhaustive.run ~build ~pids ~depth:8 ~prop () in
  Alcotest.(check string) "identical verdict and count" (verdict_str base_v)
    (verdict_str inc_v);
  check_bool
    (Fmt.str "steps %d >= 3x steps %d" base_st.Exhaustive.steps_executed
       inc_st.Exhaustive.steps_executed)
    true
    (base_st.Exhaustive.steps_executed
    >= 3 * inc_st.Exhaustive.steps_executed);
  check_bool "memo observed hits" true (inc_st.Exhaustive.memo_hits > 0)

(* --- and the same bar for the reduction layers: on the same config,
       sleep sets + symmetry must execute >= 3x fewer steps than the
       memoized engine they sit on, at identical verdict and count --- *)

let test_reduction_speedup () =
  let build () =
    let mem = Memory.create () in
    let sa = Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    mk_ns ~n_c:2 ~n_s:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  let pids = Pid.all ~n_c:2 ~n_s:2 in
  let memo_v, memo_st = Exhaustive.run ~build ~pids ~depth:8 ~prop () in
  let red_v, red_st =
    Exhaustive.run
      ~reduce:{ Exhaustive.symmetry = [ Pid.all_s 2 ] }
      ~build ~pids ~depth:8 ~prop ()
  in
  Alcotest.(check string) "identical verdict and count" (verdict_str memo_v)
    (verdict_str red_v);
  check_bool
    (Fmt.str "steps %d >= 3x steps %d" memo_st.Exhaustive.steps_executed
       red_st.Exhaustive.steps_executed)
    true
    (memo_st.Exhaustive.steps_executed
    >= 3 * red_st.Exhaustive.steps_executed);
  check_bool "sleep pruning observed" true
    (red_st.Exhaustive.sleep_pruned > 0);
  check_bool "orbit collapsing observed" true
    (red_st.Exhaustive.orbits_collapsed > 0)

let suite =
  [
    Alcotest.test_case "safe agreement (all schedules)" `Slow
      test_safe_agreement_exhaustive;
    Alcotest.test_case "commit-adopt (all schedules)" `Slow
      test_commit_adopt_exhaustive;
    Alcotest.test_case "adoption validity (all schedules)" `Slow
      test_adoption_validity_exhaustive;
    Alcotest.test_case "checker finds violations" `Quick
      test_exhaustive_finds_violations;
    Alcotest.test_case "splitter (all schedules)" `Slow test_splitter_exhaustive;
    Alcotest.test_case "engines agree (differential grid)" `Quick
      test_engines_agree;
    Alcotest.test_case "engines agree on violations" `Quick
      test_engines_agree_on_violation;
    Alcotest.test_case "parallel sharding agrees" `Quick
      test_parallel_engine_agrees;
    Alcotest.test_case "schedule-count overflow rejected" `Quick
      test_count_overflow_rejected;
    Alcotest.test_case "counterexamples replay deterministically" `Quick
      test_counterexample_replays;
    Alcotest.test_case "incremental engine >= 3x fewer steps" `Quick
      test_incremental_speedup;
    Alcotest.test_case "reduction >= 3x fewer steps than memo" `Quick
      test_reduction_speedup;
  ]
