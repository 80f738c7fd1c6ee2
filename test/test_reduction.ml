(* The reduction layers of the exhaustive checker, proven differentially:
   sleep-set partial-order reduction and symmetry reduction must change how
   much work the checker does, and nothing else — same verdict, same exact
   schedule count, same counterexample as the unreduced engines, whole or
   sharded into frontier jobs. Plus direct soundness checks on the two
   ingredients: the independence relation (commuting adjacent independent
   steps preserves final digests) and the orbit accounting (canonical
   representatives weighted by orbit size partition the full schedule
   space). *)

open Simkit

let check_bool = Alcotest.(check bool)
let verdict_str = Test_exhaustive.verdict_str
let mk_ns = Test_exhaustive.mk_ns

let s_class n_s = [ Pid.all_s n_s ]

(* --- the differential battery --- *)

let assert_engines_agree ~label ~build ~pids ~depth ~mode ~prop ~reduce =
  let oracle, _ = Exhaustive.run_replay ~mode ~build ~pids ~depth ~prop () in
  let fold ?reduce () =
    let v, st, _ =
      Test_exhaustive.frontier_run ?reduce ~order:List.rev ~mode ~build ~pids
        ~depth ~split_depth:2 ~prop ()
    in
    (v, st)
  in
  List.iter
    (fun (variant, reduced, run) ->
      let v, st = run () in
      Alcotest.(check string) (label ^ " " ^ variant) (verdict_str oracle)
        (verdict_str v);
      (* a reduced search keeps no memo, whole or split into jobs *)
      if reduced then
        Alcotest.(check int) (label ^ " " ^ variant ^ " memo hits") 0
          st.Exhaustive.memo_hits)
    [
      ( "memo",
        false,
        fun () -> Exhaustive.run ~mode ~build ~pids ~depth ~prop () );
      ( "reduced",
        true,
        fun () -> Exhaustive.run ~reduce ~mode ~build ~pids ~depth ~prop () );
      ("memo frontier fold", false, fun () -> fold ?reduce:None ());
      ("reduced frontier fold", true, fun () -> fold ~reduce ());
    ]

let test_differential_safe_agreement () =
  let build () =
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
    mk_ns ~n_c:2 ~n_s:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  assert_engines_agree ~label:"safe-agreement" ~build
    ~pids:(Pid.all ~n_c:2 ~n_s:2) ~depth:6 ~mode:Exhaustive.Every ~prop
    ~reduce:{ Exhaustive.symmetry = s_class 2 }

let test_differential_commit_adopt () =
  (* outcome encoded into the decision value (2v + commit-bit) so the
     property is a pure state function. *)
  let build () =
    let mem = Memory.create () in
    let ca = Bglib.Commit_adopt.create mem ~n:2 in
    let c_code i () =
      let o = Bglib.Commit_adopt.run ca ~me:i (Value.int i) in
      let v = Value.to_int (Bglib.Commit_adopt.outcome_value o) in
      let bit = match o with Bglib.Commit_adopt.Commit _ -> 1 | _ -> 0 in
      Runtime.Op.decide (Value.int ((2 * v) + bit))
    in
    mk_ns ~n_c:2 ~n_s:1 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b ->
      let a = Value.to_int a and b = Value.to_int b in
      if a land 1 = 1 || b land 1 = 1 then a asr 1 = b asr 1 else true
    | _ -> true
  in
  assert_engines_agree ~label:"commit-adopt" ~build ~pids:(Pid.all_c 2)
    ~depth:7 ~mode:Exhaustive.Final ~prop
    ~reduce:{ Exhaustive.symmetry = [] }

let test_differential_trivial_nsa () =
  let build () =
    let mem = Memory.create () in
    let input_regs = Memory.alloc mem 2 in
    let ctx = { Efd.Algorithm.mem; n_c = 2; n_s = 2; input_regs } in
    let inst = (Efd.Trivial_nsa.make ()).Efd.Algorithm.make ctx in
    let c_code i () =
      Runtime.Op.write input_regs.(i) (Value.int (1 + i));
      inst.Efd.Algorithm.c_run i (Value.int (1 + i))
    in
    let s_code i () = inst.Efd.Algorithm.s_run i in
    Runtime.create
      {
        Runtime.n_c = 2;
        n_s = 2;
        memory = mem;
        pattern = Failure.failure_free 2;
        history = History.trivial;
        record_trace = false;
      }
      ~c_code ~s_code
  in
  let prop rt =
    List.for_all
      (fun i ->
        match Runtime.decision rt i with
        | None -> true
        | Some v -> Value.to_int v = 1 || Value.to_int v = 2)
      [ 0; 1 ]
  in
  assert_engines_agree ~label:"trivial-nsa" ~build
    ~pids:(Pid.all ~n_c:2 ~n_s:2) ~depth:6 ~mode:Exhaustive.Every ~prop
    ~reduce:{ Exhaustive.symmetry = s_class 2 }

let test_differential_ct_consensus () =
  (* FD queries and S-code that distinguishes indices: no symmetry class
     applies and queries are never commuted ([F_timedep]) — the battery
     checks sleep pruning stays sound in the presence of advice. *)
  let pattern = Failure.failure_free 2 in
  let history =
    Fdlib.Fd.draw (Fdlib.Classic.eventually_strong ~max_stab:4 ()) pattern
      ~seed:1
  in
  let build () =
    let mem = Memory.create () in
    let input_regs = Memory.alloc mem 2 in
    let ctx = { Efd.Algorithm.mem; n_c = 2; n_s = 2; input_regs } in
    let inst = (Efd.Ct_consensus.make ()).Efd.Algorithm.make ctx in
    let c_code i () =
      Runtime.Op.write input_regs.(i) (Value.int (10 + i));
      inst.Efd.Algorithm.c_run i (Value.int (10 + i))
    in
    let s_code i () = inst.Efd.Algorithm.s_run i in
    Runtime.create
      {
        Runtime.n_c = 2;
        n_s = 2;
        memory = mem;
        pattern;
        history;
        record_trace = false;
      }
      ~c_code ~s_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  assert_engines_agree ~label:"ct-consensus" ~build
    ~pids:(Pid.all ~n_c:2 ~n_s:2) ~depth:5 ~mode:Exhaustive.Every ~prop
    ~reduce:{ Exhaustive.symmetry = [] }

let test_differential_violation () =
  (* Seeded violation: the race config under the deliberately false claim.
     All three engines must report the identical (lex-least) schedule. *)
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:1 in
  let prop = Test_exhaustive.race_prop_false in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let reduce = { Exhaustive.symmetry = [] } in
  let oracle, _ = Exhaustive.run_replay ~build ~pids ~depth:6 ~prop () in
  (match oracle with
  | Exhaustive.Counterexample _ -> ()
  | Exhaustive.Ok _ -> Alcotest.fail "expected a counterexample");
  List.iter
    (fun (variant, run) ->
      let v, _ = run () in
      Alcotest.(check string) ("violation " ^ variant) (verdict_str oracle)
        (verdict_str v))
    [
      ("memo", fun () -> Exhaustive.run ~build ~pids ~depth:6 ~prop ());
      ( "reduced",
        fun () -> Exhaustive.run ~reduce ~build ~pids ~depth:6 ~prop () );
    ];
  (* sharded into frontier jobs: the same lex-least counterexample, and it
     replays to the violation *)
  match
    Test_exhaustive.frontier_run ~reduce ~order:List.rev ~build ~pids ~depth:6
      ~split_depth:3 ~prop ()
  with
  | (Exhaustive.Ok _ as v), _, _ ->
    Alcotest.failf "expected a counterexample, got %s" (verdict_str v)
  | (Exhaustive.Counterexample cex as v), _, _ ->
    Alcotest.(check string) "violation reduced frontier fold"
      (verdict_str oracle) (verdict_str v);
    check_bool "sharded reduced counterexample reproduces the violation"
      false
      (Exhaustive.replay_ok ~build ~prop cex)

(* --- independence soundness: commuting adjacent independent steps
       preserves the final digest --- *)

let indep_build ~n_c ~n_s () =
  let mem = Memory.create () in
  let regs = Memory.alloc mem n_c in
  let c_code i () =
    Runtime.Op.write regs.(i) (Value.int i);
    let v = Runtime.Op.read regs.((i + 1) mod n_c) in
    Runtime.Op.decide v
  in
  mk_ns ~n_c ~n_s mem c_code

let run_digest build sched =
  let rt = build () in
  List.iter (Runtime.step rt) sched;
  let d = Runtime.digest rt in
  Runtime.destroy rt;
  d

let swap_at k l =
  let rec go k = function
    | a :: b :: rest when k = 0 -> b :: a :: rest
    | a :: rest -> a :: go (k - 1) rest
    | [] -> []
  in
  go k l

let prop_independent_swap =
  QCheck.Test.make
    ~name:"swapping adjacent independent steps preserves the final digest"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 10) (int_range 0 3))
        (int_range 0 1000))
    (fun (idxs, at) ->
      let pids = Array.of_list (Pid.all ~n_c:3 ~n_s:1) in
      let build = indep_build ~n_c:3 ~n_s:1 in
      let sched = List.map (fun i -> pids.(i)) idxs in
      let at = at mod (List.length sched - 1) in
      let p = List.nth sched at and q = List.nth sched (at + 1) in
      let prefix = List.filteri (fun i _ -> i < at) sched in
      (* independence judged at the state where the pair is about to run *)
      let rt = build () in
      List.iter (Runtime.step rt) prefix;
      let indep = Runtime.independent rt p q in
      Runtime.destroy rt;
      if not indep then QCheck.assume_fail ()
      else run_digest build sched = run_digest build (swap_at at sched))

let test_dependent_swap_differs () =
  (* Negative control: two writes to the same register are dependent, and
     swapping them is visible in the final state. *)
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:1 in
  let rt = build () in
  check_bool "write/write same register is dependent" false
    (Runtime.independent rt (Pid.c 0) (Pid.c 1));
  check_bool "a pid is never independent of itself" false
    (Runtime.independent rt (Pid.c 0) (Pid.c 0));
  Runtime.destroy rt;
  check_bool "dependent swap reaches a different state" false
    (run_digest build [ Pid.c 0; Pid.c 1 ]
    = run_digest build [ Pid.c 1; Pid.c 0 ])

(* --- orbit accounting: canonical representatives weighted by orbit size
       partition the full schedule space --- *)

let test_orbit_partition () =
  let pids = [ Pid.c 0; Pid.s 0; Pid.s 1; Pid.s 2 ] in
  let classes = [ Pid.all_s 3 ] in
  let depth = 4 in
  let rec schedules d =
    if d = 0 then [ [] ]
    else
      List.concat_map (fun s -> List.map (fun p -> p :: s) pids)
        (schedules (d - 1))
  in
  let all = schedules depth in
  Alcotest.(check int) "full space" (4 * 4 * 4 * 4) (List.length all);
  let canonical =
    List.filter (fun s -> Schedule.canonicalize ~classes s = s) all
  in
  (* canonicalize lands on a canonical representative and is idempotent *)
  List.iter
    (fun s ->
      let c = Schedule.canonicalize ~classes s in
      check_bool "canonicalize is canonical" true
        (Schedule.canonicalize ~classes c = c))
    all;
  (* weighted representatives cover the space exactly once *)
  let covered =
    List.fold_left
      (fun n s -> n + Schedule.orbit_size ~classes s)
      0 canonical
  in
  Alcotest.(check int) "sum of orbit sizes over canonical reps"
    (List.length all) covered;
  (* orbit size is constant on an orbit *)
  List.iter
    (fun s ->
      Alcotest.(check int) "orbit size invariant under canonicalization"
        (Schedule.orbit_size ~classes (Schedule.canonicalize ~classes s))
        (Schedule.orbit_size ~classes s))
    all

(* --- reduction layers report their work and reject bad classes --- *)

let test_reduction_stats_and_validation () =
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:2 in
  let prop = Test_exhaustive.race_prop_valid ~n_c:2 in
  let pids = Pid.all ~n_c:2 ~n_s:2 in
  let v, st =
    Exhaustive.run
      ~reduce:{ Exhaustive.symmetry = s_class 2 }
      ~build ~pids ~depth:5 ~prop ()
  in
  (match v with
  | Exhaustive.Ok n -> Alcotest.(check int) "count stays exact" 1024 n
  | Exhaustive.Counterexample _ -> Alcotest.fail "unexpected counterexample");
  check_bool "sleep sets fired" true (st.Exhaustive.sleep_pruned > 0);
  check_bool "orbits collapsed" true (st.Exhaustive.orbits_collapsed > 0);
  (* three writers on one register: overwrites converge in orders sleep
     sets do not commute, so a memo would hit under reduction here; the
     battery pins that a reduced run keeps none *)
  assert_engines_agree ~label:"three-writer race"
    ~build:(Test_exhaustive.race_build ~n_c:3 ~n_s:1)
    ~pids:(Pid.all_c 3) ~depth:6 ~mode:Exhaustive.Every
    ~prop:(Test_exhaustive.race_prop_valid ~n_c:3)
    ~reduce:{ Exhaustive.symmetry = [] };
  let rejects r =
    match Exhaustive.run ~reduce:r ~build ~pids ~depth:2 ~prop () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "foreign pid rejected" true
    (rejects { Exhaustive.symmetry = [ [ Pid.s 7 ] ] });
  check_bool "overlapping classes rejected" true
    (rejects { Exhaustive.symmetry = [ [ Pid.s 0; Pid.s 1 ]; [ Pid.s 1 ] ] })

let suite =
  [
    Alcotest.test_case "differential: safe agreement" `Quick
      test_differential_safe_agreement;
    Alcotest.test_case "differential: commit-adopt" `Quick
      test_differential_commit_adopt;
    Alcotest.test_case "differential: trivial n-set-agreement" `Quick
      test_differential_trivial_nsa;
    Alcotest.test_case "differential: CT consensus (FD advice)" `Quick
      test_differential_ct_consensus;
    Alcotest.test_case "differential: seeded violation, same cex" `Quick
      test_differential_violation;
    QCheck_alcotest.to_alcotest prop_independent_swap;
    Alcotest.test_case "dependent swap is visible (negative control)" `Quick
      test_dependent_swap_differs;
    Alcotest.test_case "symmetry orbits partition the schedule space" `Quick
      test_orbit_partition;
    Alcotest.test_case "reduction stats and class validation" `Quick
      test_reduction_stats_and_validation;
  ]
