(* The distribution layer, proven the same way the reduction layers were:
   differentially. Splitting the search at a frontier, running every subtree
   job through the re-entrant engine and folding the merge monoids must
   change where the work happens and nothing else — same verdict, same exact
   credited schedule count, same lex-least counterexample as the
   single-process engine, for any split depth, any merge order, with and
   without reduction. Plus qcheck laws for the merge monoids themselves and
   an end-to-end pass through the coordinator over real TCP workers. *)

open Simkit

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let verdict_str = Test_exhaustive.verdict_str
let mk_ns = Test_exhaustive.mk_ns

let sa_build ~n_s () =
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
  mk_ns ~n_c:2 ~n_s mem c_code

let sa_prop rt =
  match (Runtime.decision rt 0, Runtime.decision rt 1) with
  | Some a, Some b -> Value.equal a b
  | _ -> true

let sa_reduce ~n_s = { Exhaustive.symmetry = [ Pid.all_s n_s ] }

(* --- the reference distributed pipeline, in-process --- *)

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  l
  |> List.map (fun x -> (Random.State.bits st, x))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let dist_run = Test_exhaustive.frontier_run

(* --- partition invariance: any frontier, any merge order --- *)

let test_partition_matches_run () =
  List.iter
    (fun (label, n_s, depth, reduce) ->
      let build = sa_build ~n_s in
      let pids = Pid.all ~n_c:2 ~n_s in
      let expected, _ = Exhaustive.run ?reduce ~build ~pids ~depth ~prop:sa_prop () in
      List.iter
        (fun split_depth ->
          List.iter
            (fun (olabel, order) ->
              let v, _, jobs =
                dist_run ?reduce ~order ~build ~pids ~depth ~split_depth
                  ~prop:sa_prop ()
              in
              check_bool
                (Fmt.str "%s sd=%d: frontier nonempty" label split_depth)
                true (jobs > 0);
              check_string
                (Fmt.str "%s sd=%d order=%s" label split_depth olabel)
                (verdict_str expected) (verdict_str v))
            [ ("dfs", Fun.id); ("rev", List.rev); ("shuffle", shuffle 42) ])
        [ 1; 2; 3 ])
    [
      ("plain", 1, 5, None);
      ("plain-ns2", 2, 4, None);
      ("reduced", 2, 5, Some (sa_reduce ~n_s:2));
      ("sleep-only", 1, 5, Some { Exhaustive.symmetry = [] });
    ]

(* With the memo off, effort is not path-dependent: the partitioned run must
   prune exactly what the single-process engine prunes, layer by layer. *)
let test_partition_pruning_counters_exact () =
  let n_s = 2 in
  let build = sa_build ~n_s in
  let pids = Pid.all ~n_c:2 ~n_s in
  let depth = 5 in
  let reduce = Some (sa_reduce ~n_s) in
  let expected_v, expected_s =
    Exhaustive.run ~memo:false ?reduce ~build ~pids ~depth ~prop:sa_prop ()
  in
  List.iter
    (fun split_depth ->
      let v, s, _ =
        dist_run ~memo:false ?reduce ~build ~pids ~depth ~split_depth
          ~prop:sa_prop ()
      in
      check_string
        (Fmt.str "verdict sd=%d" split_depth)
        (verdict_str expected_v) (verdict_str v);
      Alcotest.(check int)
        (Fmt.str "sleep_pruned sd=%d" split_depth)
        expected_s.Exhaustive.sleep_pruned s.Exhaustive.sleep_pruned;
      Alcotest.(check int)
        (Fmt.str "orbits_collapsed sd=%d" split_depth)
        expected_s.Exhaustive.orbits_collapsed s.Exhaustive.orbits_collapsed)
    [ 1; 2; 3 ]

(* --- lex-least counterexample selection is partition-order-invariant --- *)

let test_counterexample_partition_invariant () =
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:1 in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let depth = 6 in
  let prop = Test_exhaustive.race_prop_false in
  List.iter
    (fun (label, reduce) ->
      let expected, _ = Exhaustive.run ?reduce ~build ~pids ~depth ~prop () in
      (match expected with
      | Exhaustive.Counterexample _ -> ()
      | Exhaustive.Ok _ -> Alcotest.fail "expected a counterexample");
      List.iter
        (fun split_depth ->
          List.iter
            (fun (olabel, order) ->
              let v, _, _ =
                dist_run ?reduce ~order ~build ~pids ~depth ~split_depth ~prop
                  ()
              in
              check_string
                (Fmt.str "%s sd=%d order=%s" label split_depth olabel)
                (verdict_str expected) (verdict_str v))
            [ ("dfs", Fun.id); ("rev", List.rev); ("shuffle", shuffle 7) ])
        [ 1; 2; 3; 4 ])
    [
      ("plain", None);
      ("reduced", Some (sa_reduce ~n_s:1));
    ]

(* a violation shallower than the frontier stops the split itself *)
let test_prefix_violation_stops_split () =
  let build = sa_build ~n_s:1 in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let prop _ = false in
  let expected, _ = Exhaustive.run ~build ~pids ~depth:4 ~prop () in
  let fr = Exhaustive.split ~build ~pids ~depth:4 ~split_depth:2 ~prop () in
  check_bool "no jobs emitted" true (fr.Exhaustive.fr_jobs = []);
  match fr.Exhaustive.fr_cex with
  | None -> Alcotest.fail "split missed the prefix violation"
  | Some cex ->
    check_string "same counterexample" (verdict_str expected)
      (verdict_str (Exhaustive.Counterexample cex))

(* --- the shared fold against the reference fold above --- *)

let test_merge_frontier_matches_reference () =
  let race = Test_exhaustive.race_build ~n_c:2 ~n_s:1 in
  List.iter
    (fun (label, build, pids, depth, prop, reduce) ->
      List.iter
        (fun split_depth ->
          let label = Fmt.str "%s sd=%d" label split_depth in
          let want_v, want_s, _ =
            dist_run ?reduce ~build ~pids ~depth ~split_depth ~prop ()
          in
          let fr =
            Exhaustive.split ?reduce ~build ~pids ~depth ~split_depth ~prop ()
          in
          let v, s =
            List.map
              (Test_exhaustive.run_job ?reduce ~build ~pids ~depth ~prop)
              fr.Exhaustive.fr_jobs
            |> Exhaustive.merge_frontier ~pids fr
          in
          check_string label (verdict_str want_v) (verdict_str v);
          check_string label (Test_ckpt.stats_str want_s)
            (Test_ckpt.stats_str s))
        [ 1; 2; 3 ])
    [
      ( "reduced",
        sa_build ~n_s:2,
        Pid.all ~n_c:2 ~n_s:2,
        5,
        sa_prop,
        Some (sa_reduce ~n_s:2) );
      ( "counterexample",
        race,
        Pid.all ~n_c:2 ~n_s:1,
        6,
        Test_exhaustive.race_prop_false,
        None );
      ("prefix violation", sa_build ~n_s:1, Pid.all ~n_c:2 ~n_s:1, 4,
       (fun _ -> false), None);
    ]

(* --- golden frontiers: a checkpoint store records its job total and the
       ids it finished, so resuming a store written by an older build needs
       the same split, job for job. Each line of a golden file is
       [Obs.Json.to_string (Exhaustive.subtree_json job)]; a mismatch means
       the frontier changed, not that the file needs regenerating. --- *)

let golden_frontiers =
  (* file, scenario, n_s, depth, split depth, reduce, splitter's credit *)
  [
    ("safe_agreement_ns3_d10_sd3.jsonl", "safe-agreement", 3, 10, 3, false, 0);
    ( "safe_agreement_ns2_d8_sd3_reduced.jsonl", "safe-agreement", 2, 8, 3,
      true, 38912 );
    ("race_false_ns1_d6_sd2.jsonl", "race-false", 1, 6, 2, false, 0);
  ]

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_golden_frontiers () =
  List.iter
    (fun (file, name, n_s, depth, split_depth, reduce, pruned) ->
      let sc =
        match Mcheck.Scenario.find name ~n_s with
        | Ok sc -> sc
        | Error e -> Alcotest.fail e
      in
      let fr =
        Exhaustive.split
          ?reduce:(Mcheck.Scenario.reduction sc ~reduce)
          ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
          ~depth ~split_depth ~prop:sc.Mcheck.Scenario.sc_prop ()
      in
      let want = read_lines (Filename.concat "golden/frontier" file) in
      let got =
        List.map
          (fun sj -> Obs.Json.to_string (Exhaustive.subtree_json sj))
          fr.Exhaustive.fr_jobs
      in
      Alcotest.(check int) (file ^ " job count") (List.length want)
        (List.length got);
      List.iter2 (check_string file) want got;
      Alcotest.(check int) (file ^ " splitter credit") pruned
        fr.Exhaustive.fr_pruned;
      check_bool (file ^ " no prefix violation") true
        (fr.Exhaustive.fr_cex = None))
    golden_frontiers

(* --- subtree jobs survive the wire format --- *)

let test_subtree_json_roundtrip () =
  let n_s = 2 in
  let build = sa_build ~n_s in
  let pids = Pid.all ~n_c:2 ~n_s in
  let fr =
    Exhaustive.split ~reduce:(sa_reduce ~n_s) ~build ~pids ~depth:5
      ~split_depth:2 ~prop:sa_prop ()
  in
  check_bool "have jobs" true (fr.Exhaustive.fr_jobs <> []);
  List.iter
    (fun sj ->
      let s = Obs.Json.to_string (Exhaustive.subtree_json sj) in
      match Obs.Json.of_string s with
      | Error e -> Alcotest.failf "unparseable subtree json: %s" e
      | Ok j -> (
        match Exhaustive.subtree_of_json j with
        | Error e -> Alcotest.failf "subtree_of_json: %s" e
        | Ok sj' ->
          check_bool
            (Fmt.str "job %d roundtrips" sj.Exhaustive.sj_id)
            true (sj = sj')))
    fr.Exhaustive.fr_jobs

(* --- qcheck laws for the merge monoids --- *)

let stats_eq a b =
  a.Exhaustive.nodes = b.Exhaustive.nodes
  && a.Exhaustive.steps_executed = b.Exhaustive.steps_executed
  && a.Exhaustive.replays = b.Exhaustive.replays
  && a.Exhaustive.runtimes_built = b.Exhaustive.runtimes_built
  && a.Exhaustive.memo_hits = b.Exhaustive.memo_hits
  && a.Exhaustive.sleep_pruned = b.Exhaustive.sleep_pruned
  && a.Exhaustive.orbits_collapsed = b.Exhaustive.orbits_collapsed
  && a.Exhaustive.wall_s = b.Exhaustive.wall_s

(* wall times as small dyadic rationals keep float addition exact, so the
   associativity law can be checked with plain equality *)
let stats_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun l ->
          match l with
          | [ a; b; c; d; e; f; g; w ] ->
            {
              Exhaustive.nodes = a;
              steps_executed = b;
              replays = c;
              runtimes_built = d;
              memo_hits = e;
              sleep_pruned = f;
              orbits_collapsed = g;
              wall_s = float_of_int w /. 8.;
            }
          | _ -> assert false)
        (list_size (return 8) small_nat))

let prop_merge_stats_monoid =
  QCheck.Test.make ~name:"merge_stats is a commutative monoid" ~count:200
    (QCheck.triple stats_arb stats_arb stats_arb)
    (fun (a, b, c) ->
      let ( + ) = Exhaustive.merge_stats in
      stats_eq (a + (b + c)) (a + b + c)
      && stats_eq (a + b) (b + a)
      && stats_eq (Exhaustive.zero_stats + a) a
      && stats_eq (a + Exhaustive.zero_stats) a)

let verdict_arb =
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  QCheck.make
    QCheck.Gen.(
      frequency
        [
          (1, map (fun n -> Exhaustive.Ok n) small_nat);
          ( 2,
            map
              (fun is ->
                Exhaustive.Counterexample
                  (List.map (fun i -> List.nth pids (i mod 3)) is))
              (list_size (int_range 1 6) small_nat) );
        ])

let prop_merge_verdicts_monoid =
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  QCheck.Test.make ~name:"merge_verdicts is a commutative monoid" ~count:500
    (QCheck.triple verdict_arb verdict_arb verdict_arb)
    (fun (a, b, c) ->
      let ( + ) = Exhaustive.merge_verdicts ~pids in
      verdict_str (a + (b + c)) = verdict_str (a + b + c)
      && verdict_str (a + b) = verdict_str (b + a)
      && verdict_str (Exhaustive.Ok 0 + a) = verdict_str a)

(* merged credited counts over a random partition of a frontier equal the
   single-process count: jobs are assigned to buckets arbitrarily, buckets
   are merged internally, then across — associativity in anger *)
let prop_partition_counts =
  let n_s = 1 in
  let build = sa_build ~n_s in
  let pids = Pid.all ~n_c:2 ~n_s in
  let depth = 5 in
  let expected, _ = Exhaustive.run ~build ~pids ~depth ~prop:sa_prop () in
  let fr = Exhaustive.split ~build ~pids ~depth ~split_depth:2 ~prop:sa_prop () in
  let results =
    List.map
      (fun sj ->
        fst (Test_exhaustive.run_job ~build ~pids ~depth ~prop:sa_prop sj))
      fr.Exhaustive.fr_jobs
  in
  QCheck.Test.make ~name:"random partitions merge to the exact count"
    ~count:50
    QCheck.(pair (int_range 1 5) (int_range 0 1000))
    (fun (buckets, seed) ->
      let st = Random.State.make [| seed |] in
      let parts = Array.make buckets (Exhaustive.Ok 0) in
      List.iter
        (fun v ->
          let b = Random.State.int st buckets in
          parts.(b) <- Exhaustive.merge_verdicts ~pids parts.(b) v)
        results;
      let merged =
        Array.fold_left
          (Exhaustive.merge_verdicts ~pids)
          (Exhaustive.Ok fr.Exhaustive.fr_pruned)
          parts
      in
      verdict_str merged = verdict_str expected)

(* --- end-to-end: the coordinator over real in-process TCP workers --- *)

let start_tcp_worker ?(tune = Fun.id) () =
  let cfg =
    {
      (Svc.Server.default_config ~listen:(Svc.Addr.Tcp ("127.0.0.1", 0))) with
      Svc.Server.workers = 1;
    }
  in
  let t = Svc.Server.start (tune cfg) in
  (t, Svc.Addr.to_string (Svc.Server.listen_addr t))

let with_tcp_workers ?tune n f =
  let servers = List.init n (fun _ -> start_tcp_worker ?tune ()) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (t, _) ->
          Svc.Server.shutdown t;
          Svc.Server.wait t)
        servers)
    (fun () -> f servers)

(* 1, 2 and 4 workers must all reproduce the local engine bit-for-bit:
   verdict, credited count, and (race-false) the lex-least counterexample *)
let test_coordinator_matches_local () =
  List.iter
    (fun (name, depth, reduce) ->
      let sc =
        match Mcheck.Scenario.find name ~n_s:2 with
        | Ok sc -> sc
        | Error e -> Alcotest.fail e
      in
      let red = Mcheck.Scenario.reduction sc ~reduce in
      let expected, _ =
        Exhaustive.run ?reduce:red ~build:sc.Mcheck.Scenario.sc_build
          ~pids:sc.Mcheck.Scenario.sc_pids ~depth
          ~prop:sc.Mcheck.Scenario.sc_prop ()
      in
      List.iter
        (fun n ->
          with_tcp_workers n (fun servers ->
              let workers = List.map snd servers in
              match
                Dist.Coordinator.run ~reduce ~scenario:sc ~depth ~workers ()
              with
              | Error e -> Alcotest.failf "%s x%d: %s" name n e
              | Ok r ->
                check_string
                  (Printf.sprintf "%s depth %d reduce %b x%d workers" name
                     depth reduce n)
                  (verdict_str expected)
                  (verdict_str r.Dist.Coordinator.r_verdict)))
        [ 1; 2; 4 ])
    [
      ("safe-agreement", 6, false);
      ("safe-agreement", 6, true);
      ("race-false", 6, false);
      ("race-false", 6, true);
    ]

(* one worker address refuses connections: its jobs requeue onto the live
   worker and the run still completes exactly *)
let test_coordinator_survives_dead_worker () =
  let sc =
    match Mcheck.Scenario.find "safe-agreement" ~n_s:1 with
    | Ok sc -> sc
    | Error e -> Alcotest.fail e
  in
  let expected, _ =
    Exhaustive.run ~build:sc.Mcheck.Scenario.sc_build
      ~pids:sc.Mcheck.Scenario.sc_pids ~depth:6
      ~prop:sc.Mcheck.Scenario.sc_prop ()
  in
  (* grab a port nothing will be listening on by the time the coordinator
     dials it *)
  let dead_addr =
    let t, addr = start_tcp_worker () in
    Svc.Server.shutdown t;
    Svc.Server.wait t;
    addr
  in
  with_tcp_workers 1 (fun servers ->
      let workers = dead_addr :: List.map snd servers in
      match
        Dist.Coordinator.run ~retries:0 ~scenario:sc ~depth:6 ~workers ()
      with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check_string "verdict with a dead worker" (verdict_str expected)
          (verdict_str r.Dist.Coordinator.r_verdict);
        let dead =
          List.filter
            (fun w -> w.Dist.Coordinator.wk_dead)
            r.Dist.Coordinator.r_workers
        in
        check_bool "the dead worker was noticed" true (List.length dead = 1));
  (* and a fleet that is entirely dead is an error, not a hang *)
  match
    Dist.Coordinator.run ~retries:0 ~scenario:sc ~depth:6
      ~workers:[ dead_addr ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "all-dead fleet reported success"

(* --- the journaling coordinator: resume a half-answered store --- *)

let fleet workers =
  match Dist.Coordinator.executor workers with
  | Ok exec -> exec
  | Error e -> Alcotest.fail e

(* the store's newest record, resumed through the driver by the fleet *)
let fleet_resume ~workers ~store (r : Ckpt.Record.t) =
  Test_ckpt.save_record store r;
  match Ckpt.Local.load_record store with
  | Error e -> Error e
  | Ok loaded ->
    Ckpt.Frontier.resume ~store ~interval_s:0. loaded (fleet workers)
    |> Result.map (fun o -> (o.Ckpt.Frontier.verdict, o.Ckpt.Frontier.stats))

(* The half record comes from the fleet's own uninterrupted run. The
   resumed half is cut into other ranges than the full run's, so its
   effort counters differ from that run's; ranges are a function of the
   unanswered jobs and the worker count alone, so two resumes of the same
   record agree on every integer stat. *)
let test_coordinator_resumes_half () =
  with_tcp_workers 2 (fun servers ->
      let workers = List.map snd servers in
      let fleet_run store (name, n_s, depth, reduce) =
        match
          Ckpt.Frontier.run ~journal:(store, 0.) ~reduce
            ~scenario:(Test_ckpt.scenario name ~n_s)
            ~depth (fleet workers)
        with
        | Ok o -> (o.Ckpt.Frontier.verdict, o.Ckpt.Frontier.stats)
        | Error e -> Alcotest.failf "fleet run: %s" e
      in
      List.iter
        (fun case ->
          let label = Test_ckpt.case_label case in
          let verdict, _, half = Test_ckpt.half_done ~run:fleet_run case in
          let resume () =
            Test_ckpt.with_store (fun store ->
                match fleet_resume ~workers ~store half with
                | Error e -> Alcotest.failf "%s: %s" label e
                | Ok (verdict', stats') ->
                  check_string (label ^ " verdict") (verdict_str verdict)
                    (verdict_str verdict');
                  Alcotest.(check int)
                    (label ^ ": final record answers every job")
                    half.Ckpt.Record.ck_total
                    (List.length
                       (Test_ckpt.load_record store).Ckpt.Record.ck_done);
                  stats')
          in
          let stats = resume () in
          check_string
            (label ^ " stats of two resumes")
            (Test_ckpt.stats_str stats)
            (Test_ckpt.stats_str (resume ())))
        Test_ckpt.engine_cases)

let test_coordinator_resume_rejects () =
  let _, _, half = Test_ckpt.half_done (List.hd Test_ckpt.engine_cases) in
  let config = half.Ckpt.Record.ck_config in
  with_tcp_workers 1 (fun servers ->
      let workers = List.map snd servers in
      let rejects what r =
        Test_ckpt.with_store (fun store ->
            match fleet_resume ~workers ~store r with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "%s: resumed" what)
      in
      rejects "wrong job total"
        (Ckpt.Record.make ~config ~total:(half.Ckpt.Record.ck_total + 1)
           ~done_:half.Ckpt.Record.ck_done);
      (* the run's own config differs from the record's *)
      match
        Ckpt.Frontier.run ~resume:half ~reduce:config.Ckpt.Record.cf_reduce
          ~scenario:
            (Test_ckpt.scenario config.Ckpt.Record.cf_scenario
               ~n_s:config.Ckpt.Record.cf_n_s)
          ~depth:(config.Ckpt.Record.cf_depth + 1)
          (fleet workers)
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "wrong config: resumed")

let test_coordinator_journal_rule () =
  with_tcp_workers 2 (fun servers ->
      let workers = List.map snd servers in
      Test_ckpt.journal_rule ~label:"fleet"
        (fun store (name, n_s, depth, reduce) ->
          Ckpt.Frontier.run ~journal:(store, 0.) ~reduce
            ~scenario:(Test_ckpt.scenario name ~n_s) ~depth (fleet workers)
          |> Result.map (fun o -> o.Ckpt.Frontier.verdict)))

(* --- range dispatch: a worker runs its jobs in one memo-sharing call --- *)

let fleet_outcome ?(reduce = false) ~workers sc ~depth =
  match Ckpt.Frontier.run ~reduce ~scenario:sc ~depth (fleet workers) with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let mono_stats ?(reduce = false) sc ~depth =
  Exhaustive.run
    ?reduce:(Mcheck.Scenario.reduction sc ~reduce)
    ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids ~depth
    ~prop:sc.Mcheck.Scenario.sc_prop ()

(* One worker gets every job as one range: one [run_subtrees] call over
   the local executor's job list in its order, so the same effort to the
   node. *)
let test_one_worker_is_local () =
  with_tcp_workers 1 (fun servers ->
      let workers = List.map snd servers in
      List.iter
        (fun (n_s, depth) ->
          let label = Printf.sprintf "n_s %d depth %d" n_s depth in
          let sc = Test_ckpt.scenario "safe-agreement" ~n_s in
          let local =
            match
              Ckpt.Frontier.run ~reduce:false ~scenario:sc ~depth
                (Ckpt.Local.executor ())
            with
            | Ok o -> o
            | Error e -> Alcotest.fail e
          in
          let o = fleet_outcome ~workers sc ~depth in
          check_string (label ^ " verdict")
            (verdict_str local.Ckpt.Frontier.verdict)
            (verdict_str o.Ckpt.Frontier.verdict);
          check_string (label ^ " stats")
            (Test_ckpt.stats_str local.Ckpt.Frontier.stats)
            (Test_ckpt.stats_str o.Ckpt.Frontier.stats))
        [ (2, 8); (3, 10) ])

(* Two ranges warm two tables: at most twice the monolithic effort, not
   the ~20x of one cold table per job. *)
let test_two_workers_nodes () =
  let sc = Test_ckpt.scenario "safe-agreement" ~n_s:2 in
  let expected, mono = mono_stats sc ~depth:8 in
  with_tcp_workers 2 (fun servers ->
      let o = fleet_outcome ~workers:(List.map snd servers) sc ~depth:8 in
      check_string "verdict" (verdict_str expected)
        (verdict_str o.Ckpt.Frontier.verdict);
      let nodes = o.Ckpt.Frontier.stats.Exhaustive.nodes in
      check_bool
        (Printf.sprintf "%d fleet nodes <= 2 x %d monolithic" nodes
           mono.Exhaustive.nodes)
        true
        (nodes <= 2 * mono.Exhaustive.nodes))

(* A reduced search keeps no memo, so one job per range loses
   nothing: the fleet explores exactly the monolithic nodes. *)
let test_reduced_fleet_nodes () =
  with_tcp_workers 2 (fun servers ->
      let workers = List.map snd servers in
      List.iter
        (fun (n_s, depth) ->
          let label = Printf.sprintf "n_s %d depth %d reduced" n_s depth in
          let sc = Test_ckpt.scenario "safe-agreement" ~n_s in
          let expected, mono = mono_stats ~reduce:true sc ~depth in
          let o = fleet_outcome ~reduce:true ~workers sc ~depth in
          check_string (label ^ " verdict") (verdict_str expected)
            (verdict_str o.Ckpt.Frontier.verdict);
          Alcotest.(check int)
            (label ^ " nodes") mono.Exhaustive.nodes
            o.Ckpt.Frontier.stats.Exhaustive.nodes)
        [ (2, 8); (3, 8) ])

(* A range too big for a server's limits is halved until it fits. A
   frontier of 16,384 jobs makes a ~2 MB range, past the default 1 MiB
   frame; a server with a 64 KiB frame halves it further. *)
let test_ranges_split_to_fit_frames () =
  let sc = Test_ckpt.scenario "safe-agreement" ~n_s:2 in
  let expected, _ = mono_stats sc ~depth:8 in
  List.iter
    (fun (label, max_frame) ->
      with_tcp_workers
        ~tune:(fun cfg -> { cfg with Svc.Server.max_frame })
        1
        (fun servers ->
          match
            Ckpt.Frontier.run ~split_depth:7 ~reduce:false ~scenario:sc
              ~depth:8
              (fleet (List.map snd servers))
          with
          | Error e -> Alcotest.failf "%s: %s" label e
          | Ok o ->
            Alcotest.(check int) (label ^ " jobs") 16384 o.Ckpt.Frontier.jobs;
            check_string (label ^ " verdict") (verdict_str expected)
              (verdict_str o.Ckpt.Frontier.verdict);
            check_bool (label ^ ": the range was split") true
              (o.Ckpt.Frontier.executor.Dist.Coordinator.redispatched > 0)))
    [ ("default frame", Svc.Frame.default_max_len); ("64 KiB frame", 65536) ]

(* A server whose default deadline every job meets but a whole range
   misses: the range is halved until its parts meet it, and the run
   completes. 1,024 jobs of at most 4^5 schedules each take well under a
   millisecond apiece; all of them take several times 10 ms. *)
let test_ranges_split_to_meet_deadline () =
  let sc = Test_ckpt.scenario "safe-agreement" ~n_s:2 in
  let expected, _ = mono_stats sc ~depth:10 in
  with_tcp_workers
    ~tune:(fun cfg -> { cfg with Svc.Server.default_deadline_ms = Some 10 })
    1
    (fun servers ->
      match
        Ckpt.Frontier.run ~split_depth:5 ~reduce:false ~scenario:sc ~depth:10
          (fleet (List.map snd servers))
      with
      | Error e -> Alcotest.fail e
      | Ok o ->
        Alcotest.(check int) "jobs" 1024 o.Ckpt.Frontier.jobs;
        check_string "verdict" (verdict_str expected)
          (verdict_str o.Ckpt.Frontier.verdict);
        check_bool "the range was split" true
          (o.Ckpt.Frontier.executor.Dist.Coordinator.redispatched > 0))

(* A server with a pool of two domains gets two ranges at once, over two
   connections: the same cut, to the node, as two one-domain servers. *)
let test_pool_domains_get_ranges () =
  let sc = Test_ckpt.scenario "safe-agreement" ~n_s:2 in
  let stats ?tune n =
    with_tcp_workers ?tune n (fun servers ->
        let o = fleet_outcome ~workers:(List.map snd servers) sc ~depth:8 in
        Test_ckpt.stats_str o.Ckpt.Frontier.stats)
  in
  check_string "one 2-domain server = two 1-domain servers" (stats 2)
    (stats ~tune:(fun cfg -> { cfg with Svc.Server.workers = 2 }) 1)

(* A journaled fleet cuts four ranges per connection and saves once per
   reply: two one-domain servers answer in 8 replies, so the newest
   generation is 9 (0 before any job, 1..8 one per reply, 9 the final). *)
let test_journal_once_per_reply () =
  with_tcp_workers 2 (fun servers ->
      Test_ckpt.with_store (fun store ->
          match
            Ckpt.Frontier.run ~journal:(store, 0.) ~reduce:false
              ~scenario:(Test_ckpt.scenario "safe-agreement" ~n_s:2)
              ~depth:8
              (fleet (List.map snd servers))
          with
          | Error e -> Alcotest.fail e
          | Ok o -> (
            check_bool "more jobs than ranges" true (o.Ckpt.Frontier.jobs > 8);
            match Ckpt.Local.load_record store with
            | Ok (gen, _) -> Alcotest.(check int) "newest generation" 9 gen
            | Error e -> Alcotest.fail e)))

(* The [subtree] verb on the wire: a 3-job range comes back as 3 done
   entries in the range's order, each what one in-process [run_subtrees]
   call over the same range reports; the one-job form is refused. *)
let test_subtree_range_wire () =
  let sc = Test_ckpt.scenario "safe-agreement" ~n_s:2 in
  let build = sc.Mcheck.Scenario.sc_build
  and pids = sc.Mcheck.Scenario.sc_pids
  and prop = sc.Mcheck.Scenario.sc_prop in
  let depth = 6 in
  let fr = Exhaustive.split ~build ~pids ~depth ~split_depth:2 ~prop () in
  let range = List.filteri (fun i _ -> i >= 4 && i < 7) fr.Exhaustive.fr_jobs in
  let want = ref [] in
  Exhaustive.run_subtrees ~build ~pids ~depth ~prop range (fun sj r ->
      want := (sj.Exhaustive.sj_id, r) :: !want);
  let want = List.rev !want in
  let params jobs =
    Obs.Json.Obj
      [
        ("scenario", Obs.Json.Str "safe-agreement");
        ("n_s", Obs.Json.Int 2);
        ("depth", Obs.Json.Int depth);
        jobs;
      ]
  in
  with_tcp_workers 1 (fun servers ->
      let client = Svc.Client.connect (snd (List.hd servers)) in
      Fun.protect
        ~finally:(fun () -> Svc.Client.close client)
        (fun () ->
          (match
             Svc.Client.call
               ~params:
                 (params
                    ( "jobs",
                      Obs.Json.List (List.map Exhaustive.subtree_json range) ))
               client Svc.Protocol.Subtree
           with
          | Error e -> Alcotest.fail (Svc.Client.error_string e)
          | Ok json ->
            let got =
              match Obs.Json.member "done" json with
              | Some (Obs.Json.List items) ->
                List.map
                  (fun j ->
                    match Ckpt.Record.done_of_json j with
                    | Ok d -> d
                    | Error e -> Alcotest.fail e)
                  items
              | _ -> Alcotest.fail "no done list"
            in
            Alcotest.(check (list int))
              "one done entry per job, in order"
              (List.map fst want)
              (List.map (fun d -> d.Ckpt.Record.dj_id) got);
            List.iter2
              (fun (id, (v, st)) d ->
                let label = Printf.sprintf "job %d" id in
                check_string (label ^ " verdict") (verdict_str v)
                  (verdict_str d.Ckpt.Record.dj_verdict);
                check_string (label ^ " stats") (Test_ckpt.stats_str st)
                  (Test_ckpt.stats_str d.Ckpt.Record.dj_stats))
              want got);
          match
            Svc.Client.call
              ~params:(params ("job", Exhaustive.subtree_json (List.hd range)))
              client Svc.Protocol.Subtree
          with
          | Error (Svc.Client.Server (Svc.Protocol.Bad_request, _)) -> ()
          | Error e -> Alcotest.fail (Svc.Client.error_string e)
          | Ok _ -> Alcotest.fail "the one-job form was accepted"))

(* A deadline no single job can meet recurs on every retry: the run
   halves its ranges down to one job, then ends with an error naming the
   code and the job, not requeue forever. The watchdog turns a livelock
   into a failure instead of a hang. *)
let test_deterministic_error_ends_run () =
  let sc = Test_ckpt.scenario "safe-agreement" ~n_s:3 in
  with_tcp_workers 2 (fun servers ->
      let workers = List.map snd servers in
      let result = Atomic.make None in
      ignore
        (Thread.create
           (fun () ->
             Atomic.set result
               (Some
                  (try
                     Dist.Coordinator.run ~deadline_ms:1 ~scenario:sc ~depth:12
                       ~workers ()
                   with e -> Error (Printexc.to_string e))))
           ());
      let t0 = Unix.gettimeofday () in
      let rec wait () =
        match Atomic.get result with
        | Some r -> r
        | None when Unix.gettimeofday () -. t0 > 30. ->
          Alcotest.fail "a 1 ms deadline still runs after 30 s"
        | None ->
          Thread.delay 0.01;
          wait ()
      in
      match wait () with
      | Ok _ -> Alcotest.fail "a 1 ms deadline answered depth 12"
      | Error msg ->
        List.iter
          (fun part ->
            check_bool
              (Printf.sprintf "%S names %S" msg part)
              true (Test_svc.contains msg part))
          [ "deadline_exceeded"; " on job " ])

let suite =
  [
    Alcotest.test_case "partition matches run (all frontiers, orders)" `Quick
      test_partition_matches_run;
    Alcotest.test_case "pruning counters exact without memo" `Quick
      test_partition_pruning_counters_exact;
    Alcotest.test_case "counterexample partition-order-invariant" `Quick
      test_counterexample_partition_invariant;
    Alcotest.test_case "prefix violation stops the split" `Quick
      test_prefix_violation_stops_split;
    Alcotest.test_case "merge_frontier equals the reference fold" `Quick
      test_merge_frontier_matches_reference;
    Alcotest.test_case "golden frontier job lists" `Quick
      test_golden_frontiers;
    Alcotest.test_case "subtree json roundtrip" `Quick
      test_subtree_json_roundtrip;
    Alcotest.test_case "coordinator matches local over TCP (1/2/4 workers)"
      `Quick test_coordinator_matches_local;
    Alcotest.test_case "coordinator survives a dead worker" `Quick
      test_coordinator_survives_dead_worker;
    Alcotest.test_case "fleet resumes a half-answered store" `Quick
      test_coordinator_resumes_half;
    Alcotest.test_case "fleet resume rejects a mismatched record" `Quick
      test_coordinator_resume_rejects;
    Alcotest.test_case "fleet journal rule: first save fatal, later not"
      `Quick test_coordinator_journal_rule;
    Alcotest.test_case "one-worker fleet has the local executor's stats"
      `Quick test_one_worker_is_local;
    Alcotest.test_case "two-worker fleet within 2x monolithic nodes" `Quick
      test_two_workers_nodes;
    Alcotest.test_case "reduced fleet explores the monolithic nodes" `Quick
      test_reduced_fleet_nodes;
    Alcotest.test_case "a range past a frame limit is halved until it fits"
      `Quick test_ranges_split_to_fit_frames;
    Alcotest.test_case "a range past a deadline is halved until it meets it"
      `Quick test_ranges_split_to_meet_deadline;
    Alcotest.test_case "a 2-domain server runs two ranges at once" `Quick
      test_pool_domains_get_ranges;
    Alcotest.test_case "a journaled fleet saves once per reply" `Quick
      test_journal_once_per_reply;
    Alcotest.test_case "subtree range on the wire: one done entry per job"
      `Quick test_subtree_range_wire;
    Alcotest.test_case "deterministic error reply ends the fleet run" `Quick
      test_deterministic_error_ends_run;
    QCheck_alcotest.to_alcotest prop_merge_stats_monoid;
    QCheck_alcotest.to_alcotest prop_merge_verdicts_monoid;
    QCheck_alcotest.to_alcotest prop_partition_counts;
  ]
