(* The checkpoint durability battery (DESIGN.md §8):
   - qcheck: [Store.load ∘ Store.save = id] over arbitrary records, in
     both payload codecs — the record survives the store byte-exactly;
   - torn writes: the newest generation truncated at EVERY byte offset
     must roll back to the previous generation, never raise;
   - corruption: a flipped bit anywhere demotes the generation the same
     way. *)

open Simkit
module J = Obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wfa-ckpt-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_store ?codec ?keep f =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match Ckpt.Store.create ?codec ?keep dir with
      | Error msg -> Alcotest.failf "create %s: %s" dir msg
      | Ok store -> f store)

(* ------------------------------------------------------------ generators *)

let pid_gen =
  QCheck.Gen.(
    map2 (fun is_c i -> if is_c then Pid.c i else Pid.s i) bool (int_bound 3))

let verdict_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Exhaustive.Ok n) (int_bound 1_000_000));
        ( 1,
          map
            (fun ps -> Exhaustive.Counterexample ps)
            (list_size (int_range 1 8) pid_gen) );
      ])

let stats_gen =
  QCheck.Gen.(
    map
      (fun ((nodes, steps, replays, builds), (memo, sleep, orbits, wall)) ->
        {
          Exhaustive.nodes;
          steps_executed = steps;
          replays;
          runtimes_built = builds;
          memo_hits = memo;
          sleep_pruned = sleep;
          orbits_collapsed = orbits;
          wall_s = wall;
        })
      (pair
         (quad (int_bound 1_000_000) (int_bound 1_000_000)
            (int_bound 1_000_000) (int_bound 1_000_000))
         (quad (int_bound 1_000_000) (int_bound 1_000_000)
            (int_bound 1_000_000)
            (* finite, exactly-representable through the JSON printer *)
            (map (fun f -> f /. 1024.) (float_bound_inclusive 1e6)))))

let config_gen =
  QCheck.Gen.(
    map
      (fun (scenario, n_s, depth, reduce) ->
        {
          Ckpt.Record.cf_scenario =
            (if scenario then "safe-agreement" else "race-false");
          cf_n_s = n_s;
          cf_depth = depth;
          cf_reduce = reduce;
          cf_split_depth = max 1 (min 3 (depth - 1));
        })
      (quad bool (int_range 1 4) (int_range 2 12) bool))

let record_gen =
  QCheck.Gen.(
    config_gen >>= fun config ->
    int_range 0 40 >>= fun total ->
    (if total = 0 then return []
     else
       list_size (int_bound (min total 20))
         (map2
            (fun id (verdict, stats) ->
              { Ckpt.Record.dj_id = id; dj_verdict = verdict; dj_stats = stats })
            (int_bound (total - 1))
            (pair verdict_gen stats_gen)))
    >>= fun done_ -> return (Ckpt.Record.make ~config ~total ~done_))

let record_arb =
  QCheck.make record_gen ~print:(fun r -> J.to_string (Ckpt.Record.json r))

(* ------------------------------------------------------------ round-trip *)

let roundtrip_prop codec r =
  with_store ~codec (fun store ->
      (match Ckpt.Store.save store (Ckpt.Record.json r) with
      | Error msg -> Alcotest.failf "save: %s" msg
      | Ok _ -> ());
      match Ckpt.Store.load store with
      | None -> Alcotest.fail "load: no generation after save"
      | Some (_, value) -> (
        match Ckpt.Record.of_json value with
        | Error msg -> Alcotest.failf "of_json: %s" msg
        | Ok r' -> Ckpt.Record.equal r r'))

let roundtrip_test codec name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name record_arb (roundtrip_prop codec))

(* ------------------------------------------------------------ torn tails *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let small_record =
  Ckpt.Record.make
    ~config:
      {
        Ckpt.Record.cf_scenario = "safe-agreement";
        cf_n_s = 1;
        cf_depth = 6;
        cf_reduce = true;
        cf_split_depth = 2;
      }
    ~total:4
    ~done_:
      [
        {
          Ckpt.Record.dj_id = 1;
          dj_verdict = Exhaustive.Ok 9;
          dj_stats = Exhaustive.zero_stats;
        };
      ]

(* Two generations, then truncate the newest at every byte offset: the
   loader must always fall back to generation 0, never raise, and an
   untouched store must still prefer generation 1. *)
let torn_write_codec codec () =
  let old_value = J.Obj [ ("v", J.Int 1); ("marker", J.Str "old") ] in
  with_store ~codec (fun store ->
      (match Ckpt.Store.save store old_value with
      | Ok g -> check_int "first generation" 0 g
      | Error msg -> Alcotest.failf "save old: %s" msg);
      (match Ckpt.Store.save store (Ckpt.Record.json small_record) with
      | Ok g -> check_int "second generation" 1 g
      | Error msg -> Alcotest.failf "save new: %s" msg);
      let newest = Ckpt.Store.generation_path store 1 in
      let intact = read_file newest in
      check_bool "untouched store loads the newest" true
        (match Ckpt.Store.load store with
        | Some (1, _) -> true
        | _ -> false);
      for len = 0 to String.length intact - 1 do
        write_file newest (String.sub intact 0 len);
        match Ckpt.Store.load store with
        | Some (0, v) when v = old_value -> ()
        | Some (g, _) ->
          Alcotest.failf "truncated at %d: loaded generation %d" len g
        | None -> Alcotest.failf "truncated at %d: no fallback" len
      done;
      (* restore and flip one bit in every byte position: checksum (or
         header validation) must demote it identically *)
      for i = 0 to String.length intact - 1 do
        let b = Bytes.of_string intact in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
        write_file newest (Bytes.to_string b);
        match Ckpt.Store.load store with
        | Some (0, v) when v = old_value -> ()
        | Some (g, _) ->
          Alcotest.failf "bit flip at %d: loaded generation %d" i g
        | None -> Alcotest.failf "bit flip at %d: no fallback" i
      done)

(* ------------------------------------------------------- store mechanics *)

let test_generations_and_pruning () =
  with_store ~codec:Ckpt.Store.Json ~keep:2 (fun store ->
      for i = 0 to 4 do
        match Ckpt.Store.save store (J.Int i) with
        | Ok g -> check_int "generation number" i g
        | Error msg -> Alcotest.failf "save %d: %s" i msg
      done;
      Alcotest.(check (list int))
        "pruned to keep" [ 3; 4 ]
        (Ckpt.Store.generations store);
      check_bool "newest wins" true
        (Ckpt.Store.load store = Some (4, J.Int 4));
      (* a reopened store continues the numbering *)
      match Ckpt.Store.create (Ckpt.Store.dir store) with
      | Error msg -> Alcotest.failf "reopen: %s" msg
      | Ok store' -> (
        match Ckpt.Store.save store' (J.Int 5) with
        | Ok g -> check_int "numbering continues after reopen" 5 g
        | Error msg -> Alcotest.failf "save after reopen: %s" msg))

let test_empty_and_garbage () =
  with_store (fun store ->
      check_bool "empty store loads None" true (Ckpt.Store.load store = None);
      (* stray files that do not parse as generation names are ignored *)
      write_file
        (Filename.concat (Ckpt.Store.dir store) "not-a-generation")
        "junk";
      check_bool "stray file ignored" true (Ckpt.Store.load store = None))

(* Record validation: of_json must reject what make forbids. *)
let test_record_validation () =
  let json = Ckpt.Record.json small_record in
  (match Ckpt.Record.of_json json with
  | Ok r -> check_bool "round-trip equal" true (Ckpt.Record.equal small_record r)
  | Error msg -> Alcotest.failf "of_json: %s" msg);
  let reject what mangle =
    match Ckpt.Record.of_json (mangle json) with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  reject "wrong version" (fun j ->
      match j with
      | J.Obj kvs ->
        J.Obj (List.map (fun (k, v) -> if k = "v" then (k, J.Int 2) else (k, v)) kvs)
      | j -> j);
  reject "id out of range" (fun j ->
      match j with
      | J.Obj kvs ->
        J.Obj
          (List.map
             (fun (k, v) -> if k = "total" then (k, J.Int 1) else (k, v))
             kvs)
      | j -> j);
  reject "not an object" (fun _ -> J.Str "nope")

(* One codec for a job result: the [subtree] verb's reply and a record's
   done entry. The encoded text is pinned (the wire bytes of a reply must
   not drift), and a counterexample entry written without "schedules", as
   earlier builds journaled it, still decodes. *)
let test_job_result_codec () =
  let zero =
    {|{"nodes":0,"steps_executed":0,"replays":0,"runtimes_built":0,"memo_hits":0,"sleep_pruned":0,"orbits_collapsed":0,"wall_s":0.0}|}
  in
  let ok =
    {
      Ckpt.Record.dj_id = 3;
      dj_verdict = Exhaustive.Ok 9;
      dj_stats = Exhaustive.zero_stats;
    }
  and cex =
    {
      Ckpt.Record.dj_id = 1;
      dj_verdict = Exhaustive.Counterexample [ Pid.c 0; Pid.s 0 ];
      dj_stats = Exhaustive.zero_stats;
    }
  in
  let decodes what text d =
    match Result.bind (J.of_string text) Ckpt.Record.done_of_json with
    | Ok d' -> check_bool (what ^ " decodes") true (d = d')
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  List.iter
    (fun (what, d, text) ->
      Alcotest.(check string) what text (J.to_string (Ckpt.Record.done_json d));
      decodes what text d)
    [
      ( "ok",
        ok,
        {|{"id":3,"verdict":"ok","schedules":9,"stats":|} ^ zero ^ "}" );
      ( "counterexample",
        cex,
        {|{"id":1,"verdict":"counterexample","schedules":null,"cex":["p1","q1"],"stats":|}
        ^ zero ^ "}" );
    ];
  decodes "counterexample without schedules"
    ({|{"id":1,"verdict":"counterexample","cex":["p1","q1"],"stats":|} ^ zero
   ^ "}")
    cex;
  (* malformed entries name the field at fault *)
  List.iter
    (fun (text, want) ->
      match Result.bind (J.of_string text) Ckpt.Record.done_of_json with
      | Ok _ -> Alcotest.failf "accepted %s" text
      | Error msg -> Alcotest.(check string) text want msg)
    [
      ({|{"id":"3"}|}, {|field "id" is not an integer|});
      ({|{"id":3,"verdict":"ok"}|}, {|missing field "schedules"|});
      ({|{"id":3,"verdict":"ok","schedules":9}|}, {|missing field "stats"|});
      ({|{"id":3,"verdict":"maybe"}|}, {|missing or unknown field "verdict"|});
    ]

(* ---------------------------------------------- the checkpointed engine *)

let scenario name ~n_s =
  match Mcheck.Scenario.find name ~n_s with
  | Ok sc -> sc
  | Error e -> Alcotest.fail e

let verdict_str = Test_exhaustive.verdict_str

(* The integer stats of a partitioned run are a deterministic function of
   its jobs and how they are grouped into memo-sharing calls, so two runs
   that answer the same jobs the same way agree on everything but
   [wall_s]. *)
let stats_str st =
  J.to_string (Exhaustive.stats_json { st with Exhaustive.wall_s = 0. })

let monolithic sc ~depth ~reduce =
  fst
    (Exhaustive.run
       ?reduce:(Mcheck.Scenario.reduction sc ~reduce)
       ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
       ~depth ~prop:sc.Mcheck.Scenario.sc_prop ())

(* scenario, n_s, depth, reduce: a safe run and a counterexample, each
   plain and reduced *)
let engine_cases =
  [
    ("safe-agreement", 2, 6, false);
    ("safe-agreement", 2, 6, true);
    ("race-false", 2, 6, false);
    ("race-false", 2, 6, true);
  ]

let case_label (name, n_s, depth, reduce) =
  Printf.sprintf "%s n_s %d depth %d reduce %b" name n_s depth reduce

let local_run ?cancel ?(interval_s = 0.) store (name, n_s, depth, reduce) =
  match
    Ckpt.Local.run ~interval_s ~reduce ?cancel ~store
      ~scenario:(scenario name ~n_s) ~depth ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "Ckpt.Local.run: %s" e

let load_record store =
  match Ckpt.Local.load_record store with
  | Ok (_, r) -> r
  | Error e -> Alcotest.failf "load_record: %s" e

let save_record store r =
  match Ckpt.Store.save store (Ckpt.Record.json r) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "save: %s" e

(* An uninterrupted run's verdict and stats ([run store case] journals
   into [store]; a local run by default), plus a record holding only the
   first half of its answered jobs — the state a run killed half-way
   leaves behind. *)
let half_done ?(run = fun store case -> local_run store case) case =
  with_store (fun store ->
      let verdict, stats = run store case in
      let full = load_record store in
      let total = full.Ckpt.Record.ck_total in
      let half =
        List.filteri (fun i _ -> i < total / 2) full.Ckpt.Record.ck_done
      in
      check_int "full record answers every job" total
        (List.length full.Ckpt.Record.ck_done);
      ( verdict,
        stats,
        Ckpt.Record.make ~config:full.Ckpt.Record.ck_config ~total
          ~done_:half ))

let test_local_matches_run () =
  List.iter
    (fun ((name, n_s, depth, reduce) as case) ->
      with_store (fun store ->
          let verdict, _ = local_run store case in
          Alcotest.(check string)
            (case_label case)
            (verdict_str (monolithic (scenario name ~n_s) ~depth ~reduce))
            (verdict_str verdict)))
    engine_cases

(* The shared memo is as sound across jobs as across branches: over the
   whole grid (both scenarios, n_s 1-3, depth 4-7, reduce on and off, every
   split depth), the local frontier run equals the monolithic run on
   verdict, credited count and lex-least counterexample. *)
let test_shared_memo_differential () =
  List.iter
    (fun name ->
      List.iter
        (fun n_s ->
          let sc = scenario name ~n_s in
          List.iter
            (fun depth ->
              List.iter
                (fun reduce ->
                  let want = verdict_str (monolithic sc ~depth ~reduce) in
                  for split_depth = 1 to depth - 1 do
                    match
                      Ckpt.Frontier.run ~split_depth ~reduce ~scenario:sc
                        ~depth
                        (Ckpt.Local.executor ())
                    with
                    | Error e -> Alcotest.fail e
                    | Ok o ->
                      Alcotest.(check string)
                        (Printf.sprintf "%s sd %d"
                           (case_label (name, n_s, depth, reduce))
                           split_depth)
                        want
                        (verdict_str o.Ckpt.Frontier.verdict)
                  done)
                [ false; true ])
            [ 4; 5; 6; 7 ])
        [ 1; 2; 3 ])
    [ "safe-agreement"; "race-false" ]

(* ... and as effective: on the depth-8 anchor the 125 jobs explore about
   the nodes of the monolithic search (ROADMAP probe: 6,390 vs 5,900),
   not the ~15x of one cold memo per job. *)
let test_shared_memo_nodes () =
  let sc = scenario "safe-agreement" ~n_s:3 in
  let _, mono =
    Exhaustive.run ~build:sc.Mcheck.Scenario.sc_build
      ~pids:sc.Mcheck.Scenario.sc_pids ~depth:8
      ~prop:sc.Mcheck.Scenario.sc_prop ()
  in
  match
    Ckpt.Frontier.run ~reduce:false ~scenario:sc ~depth:8
      (Ckpt.Local.executor ())
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let nodes = o.Ckpt.Frontier.stats.Exhaustive.nodes in
    check_bool
      (Printf.sprintf "%d frontier nodes <= 1.1 x %d monolithic" nodes
         mono.Exhaustive.nodes)
      true
      (10 * nodes <= 11 * mono.Exhaustive.nodes)

(* The resumed half runs in one memo-sharing call of its own, so its
   effort counters differ from the uninterrupted run's; they are the same
   for every resume of the same record. *)
let test_local_resume_half () =
  List.iter
    (fun case ->
      let verdict, _, half = half_done case in
      let resume () =
        with_store (fun store ->
            save_record store half;
            match Ckpt.Local.resume ~interval_s:0. ~store () with
            | Error e -> Alcotest.failf "%s: resume: %s" (case_label case) e
            | Ok (config, verdict', stats') ->
              check_bool "config from the record" true
                (config = half.Ckpt.Record.ck_config);
              Alcotest.(check string)
                (case_label case ^ " verdict")
                (verdict_str verdict) (verdict_str verdict');
              check_int "the final record answers every job"
                half.Ckpt.Record.ck_total
                (List.length (load_record store).Ckpt.Record.ck_done);
              stats')
      in
      let stats = resume () in
      Alcotest.(check string)
        (case_label case ^ " stats of two resumes")
        (stats_str stats)
        (stats_str (resume ())))
    engine_cases

(* A record the frontier cannot have produced is refused, not merged. *)
let test_local_resume_rejects () =
  let _, _, half = half_done (List.hd engine_cases) in
  let config = half.Ckpt.Record.ck_config in
  let rejects what r =
    with_store (fun store ->
        save_record store r;
        match Ckpt.Local.resume ~store () with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s: resumed" what)
  in
  rejects "wrong job total"
    (Ckpt.Record.make ~config ~total:(half.Ckpt.Record.ck_total + 1)
       ~done_:half.Ckpt.Record.ck_done);
  rejects "unknown scenario"
    {
      half with
      Ckpt.Record.ck_config =
        { config with Ckpt.Record.cf_scenario = "no-such-scenario" };
    };
  rejects "split depth at full depth"
    {
      half with
      Ckpt.Record.ck_config =
        {
          config with
          Ckpt.Record.cf_split_depth = config.Ckpt.Record.cf_depth;
        };
    }

(* A deadline that fires mid-run persists the answered jobs before the
   exception surfaces; resuming that store finishes with the uninterrupted
   answer. The interval is long, so only the cancel path journals them.
   The hook fires after half the polls of an uncancelled run, so it lands
   mid-run whatever the engine's per-run effort. *)
let test_local_cancel_resumes () =
  let case = ("safe-agreement", 2, 6, false) in
  let full_polls = ref 0 in
  let verdict, _ =
    with_store (fun store ->
        local_run
          ~cancel:(fun () ->
            incr full_polls;
            false)
          store case)
  in
  with_store (fun store ->
      let polls = ref 0 in
      let cancel () =
        incr polls;
        !polls > !full_polls / 2
      in
      (match local_run ~cancel ~interval_s:3600. store case with
      | exception Exhaustive.Cancelled -> ()
      | _ -> Alcotest.fail "the cancel hook never fired");
      let saved = load_record store in
      check_bool "progress persisted on cancel" true
        (saved.Ckpt.Record.ck_done <> []
        && List.length saved.Ckpt.Record.ck_done < saved.Ckpt.Record.ck_total);
      let resume store =
        match Ckpt.Local.resume ~store () with
        | Error e -> Alcotest.failf "resume: %s" e
        | Ok (_, verdict', stats') ->
          Alcotest.(check string) "verdict" (verdict_str verdict)
            (verdict_str verdict');
          stats'
      in
      let again =
        with_store (fun store' ->
            save_record store' saved;
            resume store')
      in
      Alcotest.(check string) "stats of two resumes"
        (stats_str (resume store))
        (stats_str again))

(* The journal rule every executor follows. A store that cannot take the
   first generation fails the run before any job runs. A store that
   refuses a later one costs nothing but that generation: the answer
   stands, the store reports [ckpt.save.error], and the older generation
   still resumes. A directory squatting on the temp name of generation
   [gen] makes exactly that save fail. [run store case] checks [case] into
   [store], journaling after every job. *)
let journal_rule ~label run =
  let case = ("safe-agreement", 2, 6, false) in
  let want =
    with_store (fun store -> verdict_str (fst (local_run store case)))
  in
  let blocked gen f =
    with_store (fun store ->
        let blocker =
          Filename.concat (Ckpt.Store.dir store)
            (Printf.sprintf "tmp-gen-%06d.ckpt" gen)
        in
        Unix.mkdir blocker 0o755;
        let sink, events = Obs.Sink.buffer () in
        match Ckpt.Store.create ~sink (Ckpt.Store.dir store) with
        | Error e -> Alcotest.failf "reopen: %s" e
        | Ok store -> f store blocker events)
  in
  blocked 0 (fun store _ _ ->
      match run store case with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: ran without a first generation" label);
  blocked 1 (fun store blocker events ->
      (match run store case with
      | Error e ->
        Alcotest.failf "%s: a failed save stopped the run: %s" label e
      | Ok verdict ->
        Alcotest.(check string) (label ^ ": the answer stands") want
          (verdict_str verdict));
      check_bool (label ^ ": ckpt.save.error reported") true
        (List.exists
           (fun ev -> ev.Obs.Event.name = Obs.Event.Name.ckpt_save_error)
           (events ()));
      check_bool (label ^ ": the store counts its failed saves") true
        (Ckpt.Store.save_errors store > 0);
      (match Ckpt.Local.load_record store with
      | Ok (0, r) ->
        check_int (label ^ ": generation 0 is the initial one") 0
          (List.length r.Ckpt.Record.ck_done)
      | Ok (g, _) -> Alcotest.failf "%s: loaded generation %d" label g
      | Error e -> Alcotest.failf "%s: %s" label e);
      Unix.rmdir blocker;
      match Ckpt.Local.resume ~store () with
      | Error e -> Alcotest.failf "%s: resume: %s" label e
      | Ok (_, verdict, _) ->
        Alcotest.(check string)
          (label ^ ": resumed") want (verdict_str verdict))

let test_local_journal_rule () =
  journal_rule ~label:"local" (fun store (name, n_s, depth, reduce) ->
      Ckpt.Local.run ~interval_s:0. ~reduce ~store
        ~scenario:(scenario name ~n_s) ~depth ()
      |> Result.map fst)

(* The served verb under the same rule: a later save that fails leaves
   the answer standing, and the reply's checkpoint field counts it. *)
let test_served_save_errors () =
  let save_errors ~blocked =
    with_store (fun store ->
        let dir = Ckpt.Store.dir store in
        if blocked then
          Unix.mkdir (Filename.concat dir "tmp-gen-000001.ckpt") 0o755;
        let params =
          J.Obj
            [
              ("scenario", J.Str "safe-agreement");
              ("n_s", J.Int 2);
              ("depth", J.Int 6);
              ("checkpoint_dir", J.Str dir);
            ]
        in
        match Svc.Jobs.run Svc.Protocol.Modelcheck params with
        | Error (_, msg) -> Alcotest.failf "blocked=%b: %s" blocked msg
        | Ok j ->
          check_bool "the answer stands" true
            (J.member "schedules" j = Some (J.Int 4096));
          Option.bind (J.member "checkpoint" j) (J.member "save_errors"))
  in
  check_bool "a healthy store reports no save errors" true
    (save_errors ~blocked:false = None);
  check_bool "a failed final save is counted" true
    (match save_errors ~blocked:true with
    | Some (J.Int n) -> n >= 1
    | _ -> false)

(* Stores written by an earlier build: one newest generation each, cut
   part-way through a run (binary codec, and JSON with a recorded
   counterexample), next to the fields that build's own resume printed. *)
let golden_stores =
  [ "safe_agreement_ns2_d6"; "race_false_ns1_d6_reduced" ]

let test_golden_store_resumes () =
  List.iter
    (fun name ->
      let src = Filename.concat "golden/ckpt" name in
      with_store (fun store ->
          Array.iter
            (fun f ->
              write_file
                (Filename.concat (Ckpt.Store.dir store) f)
                (read_file (Filename.concat src f)))
            (Sys.readdir src);
          match Ckpt.Store.create (Ckpt.Store.dir store) with
          | Error e -> Alcotest.failf "%s: reopen: %s" name e
          | Ok store -> (
            match Ckpt.Local.resume ~store () with
            | Error e -> Alcotest.failf "%s: resume: %s" name e
            | Ok (_, verdict, stats) ->
              let got =
                J.Obj
                  [
                    ( "verdict",
                      J.Str
                        (match verdict with
                        | Exhaustive.Ok _ -> "ok"
                        | Exhaustive.Counterexample _ -> "counterexample") );
                    ( "schedules",
                      match verdict with
                      | Exhaustive.Ok n -> J.Int n
                      | Exhaustive.Counterexample _ -> J.Null );
                    ( "cex",
                      match verdict with
                      | Exhaustive.Ok _ -> J.Null
                      | Exhaustive.Counterexample c ->
                        Exhaustive.schedule_json c );
                    ( "stats",
                      Exhaustive.stats_json
                        { stats with Exhaustive.wall_s = 0. } );
                  ]
              in
              let want =
                String.trim
                  (read_file
                     (Filename.concat "golden/ckpt" (name ^ ".expected.json")))
              in
              Alcotest.(check string) name want (J.to_string got))))
    golden_stores

let suite =
  [
    roundtrip_test Ckpt.Store.Json "store round-trip (json codec)";
    roundtrip_test Ckpt.Store.Binary "store round-trip (binary codec)";
    Alcotest.test_case "torn/corrupt tail rolls back (json)" `Quick
      (torn_write_codec Ckpt.Store.Json);
    Alcotest.test_case "torn/corrupt tail rolls back (binary)" `Quick
      (torn_write_codec Ckpt.Store.Binary);
    Alcotest.test_case "generations, pruning, reopen" `Quick
      test_generations_and_pruning;
    Alcotest.test_case "empty store and stray files" `Quick
      test_empty_and_garbage;
    Alcotest.test_case "record validation" `Quick test_record_validation;
    Alcotest.test_case "one job-result codec" `Quick test_job_result_codec;
    Alcotest.test_case "checkpointed run matches the monolithic run" `Quick
      test_local_matches_run;
    Alcotest.test_case "shared memo: frontier run = monolithic over a grid"
      `Quick test_shared_memo_differential;
    Alcotest.test_case "shared memo: depth-8 anchor within 1.1x mono nodes"
      `Quick test_shared_memo_nodes;
    Alcotest.test_case "half-answered store resumes to the full result"
      `Quick test_local_resume_half;
    Alcotest.test_case "resume rejects a mismatched record" `Quick
      test_local_resume_rejects;
    Alcotest.test_case "cancelled run resumes to the same answer" `Quick
      test_local_cancel_resumes;
    Alcotest.test_case "earlier build's golden stores resume" `Quick
      test_golden_store_resumes;
    Alcotest.test_case "journal rule: first save fatal, later saves not"
      `Quick test_local_journal_rule;
    Alcotest.test_case "served run counts failed later saves" `Quick
      test_served_save_errors;
  ]
