(* wfa — command-line front end for the Wait-Freedom-with-Advice library.

   $ wfa solve --task consensus --n 4 --fd omega --crashes 1:50
   $ wfa solve --task ksa --k 2 --n 5 --fd vector
   $ wfa solve --task renaming --j 3 --l 4 --policy kconc:2
   $ wfa classify --n 4
   $ wfa witness --kind strong-renaming --j 3
   $ wfa extract --n 3 --k 1 --crashes 2:300                              *)

open Cmdliner
open Simkit
open Tasklib
open Efd

(* ---------------------------------------------------------------- args *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of C-processes (= S-processes).")

let k_arg =
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Agreement parameter k.")

let j_arg =
  Arg.(value & opt int 3 & info [ "j" ] ~docv:"J" ~doc:"Renaming participants j.")

let l_arg =
  Arg.(value & opt (some int) None & info [ "l" ] ~docv:"L" ~doc:"Renaming name-space size (default j+k-1).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let seeds_arg =
  Arg.(value & opt int 25 & info [ "seeds" ] ~docv:"COUNT" ~doc:"Number of seeded runs.")

let budget_arg =
  Arg.(value & opt int 400_000 & info [ "budget" ] ~docv:"STEPS" ~doc:"Step budget per run.")

(* --crashes and --policy parse through Arg.conv: a malformed value is a
   cmdliner parse error (usage + clean nonzero exit), not an escaping
   exception with a backtrace. *)

let crashes_conv : (int * int) list Arg.conv =
  let parse s =
    if s = "" then Ok []
    else
      let item it =
        let err () =
          Error
            (`Msg
               (Fmt.str "invalid crash %S, expected I:T (0-based index, time)"
                  it))
        in
        match String.split_on_char ':' it with
        | [ i; t ] -> (
          match (int_of_string_opt i, int_of_string_opt t) with
          | Some i, Some t when i >= 0 && t >= 0 -> Ok (i, t)
          | _ -> err ())
        | _ -> err ()
      in
      List.fold_left
        (fun acc it ->
          match (acc, item it) with
          | Error e, _ -> Error e
          | _, Error e -> Error e
          | Ok l, Ok c -> Ok (l @ [ c ]))
        (Ok [])
        (String.split_on_char ',' s)
  in
  let print ppf l =
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") int int))
      l
  in
  Arg.conv (parse, print)

let crashes_arg =
  Arg.(
    value
    & opt crashes_conv []
    & info [ "crashes" ] ~docv:"I:T,I:T"
        ~doc:"Crash S-process qI+1 at time T (comma-separated, 0-based indices).")

(* the CLI enums are Scenario.Build's name tables — the same lists the
   server and the scenario-file loader validate against, so a name the CLI
   accepts cannot be one the data format rejects *)
let task_arg =
  Arg.(
    value
    & opt (enum Scenario.Build.task_assoc) `Consensus
    & info [ "task" ] ~docv:"TASK"
        ~doc:
          (Fmt.str "Task: %s."
             (String.concat " | " Scenario.Build.task_names)))

let fd_arg =
  Arg.(
    value
    & opt (enum Scenario.Build.fd_assoc) `Vector
    & info [ "fd" ] ~docv:"FD"
        ~doc:(Fmt.str "Failure detector: %s."
                (String.concat " | " Scenario.Build.fd_names)))

let policy_conv : Scenario.Build.policy Arg.conv =
  let parse s =
    match Scenario.Build.policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p = Fmt.string ppf (Scenario.Build.policy_to_string p) in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value
    & opt policy_conv Scenario.Build.Fair
    & info [ "policy" ] ~docv:"POLICY" ~doc:"Schedule: fair | kconc:K | uniform:K.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write the result as JSON to $(docv).")

(* ------------------------------------------------------------- helpers *)

let policy_of_spec = Scenario.Build.policy_factory

(* Range-checking a crash index needs [n_s], known only at run time: report
   cleanly on stderr and exit nonzero without a backtrace. *)
let with_pattern ~n_s crashes f =
  match List.find_opt (fun (i, _) -> i >= n_s) crashes with
  | Some (i, _) ->
    Fmt.epr "wfa: --crashes index %d out of range (S-processes: 0..%d)@." i
      (n_s - 1);
    2
  | None ->
    f
      (if crashes = [] then Failure.failure_free n_s
       else Failure.pattern ~n_s crashes)

(* An unwritable --json path must be a one-line diagnostic and a nonzero
   exit, not an uncaught Sys_error with a backtrace. *)
let write_json path json =
  match
    let oc = open_out path in
    output_string oc (Obs.Json.to_string_pretty json);
    close_out oc
  with
  | () -> Fmt.pr "wrote %s@." path
  | exception Sys_error msg ->
    Fmt.epr "wfa: cannot write --json output: %s@." msg;
    exit 2

(* A usage or configuration error: say so on stderr, exit 2. *)
let fail ~cmd msg =
  Fmt.epr "wfa %s: %s@." cmd msg;
  2

(* Run one scenario file through the same local path the campaign runner
   and the server's workers use (Svc.Jobs.run), and reflect the scenario's
   expectation in the exit code: pass 0, fail/timeout 1, load or
   unexpected errors 2. The other flags of the host command are ignored —
   the file is the whole configuration. *)
let run_scenario_file ~cmd path =
  match Scenario.Spec.load path with
  | Error msg ->
    Fmt.epr "wfa %s: %s@." cmd msg;
    2
  | Ok sp ->
    let verb = Scenario.Spec.verb sp in
    if verb <> cmd then begin
      Fmt.epr
        "wfa %s: %s describes a %s scenario — run it with wfa %s or wfa \
         campaign@."
        cmd path verb verb;
      2
    end
    else begin
      let s =
        Svc.Campaign.run_local ~name:sp.Scenario.Spec.sp_name [ sp ]
      in
      let row = List.hd s.Svc.Campaign.s_rows in
      Fmt.pr "scenario %s@.verb     %s@.expect   %s@.outcome  %s (%s)@."
        sp.Scenario.Spec.sp_name verb
        (Scenario.Spec.expect_string sp.Scenario.Spec.sp_expect)
        (Scenario.Spec.outcome_string row.Svc.Campaign.row_outcome)
        row.Svc.Campaign.row_detail;
      match row.Svc.Campaign.row_outcome with
      | Scenario.Spec.Pass -> 0
      | Scenario.Spec.Fail | Scenario.Spec.Timeout -> 1
      | Scenario.Spec.Error -> 2
    end

let scenario_file_arg cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario-file" ] ~docv:"FILE"
        ~doc:
          (Fmt.str
             "Run the %s scenario described in $(docv) (ignoring the other \
              flags) and exit 0 iff its declared expectation holds."
             cmd))

(* ------------------------------------------------------------ commands *)

let solve scenario_file task_kind fd_kind policy n k j l seed budget crashes
    json =
  match scenario_file with
  | Some path -> run_scenario_file ~cmd:"solve" path
  | None ->
  let task = Scenario.Build.task task_kind ~n ~k ~j ~l in
  let algo = Scenario.Build.algo task_kind task ~k in
  let fd = Scenario.Build.fd fd_kind ~k in
  with_pattern ~n_s:n crashes (fun pattern ->
      let rng = Random.State.make [| seed |] in
      let input = Task.sample_input task rng in
      let r =
        Run.execute ~budget ~policy:(policy_of_spec policy) ~task ~algo ~fd
          ~pattern ~input ~seed ()
      in
      Fmt.pr
        "task     %s@.algo     %s@.fd       %s@.pattern  %a@.%a@.verdict  %s@."
        task.Task.task_name algo.Algorithm.algo_name (Fdlib.Fd.name fd)
        Failure.pp_pattern pattern Run.pp_report r
        (if Run.ok r then "OK" else "FAILED");
      Option.iter
        (fun path ->
          write_json path
            (Run.report_json ~labels:(Run.labels ~task ~algo ~fd ~seed) r))
        json;
      if Run.ok r then 0 else 1)

let classify n seeds =
  let table = Classifier.table ~seeds_per_level:seeds ~n () in
  Fmt.pr "%a@." Classifier.pp_table table;
  if List.for_all Classifier.consistent table then 0 else 1

let witness kind n j seeds explain =
  let seeds = List.init seeds (fun i -> i + 1) in
  let w =
    match kind with
    | `Strong_renaming -> Adversary.strong_renaming_witness ~seeds ~n ~j ()
    | `Consensus_reduction -> Adversary.consensus_reduction_witness ~seeds ~n ()
  in
  match w with
  | Some w ->
    if explain then begin
      let task, algo =
        match kind with
        | `Strong_renaming -> (Renaming.strong ~n ~j, Renaming_algos.fig4 ())
        | `Consensus_reduction ->
          ( Set_agreement.make ~u:[ 0; 1 ] ~n ~k:1 (),
            Adversary.consensus_via_strong_renaming () )
      in
      Adversary.explain
        ~policy:(Run.k_concurrent_uniform_policy 2)
        ~task ~algo ~fd:Fdlib.Fd.trivial w Fmt.stdout;
      Fmt.pr "@."
    end
    else Fmt.pr "%a@." Adversary.pp_witness w;
    0
  | None ->
    Fmt.pr "no witness found in %d seeds@." (List.length seeds);
    1

let fuzz scenario_file kind n j seed trials domains do_shrink explain json =
  match scenario_file with
  | Some path -> run_scenario_file ~cmd:"fuzz" path
  | None ->
  match Scenario.Build.fuzz_target kind ~n ~j with
  | Error msg ->
    Fmt.epr "wfa fuzz: %s@." msg;
    2
  | Ok target ->
  let res = Adversary.fuzz_target ~domains ~seed ~budget:trials target () in
  Fmt.pr "target   %s@.trials   %d/%d (%d domain%s, %.3fs, %.0f seeds/s)@."
    target.Adversary.t_name res.Adversary.f_trials res.Adversary.f_budget
    res.Adversary.f_domains
    (if res.Adversary.f_domains = 1 then "" else "s")
    res.Adversary.f_wall_s
    (float_of_int res.Adversary.f_trials /. Float.max 1e-9 res.Adversary.f_wall_s);
  match res.Adversary.f_witness with
  | None ->
    Fmt.pr "no witness found in %d trials@." res.Adversary.f_trials;
    Option.iter
      (fun path ->
        write_json path
          (Obs.Json.Obj [ ("fuzz", Adversary.fuzz_result_json res) ]))
      json;
    1
  | Some w ->
    Fmt.pr "trial    %d@.%a@." (Option.get res.Adversary.f_trial)
      Adversary.pp_witness w;
    let shrunk =
      if not do_shrink then None
      else begin
        let w', sh = Adversary.shrink_target target w in
        Fmt.pr "shrink   %a@.%a@." Adversary.pp_shrink_report sh
          Adversary.pp_witness w';
        Some (w', sh)
      end
    in
    if explain then begin
      let w = match shrunk with Some (w', _) -> w' | None -> w in
      Adversary.explain_target target w Fmt.stdout;
      Fmt.pr "@."
    end;
    Option.iter
      (fun path ->
        write_json path
          (Obs.Json.Obj
             (("fuzz", Adversary.fuzz_result_json res)
             ::
             (match shrunk with
             | None -> []
             | Some (w', sh) ->
               [
                 ("shrunk", Adversary.witness_json w');
                 ("shrink", Adversary.shrink_report_json sh);
               ]))))
      json;
    0

let extract n k seed crashes =
  with_pattern ~n_s:n crashes @@ fun pattern ->
  let task = Set_agreement.make ~n ~k () in
  let algo = Ksa.make ~max_rounds:128 ~k () in
  let fd = Fdlib.Leader_fds.vector_omega_k_silent ~max_stab:25 ~k () in
  let rng = Random.State.make [| seed |] in
  let inputs = Task.sample_input task rng in
  let result =
    Extraction.run ~outer_budget:15_000 ~sample_period:400 ~explore_budget:2_500
      ~max_samples:200 ~k ~fd ~algo ~inputs ~n_c:n ~pattern ~seed ()
  in
  let ok =
    Fdlib.Props.anti_omega_k_ok pattern result.Extraction.x_outputs ~k
      ~suffix:4_000
  in
  let witnesses =
    Fdlib.Props.anti_omega_k_witnesses pattern result.Extraction.x_outputs
      ~suffix:4_000
  in
  Fmt.pr "pattern            %a@." Failure.pp_pattern pattern;
  Fmt.pr "samples            %d@." result.Extraction.x_samples;
  Fmt.pr "explorations       %d@." result.Extraction.x_explorations;
  Fmt.pr "anti-Omega-%d holds %b@." k ok;
  Fmt.pr "spared correct     %a@."
    Fmt.(list ~sep:(any ", ") (fun ppf q -> pf ppf "q%d" (q + 1)))
    witnesses;
  if ok then 0 else 1

let emulate n seed crashes budget =
  with_pattern ~n_s:n crashes @@ fun pattern ->
  let result =
    Emulation.run ~budget
      ~fd:(Fdlib.Classic.eventually_strong ~max_stab:60 ())
      ~pattern ~seed Emulation.omega_from_eventually_strong
  in
  let ok =
    Fdlib.Props.omega_ok pattern result.Emulation.em_outputs
      ~suffix:(budget / 8)
  in
  Fmt.pr "reduction          Omega <= <>S (suspicion counting)@.";
  Fmt.pr "pattern            %a@." Failure.pp_pattern pattern;
  Fmt.pr "steps              %d@." result.Emulation.em_steps;
  Fmt.pr "omega property     %b@." ok;
  if ok then 0 else 1

(* Shared by modelcheck and resume so the two commands' --json output
   diffs field-for-field: a resumed run must be indistinguishable from an
   uninterrupted one on every deterministic field. *)
let finish_check ~scenario ~depth ~n_s ~reduce ~json ~engine ~dist_fields
    verdict stats =
  Fmt.pr "engine: %s@." engine;
  Fmt.pr "stats:  %a@." Exhaustive.pp_stats stats;
  Option.iter
    (fun path ->
      write_json path
        (Obs.Json.Obj
           ([
              ("scenario", Obs.Json.Str scenario);
              ("depth", Obs.Json.Int depth);
              ("n_s", Obs.Json.Int n_s);
              ("reduce", Obs.Json.Bool reduce);
            ]
           @ Exhaustive.verdict_fields verdict
           @ [
               (* mirrored at top level so local and distributed runs
                  diff field-for-field without digging into stats *)
               ("sleep_pruned", Obs.Json.Int stats.Exhaustive.sleep_pruned);
               ( "orbits_collapsed",
                 Obs.Json.Int stats.Exhaustive.orbits_collapsed );
               ("stats", Exhaustive.stats_json stats);
             ]
           @ dist_fields)))
    json;
  match verdict with
  | Exhaustive.Ok n ->
    Fmt.pr "%s: %d schedules of depth <= %d, property holds@." scenario n
      depth;
    0
  | Exhaustive.Counterexample cex ->
    Fmt.pr "VIOLATION under schedule %a@."
      Fmt.(list ~sep:(any " ") Pid.pp)
      cex;
    1

let dist_report (o : Dist.Coordinator.fleet Ckpt.Frontier.outcome) =
  let workers = List.length o.executor.workers in
  let dead =
    List.filter (fun w -> w.Dist.Coordinator.wk_dead) o.executor.workers
  in
  Fmt.pr "dist:   %d workers (%d failed), %d subtree jobs, %d re-dispatched@."
    workers (List.length dead) o.jobs o.executor.redispatched;
  [
    ( "dist",
      Obs.Json.Obj
        [
          ("workers", Obs.Json.Int workers);
          ("workers_dead", Obs.Json.Int (List.length dead));
          ("jobs", Obs.Json.Int o.jobs);
          ("redispatched", Obs.Json.Int o.executor.redispatched);
          ("frontier_pruned", Obs.Json.Int o.pruned);
        ] );
  ]

(* A fresh or resumed frontier-driver run, waiting for its executor. *)
type start = {
  start :
    'a. 'a Ckpt.Frontier.executor -> ('a Ckpt.Frontier.outcome, string) result;
}

(* The partitioned check behind modelcheck --checkpoint/--workers and
   resume: the in-process executor, or a fleet when workers are given. *)
let partitioned ~cmd ~workers ~finish ?store ~resumed { start } =
  (* a failed later save leaves the answer standing but the store behind
     it: say so, and count the failures in --json *)
  let ckpt_fields () =
    match store with
    | None -> []
    | Some store ->
      let errors = Ckpt.Store.save_errors store in
      if errors > 0 then
        Fmt.epr "wfa %s: warning: %d checkpoint save(s) failed; %s lags \
                 behind this answer@."
          cmd errors (Ckpt.Store.dir store);
      [ Ckpt.Local.checkpoint_field store ~resumed ]
  in
  let report ~engine dist_fields = function
    | Error msg -> fail ~cmd msg
    | Ok o ->
      finish ~engine ~dist_fields:(dist_fields o @ ckpt_fields ())
        o.Ckpt.Frontier.verdict o.stats
  in
  match workers with
  | [] ->
    report ~engine:"checkpointed" (fun _ -> []) (start (Ckpt.Local.executor ()))
  | workers -> (
    match Dist.Coordinator.executor workers with
    | Error msg -> fail ~cmd msg
    | Ok exec ->
      report ~engine:"distributed" dist_report (start exec))

let modelcheck scenario_file depth n_s reduce scenario workers split_depth
    checkpoint checkpoint_interval_s json =
  match scenario_file with
  | Some path -> run_scenario_file ~cmd:"modelcheck" path
  | None ->
  (* exhaustively check a named scenario over every schedule (default:
     2-process safe agreement); the S-processes are idle and symmetric, so
     --reduce declares them one symmetry class on top of sleep-set
     pruning. With --workers the frontier is split and fanned out to a
     fleet of wfa serve instances (lib/dist); the merge algebra makes the
     verdict and credited count identical to the local run. *)
  let n_s = max 1 n_s in
  match Mcheck.Scenario.find scenario ~n_s with
  | Error msg -> fail ~cmd:"modelcheck" msg
  | Ok sc -> (
    let finish =
      finish_check ~scenario:sc.Mcheck.Scenario.sc_name ~depth ~n_s ~reduce
        ~json
    in
    let store =
      match checkpoint with
      | None -> Ok None
      | Some dir -> Result.map Option.some (Ckpt.Store.create dir)
    in
    match store with
    | Error msg -> fail ~cmd:"modelcheck" msg
    | Ok None when workers = [] -> (
      let red = Mcheck.Scenario.reduction sc ~reduce in
      match
        Exhaustive.run ?reduce:red ~build:sc.Mcheck.Scenario.sc_build
          ~pids:sc.Mcheck.Scenario.sc_pids ~depth
          ~prop:sc.Mcheck.Scenario.sc_prop ()
      with
      | exception Invalid_argument msg -> fail ~cmd:"modelcheck" msg
      | verdict, stats ->
        finish
          ~engine:
            (if red = None then "incremental+memo"
             else "incremental+sleep+symmetry")
          ~dist_fields:[] verdict stats)
    | Ok store ->
      let journal = Option.map (fun s -> (s, checkpoint_interval_s)) store in
      partitioned ~cmd:"modelcheck" ~workers ~finish ?store ~resumed:false
        {
          start =
            (fun exec ->
              Ckpt.Frontier.run ?journal ?split_depth ~reduce ~scenario:sc
                ~depth exec);
        })

let resume dir workers checkpoint_interval_s json =
  (* pick the run back up from its journal: the record's config decides
     scenario/depth/reduce/split-depth, the caller only decides the fleet *)
  match Ckpt.Store.create dir with
  | Error msg -> fail ~cmd:"resume" msg
  | Ok store -> (
    match Ckpt.Local.load_record store with
    | Error msg -> fail ~cmd:"resume" msg
    | Ok ((gen, r) as loaded) ->
      let cfg = r.Ckpt.Record.ck_config in
      Fmt.pr "resume: generation %d, %d/%d subtree jobs already done@." gen
        (List.length r.Ckpt.Record.ck_done)
        r.Ckpt.Record.ck_total;
      partitioned ~cmd:"resume" ~workers
        ~finish:
          (finish_check ~scenario:cfg.Ckpt.Record.cf_scenario
             ~depth:cfg.Ckpt.Record.cf_depth ~n_s:cfg.Ckpt.Record.cf_n_s
             ~reduce:cfg.Ckpt.Record.cf_reduce ~json)
        ~store ~resumed:true
        {
          start =
            (fun exec ->
              Ckpt.Frontier.resume ~store ~interval_s:checkpoint_interval_s
                loaded exec);
        })

(* A fast, machine-readable slice of the bench suite (the full tables live
   in bench/main.exe --record): an E1-style batch, an E5-style batch and a
   low-depth exhaustive-engine comparison, serialized as one wfa.bench
   record. *)
let bench json =
  let record =
    Obs.Bench_record.create ~id:"smoke"
      ~title:"wfa bench smoke: 1-concurrent, ksa, exhaustive engines" ()
  in
  let failures = ref 0 in
  let batch ~section ~policy ~task ~algo ~fd ~env ~n_seeds () =
    let results =
      List.init n_seeds (fun i ->
          let seed = i + 1 in
          let rng = Random.State.make [| seed; 0xbe |] in
          let pattern = env.Failure.sample rng ~horizon:2_000 in
          let input = Task.sample_input task rng in
          Run.execute ~policy ~task ~algo ~fd ~pattern ~input ~seed ())
    in
    let pass = List.length (List.filter Run.ok results) in
    let total = List.length results in
    if pass < total then incr failures;
    Obs.Bench_record.row record
      ~labels:
        [
          ("section", section);
          ("task", task.Task.task_name);
          ("fd", Fdlib.Fd.name fd);
        ]
      [ ("pass", Obs.Json.Int pass); ("total", Obs.Json.Int total) ];
    Fmt.pr "%-16s %-28s %d/%d@." section task.Task.task_name pass total
  in
  let consensus = Set_agreement.consensus ~n:3 () in
  batch ~section:"1-concurrent"
    ~policy:(Run.k_concurrent_policy 1)
    ~task:consensus
    ~algo:(One_concurrent.make consensus)
    ~fd:Fdlib.Fd.trivial
    ~env:(Failure.wait_free_env 3) ~n_seeds:4 ();
  let ksa = Set_agreement.make ~n:3 ~k:1 () in
  batch ~section:"ksa" ~policy:Run.fair_policy ~task:ksa
    ~algo:(Ksa.make ~k:1 ())
    ~fd:(Fdlib.Leader_fds.vector_omega_k ~max_stab:40 ~k:1 ())
    ~env:(Failure.e_t ~n_s:3 ~t:2)
    ~n_seeds:4 ();
  (* low-depth checker comparison: replay baseline vs incremental+memo *)
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
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  let pids = [ Pid.c 0; Pid.c 1 ] in
  let engine label run =
    let verdict, st = run () in
    let ok = match verdict with Exhaustive.Ok _ -> true | _ -> false in
    if not ok then incr failures;
    Obs.Bench_record.row record
      ~labels:[ ("section", "checker"); ("engine", label) ]
      [
        ( "schedules",
          match verdict with
          | Exhaustive.Ok n -> Obs.Json.Int n
          | Exhaustive.Counterexample _ -> Obs.Json.Null );
        ("steps_executed", Obs.Json.Int st.Exhaustive.steps_executed);
        ("memo_hits", Obs.Json.Int st.Exhaustive.memo_hits);
      ];
    Fmt.pr "%-16s %-28s %d steps@." "checker" label
      st.Exhaustive.steps_executed
  in
  engine "replay-baseline" (fun () ->
      Exhaustive.run_replay ~build ~pids ~depth:6 ~prop ());
  engine "incremental-memo" (fun () ->
      Exhaustive.run ~build ~pids ~depth:6 ~prop ());
  let path =
    match json with
    | Some p ->
      write_json p (Obs.Bench_record.to_json record);
      p
    | None -> Obs.Bench_record.write record
  in
  Fmt.pr "recorded %d rows -> %s@." (Obs.Bench_record.rows record) path;
  if !failures = 0 then 0 else 1

(* ------------------------------------------------------- serve / call *)

let serve socket listen workers shards queue deadline_ms max_frame events =
  (* --listen supersedes --socket; --socket PATH keeps meaning what it
     always meant (a bare path parses as a Unix socket address) *)
  match Svc.Addr.of_string (Option.value listen ~default:socket) with
  | Error msg ->
    Fmt.epr "wfa serve: %s@." msg;
    2
  | Ok addr ->
    let cfg =
      {
        Svc.Server.listen = addr;
        workers;
        shards;
        queue_bound = queue;
        default_deadline_ms = deadline_ms;
        max_frame;
        max_reply = Svc.Frame.max_wire_len;
      }
    in
    let sink = if events then Some (Obs.Sink.stdout ()) else None in
    Svc.Server.run ?sink
      ~on_listen:(fun bound ->
        (* the bound address, not the configured one: tcp::0 resolves to
           the kernel-chosen port here, and scripts parse this line *)
        Fmt.pr "wfa serve: listening on %s (workers %d, shards %d, queue %d)@."
          (Svc.Addr.to_string bound) workers shards queue)
      cfg;
    Fmt.pr "wfa serve: drained and stopped@.";
    0

(* --pipeline N: write all N copies of the request before reading any
   response, then collect N responses matched by id (completion order, not
   send order — the point of pipelining). N = 1 is the plain round-trip. *)
let call socket verb params deadline_ms pipeline retry codec =
  match Obs.Json.of_string params with
  | Error msg ->
    Fmt.epr "wfa call: invalid --params JSON: %s@." msg;
    2
  | Ok params when pipeline < 1 ->
    ignore params;
    Fmt.epr "wfa call: --pipeline must be >= 1@.";
    2
  | Ok params -> (
    match Svc.Client.connect ~retries:retry ~codec socket with
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "wfa call: cannot connect to %s: %s@." socket
        (Unix.error_message e);
      2
    | exception Invalid_argument msg ->
      Fmt.epr "wfa call: %s@." msg;
      2
    | client when pipeline = 1 ->
      let r = Svc.Client.call ?deadline_ms ~params client verb in
      Svc.Client.close client;
      (match r with
      | Ok result ->
        Fmt.pr "%s@?" (Obs.Json.to_string_pretty result);
        0
      | Error (Svc.Client.Server (code, msg)) ->
        Fmt.epr "wfa call: %s: %s@." (Svc.Protocol.err_code_string code) msg;
        1
      | Error (Svc.Client.Transport _ as e) ->
        Fmt.epr "wfa call: %s@." (Svc.Client.error_string e);
        2)
    | client -> (
      let sent = ref [] in
      let send_error = ref None in
      (try
         for _ = 1 to pipeline do
           match Svc.Client.send ?deadline_ms ~params client verb with
           | Ok id -> sent := id :: !sent
           | Error e ->
             send_error := Some e;
             raise Exit
         done
       with Exit -> ());
      match !send_error with
      | Some e ->
        Svc.Client.close client;
        Fmt.epr "wfa call: %s@." (Svc.Client.error_string e);
        2
      | None ->
        let ok = ref 0 and failed = ref 0 and transport = ref None in
        (try
           for _ = 1 to pipeline do
             match Svc.Client.recv client with
             | Ok (id, Ok _) ->
               incr ok;
               ignore id
             | Ok (id, Error e) ->
               incr failed;
               Fmt.epr "wfa call: id %d: %s@." id (Svc.Client.error_string e)
             | Error e ->
               transport := Some e;
               raise Exit
           done
         with Exit -> ());
        Svc.Client.close client;
        (match !transport with
        | Some e ->
          Fmt.epr "wfa call: %s@." (Svc.Client.error_string e);
          2
        | None ->
          Fmt.pr "pipeline %d: ok %d, failed %d@." pipeline !ok !failed;
          if !failed = 0 then 0 else 1)))

(* ------------------------------------------------------------ campaign *)

(* Expand a campaign file into its scenario matrix and run every cell,
   either against a live server (the scenarios travel as scenario-verb
   requests on one pipelined connection) or in-process. The summary table
   always prints; --json additionally writes the wfa.bench record the
   baseline gate consumes. Exit 0 iff every scenario passed. *)
let campaign file socket local window deadline_ms json list_only =
  match Scenario.Campaign.load file with
  | Error msg ->
    Fmt.epr "wfa campaign: %s@." msg;
    2
  | Ok c -> (
    match Scenario.Campaign.expand c with
    | Error msg ->
      Fmt.epr "wfa campaign: %s@." msg;
      2
    | Ok specs ->
      if list_only then begin
        List.iter
          (fun sp ->
            Fmt.pr "%-60s %s  %s@." sp.Scenario.Spec.sp_name
              (Scenario.Spec.verb sp)
              (Scenario.Spec.expect_string sp.Scenario.Spec.sp_expect))
          specs;
        Fmt.pr "%d scenarios@." (List.length specs);
        0
      end
      else begin
        let name = c.Scenario.Campaign.c_name in
        let summary =
          if local then
            Ok
              (Svc.Campaign.run_local ?default_deadline_ms:deadline_ms ~name
                 specs)
          else
            match Svc.Client.connect ~retries:3 socket with
            | exception Unix.Unix_error (e, _, _) ->
              Error
                (Fmt.str "cannot connect to %s: %s" socket
                   (Unix.error_message e))
            | exception Invalid_argument msg -> Error msg
            | client ->
              let s =
                Svc.Campaign.run_client ~window
                  ?default_deadline_ms:deadline_ms ~name ~client specs
              in
              Svc.Client.close client;
              Ok s
        in
        match summary with
        | Error msg ->
          Fmt.epr "wfa campaign: %s@." msg;
          2
        | Ok s ->
          Fmt.pr "%a" Svc.Campaign.pp_summary s;
          Option.iter
            (fun path ->
              write_json path
                (Obs.Bench_record.to_json (Svc.Campaign.record s)))
            json;
          if Svc.Campaign.ok s then 0 else 1
      end)

(* ---------------------------------------------------------------- main *)

let solve_cmd =
  let doc = "Run one EFD task-solving run and report the verdict." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const solve $ scenario_file_arg "solve" $ task_arg $ fd_arg
      $ policy_arg $ n_arg $ k_arg $ j_arg $ l_arg $ seed_arg $ budget_arg
      $ crashes_arg $ json_arg)

let classify_cmd =
  let doc = "Measure the task hierarchy (Theorem 10)." in
  Cmd.v
    (Cmd.info "classify" ~doc)
    Term.(const classify $ n_arg $ seeds_arg)

let witness_kind_arg =
  Arg.(
    value
    & opt (enum
             [ ("strong-renaming", `Strong_renaming);
               ("consensus-reduction", `Consensus_reduction) ])
        `Strong_renaming
    & info [ "kind" ] ~docv:"KIND" ~doc:"strong-renaming | consensus-reduction.")

let witness_cmd =
  let doc = "Search for an impossibility witness (Lemma 11 / Theorem 12)." in
  Cmd.v
    (Cmd.info "witness" ~doc)
    Term.(const witness $ witness_kind_arg $ n_arg $ j_arg
          $ Arg.(value & opt int 500 & info [ "seeds" ] ~docv:"COUNT" ~doc:"Seeds to try.")
          $ Arg.(value & flag & info [ "explain" ] ~doc:"Replay the witness with tracing and print the violating interleaving."))

let fuzz_cmd =
  let doc =
    "Domain-parallel randomized fuzzing for an impossibility witness, with \
     optional delta-debugging shrinking."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ scenario_file_arg "fuzz"
      $ Arg.(
          value
          & opt (enum (List.map (fun k -> (k, k)) Scenario.Build.fuzz_kinds))
              "strong-renaming"
          & info [ "kind" ] ~docv:"KIND"
              ~doc:
                (Fmt.str "%s." (String.concat " | " Scenario.Build.fuzz_kinds)))
      $ n_arg $ j_arg $ seed_arg
      $ Arg.(value & opt int 2_000
             & info [ "budget" ] ~docv:"TRIALS" ~doc:"Fuzz trials to run.")
      $ Arg.(value & opt int 1
             & info [ "domains" ] ~docv:"D"
                 ~doc:"Worker domains (the witness is identical for any D).")
      $ Arg.(value & flag
             & info [ "shrink" ]
                 ~doc:"Minimize the witness (crashes, schedule, inputs) by \
                       delta debugging.")
      $ Arg.(value & flag
             & info [ "explain" ]
                 ~doc:"Replay the (shrunk) witness with tracing and print \
                       the violating interleaving.")
      $ json_arg)

let extract_cmd =
  let doc = "Extract anti-Omega-k from a detector solving k-set agreement (Theorem 8)." in
  Cmd.v
    (Cmd.info "extract" ~doc)
    Term.(const extract $ n_arg $ k_arg $ seed_arg $ crashes_arg)

let emulate_cmd =
  let doc = "Emulate Omega from an eventually-strong detector (distributed reduction)." in
  Cmd.v
    (Cmd.info "emulate" ~doc)
    Term.(const emulate $ n_arg $ seed_arg $ crashes_arg
          $ Arg.(value & opt int 30_000 & info [ "budget" ] ~docv:"STEPS" ~doc:"Run length."))

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Journal progress to $(docv) (created if missing): a crash or \
           SIGKILL at any point leaves a consistent generation that wfa \
           resume continues from, with verdict and credited count \
           identical to an uninterrupted run.")

let checkpoint_interval_arg =
  Arg.(
    value
    & opt float Ckpt.Local.default_interval_s
    & info [ "checkpoint-interval-s" ] ~docv:"S"
        ~doc:"Seconds between journal generations (a generation is also \
              written before the first job and at completion).")

let modelcheck_cmd =
  let doc =
    "Exhaustively model-check a scenario over all schedules, locally or \
     fanned out over a worker fleet."
  in
  Cmd.v
    (Cmd.info "modelcheck" ~doc)
    Term.(const modelcheck $ scenario_file_arg "modelcheck"
          $ Arg.(value & opt int 10 & info [ "depth" ] ~docv:"DEPTH" ~doc:"Schedule depth.")
          $ Arg.(value & opt int 1 & info [ "n-s" ] ~docv:"N" ~doc:"Number of (idle) S-processes in the schedule.")
          $ Arg.(value & flag & info [ "reduce" ] ~doc:"Enable sleep-set partial-order reduction and S-process symmetry collapsing.")
          $ Arg.(value & opt string "safe-agreement"
                 & info [ "scenario" ] ~docv:"NAME"
                     ~doc:"Scenario to check: safe-agreement | race-false \
                           (a seeded violation, for testing the \
                           counterexample path).")
          $ Arg.(value & opt (list string) []
                 & info [ "workers" ] ~docv:"ADDR,..."
                     ~doc:"Distribute over these wfa serve workers \
                           (tcp:HOST:PORT or unix:PATH, comma-separated). \
                           Empty = run locally.")
          $ Arg.(value & opt (some int) None
                 & info [ "split-depth" ] ~docv:"D"
                     ~doc:"Frontier depth for distribution (default: \
                           min 3 (depth-1)).")
          $ checkpoint_dir_arg
          $ checkpoint_interval_arg
          $ json_arg)

let resume_cmd =
  let doc =
    "Resume a checkpointed model-check from its journal directory; the \
     record's config (scenario, depth, reduction, split depth) wins, only \
     the fleet is the caller's choice."
  in
  Cmd.v
    (Cmd.info "resume" ~doc)
    Term.(
      const resume
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"DIR"
                 ~doc:"Checkpoint directory written by modelcheck \
                       --checkpoint.")
      $ Arg.(value & opt (list string) []
             & info [ "workers" ] ~docv:"ADDR,..."
                 ~doc:"Redispatch unfinished subtrees over these wfa serve \
                       workers (same fleet or a different one — workers \
                       are stateless). Empty = finish in-process.")
      $ checkpoint_interval_arg
      $ json_arg)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/wfa.sock"
    & info [ "socket" ] ~docv:"ADDR"
        ~doc:"Server address: a Unix-domain socket path, unix:PATH, or \
              tcp:HOST:PORT.")

let serve_cmd =
  let doc =
    "Run the concurrent job server: solve/modelcheck/subtree/fuzz over a \
     Unix-domain or TCP socket with worker pools, backpressure and \
     deadlines."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg
      $ Arg.(value & opt (some string) None
             & info [ "listen" ] ~docv:"ADDR"
                 ~doc:"Listen address: unix:PATH or tcp:HOST:PORT \
                       (tcp::0 = all interfaces, kernel-chosen port, \
                       printed on startup). Overrides --socket.")
      $ Arg.(value & opt int 2
             & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
      $ Arg.(value & opt int 2
             & info [ "shards" ] ~docv:"N"
                 ~doc:"I/O shard event loops; each owns a slice of the \
                       connections (poll-based, so thousands per shard).")
      $ Arg.(value & opt int 64
             & info [ "queue" ] ~docv:"N"
                 ~doc:"Queue bound; requests beyond it are rejected with \
                       overloaded.")
      $ Arg.(value & opt (some int) None
             & info [ "deadline-ms" ] ~docv:"MS"
                 ~doc:"Default per-request deadline (requests may carry \
                       their own).")
      $ Arg.(value & opt int Svc.Frame.default_max_len
             & info [ "max-frame" ] ~docv:"BYTES"
                 ~doc:"Largest accepted request frame.")
      $ Arg.(value & flag
             & info [ "events" ]
                 ~doc:"Emit svc.* events as JSON lines on stdout."))

let verb_conv : Svc.Protocol.verb Arg.conv =
  let parse s =
    match Svc.Protocol.verb_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Fmt.str "unknown verb %S" s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (Svc.Protocol.verb_string v))

let call_cmd =
  let doc = "Send one request to a running wfa serve and print the result." in
  Cmd.v
    (Cmd.info "call" ~doc)
    Term.(
      const call $ socket_arg
      $ Arg.(value & pos 0 verb_conv Svc.Protocol.Ping
             & info [] ~docv:"VERB"
                 ~doc:"ping | stats | metrics | solve | modelcheck | \
                       subtree | fuzz | scenario | shutdown. The scenario \
                       verb takes a full scenario-file object as --params \
                       and is validated server-side.")
      $ Arg.(value & opt string "{}"
             & info [ "params" ] ~docv:"JSON" ~doc:"Request parameters.")
      $ Arg.(value & opt (some int) None
             & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Request deadline.")
      $ Arg.(value & opt int 1
             & info [ "pipeline" ] ~docv:"N"
                 ~doc:"Send $(docv) copies of the request before reading \
                       any response (responses are matched by id and may \
                       complete out of order); prints an ok/failed summary.")
      $ Arg.(value & opt int 0
             & info [ "retry" ] ~docv:"N"
                 ~doc:"Retry a refused connection up to $(docv) times with \
                       exponential backoff.")
      $ Arg.(value
             & opt (enum
                      [ ("json", Svc.Protocol.Codec.Json);
                        ("binary", Svc.Protocol.Codec.Binary) ])
                 Svc.Protocol.Codec.Json
             & info [ "codec" ] ~docv:"CODEC"
                 ~doc:"Wire codec to offer: json (default, the debug path) \
                       or binary (negotiated via hello; downgrades to json \
                       against a server without binary support). The \
                       printed result is identical either way."))

let bench_cmd =
  let doc =
    "Run the bench smoke suite and record it as a wfa.bench JSON file."
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const bench $ json_arg)

let campaign_cmd =
  let doc =
    "Expand a campaign file into its scenario matrix and run every \
     scenario, comparing each result against its declared expectation."
  in
  Cmd.v
    (Cmd.info "campaign" ~doc)
    Term.(
      const campaign
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"FILE" ~doc:"Campaign file (see bench/campaigns/).")
      $ socket_arg
      $ Arg.(
          value & flag
          & info [ "local" ]
              ~doc:
                "Run in-process instead of against a server (same engine \
                 code path, sequential).")
      $ Arg.(
          value & opt int 16
          & info [ "window" ] ~docv:"N"
              ~doc:"Pipelined requests in flight per connection.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "deadline-ms" ] ~docv:"MS"
              ~doc:
                "Default per-scenario deadline (scenarios may carry their \
                 own).")
      $ json_arg
      $ Arg.(
          value & flag
          & info [ "list" ]
              ~doc:"Print the expanded scenario names and exit."))

let () =
  let doc = "Wait-Freedom with Advice (PODC 2012) — executable model" in
  let info = Cmd.info "wfa" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ solve_cmd; classify_cmd; witness_cmd; fuzz_cmd; extract_cmd;
            emulate_cmd; modelcheck_cmd; resume_cmd; serve_cmd; call_cmd;
            bench_cmd;
            campaign_cmd ]))
