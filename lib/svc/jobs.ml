open Simkit
open Tasklib
open Efd
module J = Obs.Json
module P = Protocol

(* ------------------------------------------------------ param extraction *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let int_param ~default name params =
  match J.member name params with
  | None -> default
  | Some v -> (
    match J.to_int_opt v with
    | Some n -> n
    | None -> bad "param %S is not an integer" name)

let int_opt_param name params =
  match J.member name params with
  | None -> None
  | Some v -> (
    match J.to_int_opt v with
    | Some n -> Some n
    | None -> bad "param %S is not an integer" name)

let str_param ~default name params =
  match J.member name params with
  | None -> default
  | Some (J.Str s) -> s
  | Some _ -> bad "param %S is not a string" name

let bool_param ~default name params =
  match J.member name params with
  | None -> default
  | Some (J.Bool b) -> b
  | Some _ -> bad "param %S is not a boolean" name

let pos_param ~default name params =
  let v = int_param ~default name params in
  if v < 1 then bad "param %S must be >= 1" name;
  v

(* -------------------------------- builders (shared with the CLI) -------
   Name resolution and construction live in [Scenario.Build] — the same
   tables the CLI enums and the scenario-file validator use, so a name the
   server rejects is a name no other layer accepts either. *)

let resolved = function Ok v -> v | Error msg -> bad "%s" msg

(* "crashes": [[i, t], ...] — crash S-process i at time t. *)
let crashes_param ~n_s params =
  match J.member "crashes" params with
  | None -> []
  | Some (J.List items) ->
    List.map
      (function
        | J.List [ J.Int i; J.Int t ] when t >= 0 ->
          if i < 0 || i >= n_s then
            bad "crash index %d out of range (S-processes: 0..%d)" i (n_s - 1)
          else (i, t)
        | _ -> bad "param \"crashes\" items must be [index, time] int pairs")
      items
  | Some _ -> bad "param \"crashes\" is not a list"

(* --------------------------------------------------------------- verbs *)

let solve ~cancel params =
  let kind =
    resolved
      (Scenario.Build.task_kind_of_string
         (str_param ~default:"consensus" "task" params))
  in
  let fd_k =
    resolved
      (Scenario.Build.fd_kind_of_string
         (str_param ~default:"vector" "fd" params))
  in
  let policy =
    Scenario.Build.policy_factory
      (resolved
         (Scenario.Build.policy_of_string
            (str_param ~default:"fair" "policy" params)))
  in
  let n = pos_param ~default:4 "n" params in
  let k = pos_param ~default:1 "k" params in
  let j = pos_param ~default:3 "j" params in
  let l = int_opt_param "l" params in
  let seed = int_param ~default:1 "seed" params in
  let budget = pos_param ~default:400_000 "budget" params in
  let crashes = crashes_param ~n_s:n params in
  let task = Scenario.Build.task kind ~n ~k ~j ~l in
  let algo = Scenario.Build.algo kind task ~k in
  let fd = Scenario.Build.fd fd_k ~k in
  let pattern =
    if crashes = [] then Failure.failure_free n
    else Failure.pattern ~n_s:n crashes
  in
  let rng = Random.State.make [| seed |] in
  let input = Task.sample_input task rng in
  let r =
    Run.execute ~budget ~policy ~cancel ~task ~algo ~fd ~pattern ~input ~seed
      ()
  in
  J.Obj
    [
      ("ok", J.Bool (Run.ok r));
      ("report", Run.report_json ~labels:(Run.labels ~task ~algo ~fd ~seed) r);
    ]

(* Scenario records are immutable setup — the closures inside ([sc_build],
   [sc_prop]) generate fresh mutable state per call — so one compiled
   record per (name, n_s) can be shared across every pool worker for the
   lifetime of the process. Registry lookup and scenario construction drop
   off the per-request path; only the first request per key pays. *)
let scenario_cache : (string * int, Mcheck.Scenario.t) Hashtbl.t =
  Hashtbl.create 8

let scenario_cache_mutex = Mutex.create ()

let scenario_param params =
  let name = str_param ~default:"safe-agreement" "scenario" params in
  let n_s = pos_param ~default:1 "n_s" params in
  Mutex.lock scenario_cache_mutex;
  match Hashtbl.find_opt scenario_cache (name, n_s) with
  | Some sc ->
    Mutex.unlock scenario_cache_mutex;
    sc
  | None -> (
    Mutex.unlock scenario_cache_mutex;
    (* build outside the lock: a miss must not serialize other workers *)
    match Mcheck.Scenario.find name ~n_s with
    | Ok sc ->
      Mutex.lock scenario_cache_mutex;
      if not (Hashtbl.mem scenario_cache (name, n_s)) then
        Hashtbl.replace scenario_cache (name, n_s) sc;
      Mutex.unlock scenario_cache_mutex;
      sc
    | Error msg -> bad "%s" msg)

let modelcheck_result ~scenario ~depth ~n_s ~reduce ?checkpoint (verdict, stats)
    =
  J.Obj
    ([
       ("scenario", J.Str scenario);
       ("depth", J.Int depth);
       ("n_s", J.Int n_s);
       ("reduce", J.Bool reduce);
     ]
    @ Exhaustive.verdict_fields verdict
    @ [ ("stats", Exhaustive.stats_json stats) ]
    @ Option.to_list checkpoint)

(* With "checkpoint_dir" the verb runs the partitioned, journaling engine
   ({!Ckpt.Local}) instead of the monolithic DFS; with "resume": true it
   continues whatever record the store holds — the pooled resume path, so
   a fleet worker (or `wfa call`) can pick up a killed run without any
   coordinator. Verdict and credited count are engine-independent (the
   merge theorem), so callers see the same response either way. *)
let modelcheck ~cancel params =
  let depth = pos_param ~default:8 "depth" params in
  let reduce = bool_param ~default:false "reduce" params in
  match J.member "checkpoint_dir" params with
  | None -> (
    let sc = scenario_param params in
    let red = Mcheck.Scenario.reduction sc ~reduce in
    match
      Exhaustive.run ?reduce:red ~cancel ~build:sc.Mcheck.Scenario.sc_build
        ~pids:sc.Mcheck.Scenario.sc_pids ~depth
        ~prop:sc.Mcheck.Scenario.sc_prop ()
    with
    | exception Invalid_argument msg -> bad "%s" msg
    | result ->
      modelcheck_result ~scenario:sc.Mcheck.Scenario.sc_name ~depth
        ~n_s:sc.Mcheck.Scenario.sc_n_s ~reduce:(red <> None) result)
  | Some dir_json -> (
    let dir =
      match dir_json with
      | J.Str s when s <> "" -> s
      | _ -> bad "param \"checkpoint_dir\" is not a non-empty string"
    in
    let interval_s =
      float_of_int (pos_param ~default:30 "checkpoint_interval_s" params)
    in
    let resumed = bool_param ~default:false "resume" params in
    let store =
      match Ckpt.Store.create dir with
      | Ok s -> s
      | Error msg -> bad "%s" msg
    in
    if resumed then
      match Ckpt.Local.resume ~interval_s ~cancel ~store () with
      | Error msg -> bad "%s" msg
      | Ok (config, verdict, stats) ->
        modelcheck_result ~scenario:config.Ckpt.Record.cf_scenario
          ~depth:config.Ckpt.Record.cf_depth ~n_s:config.Ckpt.Record.cf_n_s
          ~reduce:config.Ckpt.Record.cf_reduce
          ~checkpoint:(Ckpt.Local.checkpoint_field store ~resumed)
          (verdict, stats)
    else
      let sc = scenario_param params in
      match
        Ckpt.Local.run ~interval_s ~reduce ~cancel ~store ~scenario:sc ~depth
          ()
      with
      | Error msg -> bad "%s" msg
      | Ok (verdict, stats) ->
        modelcheck_result ~scenario:sc.Mcheck.Scenario.sc_name ~depth
          ~n_s:sc.Mcheck.Scenario.sc_n_s ~reduce
          ~checkpoint:(Ckpt.Local.checkpoint_field store ~resumed)
          (verdict, stats))

(* One frontier subtree of a distributed exhaustive search. The coordinator
   ships the scenario by name plus the engine context ({!Exhaustive.subtree});
   the verdict travels back with the job id so first-result-wins re-dispatch
   can drop duplicates. *)
let subtree ~cancel params =
  let depth = pos_param ~default:8 "depth" params in
  let reduce = bool_param ~default:false "reduce" params in
  let sc = scenario_param params in
  let sj =
    match J.member "job" params with
    | None -> bad "missing param \"job\""
    | Some j -> (
      match Exhaustive.subtree_of_json j with
      | Ok sj -> sj
      | Error msg -> bad "%s" msg)
  in
  let reduce = Mcheck.Scenario.reduction sc ~reduce in
  let reply = ref J.Null in
  match
    Exhaustive.run_subtrees ?reduce ~cancel ~build:sc.Mcheck.Scenario.sc_build
      ~pids:sc.Mcheck.Scenario.sc_pids ~depth ~prop:sc.Mcheck.Scenario.sc_prop
      [ sj ] (fun sj (verdict, stats) ->
        (* the reply is a checkpoint record's done entry, byte for byte *)
        reply :=
          Ckpt.Record.done_json
            {
              Ckpt.Record.dj_id = sj.Exhaustive.sj_id;
              dj_verdict = verdict;
              dj_stats = stats;
            })
  with
  | exception Invalid_argument msg -> bad "%s" msg
  | () -> !reply

let fuzz ~cancel params =
  let kind = str_param ~default:"strong-renaming" "kind" params in
  let n = pos_param ~default:4 "n" params in
  let j = pos_param ~default:3 "j" params in
  let seed = int_param ~default:1 "seed" params in
  let budget = pos_param ~default:500 "budget" params in
  let domains = pos_param ~default:1 "domains" params in
  let target = resolved (Scenario.Build.fuzz_target kind ~n ~j) in
  let res = Adversary.fuzz_target ~domains ~cancel ~seed ~budget target () in
  J.Obj
    ([
       ("found", J.Bool (res.Adversary.f_witness <> None));
       ("fuzz", Adversary.fuzz_result_json res);
     ]
    @
    match res.Adversary.f_witness with
    | None -> []
    | Some w -> [ ("witness", Adversary.witness_json w) ])

(* A caller-supplied scenario file as params: validate it through
   [Scenario.Spec] (structured path-carrying errors — an unknown name or a
   malformed field must come back as [bad_request], never crash a worker),
   then dispatch to the handler its verb names. The scenario's own
   [deadline_ms] rides in the request envelope, so [cancel] already
   enforces it here. *)
let scenario ~cancel params =
  match Scenario.Spec.of_json params with
  | Error msg -> bad "invalid scenario: %s" msg
  | Ok sp ->
    let inner = Scenario.Spec.params_json sp in
    let result =
      match sp.Scenario.Spec.sp_work with
      | Scenario.Spec.Solve _ -> solve ~cancel inner
      | Scenario.Spec.Modelcheck _ -> modelcheck ~cancel inner
      | Scenario.Spec.Fuzz _ -> fuzz ~cancel inner
    in
    J.Obj
      [
        ("scenario", J.Str sp.Scenario.Spec.sp_name);
        ("verb", J.Str (Scenario.Spec.verb sp));
        ("result", result);
      ]

let never_cancel () = false

let run ?(cancel = never_cancel) verb params =
  match verb with
  | P.Ping | P.Stats | P.Metrics | P.Shutdown | P.Hello ->
    Error
      ( P.Internal,
        Printf.sprintf "verb %S is not a pool job" (P.verb_string verb) )
  | P.Solve | P.Modelcheck | P.Subtree | P.Fuzz | P.Scenario -> (
    try
      Ok
        (match verb with
        | P.Solve -> solve ~cancel params
        | P.Modelcheck -> modelcheck ~cancel params
        | P.Subtree -> subtree ~cancel params
        | P.Fuzz -> fuzz ~cancel params
        | P.Scenario -> scenario ~cancel params
        | _ -> assert false)
    with
    | Bad msg -> Error (P.Bad_request, msg)
    | Exhaustive.Cancelled | Adversary.Cancelled | Run.Cancelled ->
      Error (P.Deadline_exceeded, "deadline exceeded during execution")
    | exn -> Error (P.Internal, Printexc.to_string exn))
