open Simkit

let default_interval_s = 30.

let load_record store =
  match Store.load store with
  | None -> Error "no valid checkpoint generation found"
  | Some (gen, value) -> (
    match Record.of_json value with
    | Ok r -> Ok (gen, r)
    | Error msg ->
      Error (Printf.sprintf "generation %d: invalid record: %s" gen msg))

let checkpoint_field store ~resumed =
  let errors = Store.save_errors store in
  ( "checkpoint",
    Obs.Json.Obj
      ([
         ("dir", Obs.Json.Str (Store.dir store));
         ("resumed", Obs.Json.Bool resumed);
       ]
      @ if errors > 0 then [ ("save_errors", Obs.Json.Int errors) ] else [])
  )

let executor ?cancel () sc config _fr ~journaled:_ ~todo ~report =
  let reduce = Mcheck.Scenario.reduction sc ~reduce:config.Record.cf_reduce in
  Exhaustive.run_subtrees ?reduce ?cancel ~build:sc.Mcheck.Scenario.sc_build
    ~pids:sc.Mcheck.Scenario.sc_pids ~depth:config.Record.cf_depth
    ~prop:sc.Mcheck.Scenario.sc_prop todo (fun sj result ->
      report [ (sj.Exhaustive.sj_id, result) ]);
  Ok ()

let run ?(interval_s = default_interval_s) ?(reduce = false) ?cancel ~store
    ~scenario ~depth () =
  Frontier.run ~journal:(store, interval_s) ~reduce ~scenario ~depth
    (executor ?cancel ())
  |> Result.map (fun o -> (o.Frontier.verdict, o.Frontier.stats))

let resume ?(interval_s = default_interval_s) ?cancel ~store () =
  Result.bind (load_record store) (fun ((_, r) as loaded) ->
      Frontier.resume ~store ~interval_s loaded (executor ?cancel ())
      |> Result.map (fun o ->
             (r.Record.ck_config, o.Frontier.verdict, o.Frontier.stats)))
