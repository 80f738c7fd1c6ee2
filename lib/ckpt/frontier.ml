open Simkit

type 'a outcome = {
  verdict : Exhaustive.verdict;
  stats : Exhaustive.stats;
  jobs : int;
  pruned : int;
  executor : 'a;
}

type 'a executor =
  Mcheck.Scenario.t ->
  Record.config ->
  Exhaustive.split_result ->
  journaled:bool ->
  todo:Exhaustive.subtree list ->
  report:((int * (Exhaustive.verdict * Exhaustive.stats)) list -> unit) ->
  ('a, string) result

let default_split_depth ~depth = max 1 (min 3 (depth - 1))
let ( let* ) = Result.bind

let run ?journal ?resume ?split_depth ~reduce ~scenario:sc ~depth exec =
  let split_depth =
    Option.value split_depth ~default:(default_split_depth ~depth)
  in
  let config =
    {
      Record.cf_scenario = sc.Mcheck.Scenario.sc_name;
      cf_n_s = sc.Mcheck.Scenario.sc_n_s;
      cf_depth = depth;
      cf_reduce = reduce;
      cf_split_depth = split_depth;
    }
  in
  let pids = sc.Mcheck.Scenario.sc_pids in
  let* fr =
    if depth < 2 then Error "partitioned runs need depth >= 2"
    else if split_depth < 1 || split_depth >= depth then
      Error (Printf.sprintf "split depth %d not in [1, %d)" split_depth depth)
    else
      try
        Ok
          (Exhaustive.split
             ?reduce:(Mcheck.Scenario.reduction sc ~reduce)
             ~build:sc.Mcheck.Scenario.sc_build ~pids ~depth ~split_depth
             ~prop:sc.Mcheck.Scenario.sc_prop ())
      with Invalid_argument msg -> Error msg
  in
  let total = List.length fr.Exhaustive.fr_jobs in
  let results = Array.make total None in
  let* () =
    match resume with
    | None -> Ok ()
    | Some r when r.Record.ck_config <> config ->
      Error
        "checkpoint config (scenario/n_s/depth/reduce/split_depth) does not \
         match this run"
    | Some r when r.Record.ck_total <> total ->
      Error
        (Printf.sprintf
           "checkpoint records %d jobs but the frontier splits into %d \
            (record from a different engine?)"
           r.Record.ck_total total)
    | Some r ->
      List.iter
        (fun d ->
          results.(d.Record.dj_id) <-
            Some (d.Record.dj_verdict, d.Record.dj_stats))
        r.Record.ck_done;
      Ok ()
  in
  let save () =
    match journal with
    | None -> Ok ()
    | Some (store, _) ->
      let done_ =
        Array.to_seqi results
        |> Seq.filter_map (fun (id, result) ->
               Option.map
                 (fun (v, st) ->
                   { Record.dj_id = id; dj_verdict = v; dj_stats = st })
                 result)
        |> List.of_seq
      in
      Record.make ~config ~total ~done_
      |> Record.json |> Store.save store |> Result.map ignore
  in
  (* a generation exists before any job runs: a kill inside the first
     interval still leaves a resumable store *)
  let* () = save () in
  let last_save = ref (Obs.Clock.now_ns ()) in
  let report batch =
    List.iter
      (fun (id, result) ->
        if results.(id) = None then results.(id) <- Some result)
      batch;
    match journal with
    | Some (_, interval_s)
      when Obs.Clock.elapsed_s ~since:!last_save >= interval_s ->
      (* a failed save is the store's [ckpt.save.error] event; the
         previous generation stays resumable *)
      ignore (save ());
      last_save := Obs.Clock.now_ns ()
    | _ -> ()
  in
  let todo =
    List.filter (fun sj -> results.(sj.Exhaustive.sj_id) = None) fr.fr_jobs
  in
  (* the final generation, also when the executor fails or raises *)
  let executed =
    Fun.protect
      ~finally:(fun () -> ignore (save ()))
      (fun () -> exec sc config fr ~journaled:(journal <> None) ~todo ~report)
  in
  let answered = List.filter_map Fun.id (Array.to_list results) in
  let unresolved () =
    Printf.sprintf "%d of %d subtree jobs unresolved"
      (total - List.length answered)
      total
  in
  match executed with
  | Ok executor when List.length answered = total ->
    let verdict, stats = Exhaustive.merge_frontier ~pids fr answered in
    Ok { verdict; stats; jobs = total; pruned = fr.fr_pruned; executor }
  | Ok _ -> Error (unresolved ())
  | Error msg -> Error (unresolved () ^ ": " ^ msg)

let resume ~store ~interval_s (gen, r) exec =
  let config = r.Record.ck_config in
  let* sc =
    Mcheck.Scenario.find config.Record.cf_scenario ~n_s:config.Record.cf_n_s
  in
  Store.note_resume store ~gen ~total:r.Record.ck_total
    ~done_:(List.length r.Record.ck_done);
  run ~journal:(store, interval_s) ~resume:r
    ~split_depth:config.Record.cf_split_depth ~reduce:config.Record.cf_reduce
    ~scenario:sc ~depth:config.Record.cf_depth exec
