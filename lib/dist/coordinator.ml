open Simkit
module J = Obs.Json
module P = Svc.Protocol

type worker_report = { wk_addr : string; wk_jobs : int; wk_dead : bool }

type report = {
  r_verdict : Exhaustive.verdict;
  r_stats : Exhaustive.stats;
  r_jobs : int;
  r_frontier_pruned : int;
  r_redispatched : int;
  r_workers : worker_report list;
}

type job_result = { jr_verdict : Exhaustive.verdict; jr_stats : Exhaustive.stats }

(* All coordinator state one mutex guards. The sink hides under the same
   mutex — the stock sinks are not thread-safe, and every emission here
   happens on some worker thread. *)
type shared = {
  mutex : Mutex.t;
  cond : Condition.t;
  sink : Obs.Sink.t option;
  pending : Exhaustive.subtree Queue.t;
  jobs : (int, Exhaustive.subtree) Hashtbl.t;
  results : (int, job_result) Hashtbl.t;
  inflight : (int, int) Hashtbl.t;  (* active dispatch count per job id *)
  total : int;
  window : int;
  mutable redispatched : int;
}

let emit st name fields =
  match st.sink with
  | None -> ()
  | Some s -> Obs.Sink.emit s (Obs.Event.make name fields)

let locked st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let done_ st = Hashtbl.length st.results = st.total
let unfinished st id = not (Hashtbl.mem st.results id)
let inflight_of st id = Option.value ~default:0 (Hashtbl.find_opt st.inflight id)

(* Re-issue a job whose dispatch came to nothing (worker died, server-side
   error). Only when no other dispatch is still running it — a surviving
   duplicate may yet answer. *)
let requeue st ~reason sj =
  let id = sj.Exhaustive.sj_id in
  if unfinished st id && inflight_of st id = 0 then begin
    Queue.push sj st.pending;
    st.redispatched <- st.redispatched + 1;
    emit st Obs.Event.Name.dist_redispatch
      [ ("job", J.Int id); ("reason", J.Str reason) ];
    Condition.broadcast st.cond
  end

let drop_inflight st id =
  match inflight_of st id with
  | 0 -> ()
  | 1 -> Hashtbl.remove st.inflight id
  | n -> Hashtbl.replace st.inflight id (n - 1)

(* An idle worker with an empty pending queue duplicates the least-covered
   unfinished job of another worker — straggler insurance; first result
   wins. [attempted] bounds it: a worker never steals the same job twice,
   so total dispatches stay <= jobs * workers. *)
let steal_candidate st attempted =
  Hashtbl.fold
    (fun id sj best ->
      if unfinished st id && not (Hashtbl.mem attempted id) then
        match best with
        | Some (_, n) when n <= inflight_of st id -> best
        | _ -> Some (sj, inflight_of st id)
      else best)
    st.jobs None

(* Called with the lock held; returns the next pipelined batch, [] when the
   run is complete (or nothing is left that this worker may take). *)
let rec take_batch st attempted acc =
  if done_ st then List.rev acc
  else if List.length acc >= st.window then List.rev acc
  else
    match Queue.take_opt st.pending with
    | Some sj when not (unfinished st sj.Exhaustive.sj_id) ->
      take_batch st attempted acc (* stale requeue; already answered *)
    | Some sj -> take_batch st attempted (sj :: acc)
    | None -> (
      if acc <> [] then List.rev acc
      else
        match steal_candidate st attempted with
        | Some (sj, _) ->
          st.redispatched <- st.redispatched + 1;
          emit st Obs.Event.Name.dist_redispatch
            [ ("job", J.Int sj.Exhaustive.sj_id); ("reason", J.Str "steal") ];
          [ sj ]
        | None ->
          (* everything unfinished is in flight and already tried here:
             wait for a result, a requeue, or completion *)
          Condition.wait st.cond st.mutex;
          take_batch st attempted acc)

let job_params sc ~depth ~reduce sj =
  J.Obj
    [
      ("scenario", J.Str sc.Mcheck.Scenario.sc_name);
      ("n_s", J.Int sc.Mcheck.Scenario.sc_n_s);
      ("depth", J.Int depth);
      ("reduce", J.Bool reduce);
      ("job", Exhaustive.subtree_json sj);
    ]

let job_result_of_json j =
  let ( let* ) = Result.bind in
  let* stats =
    match J.member "stats" j with
    | Some s -> Exhaustive.stats_of_json s
    | None -> Error "missing field \"stats\""
  in
  let* verdict =
    match J.member "verdict" j with
    | Some (J.Str "ok") -> (
      match J.member "schedules" j with
      | Some v -> (
        match J.to_int_opt v with
        | Some n -> Ok (Exhaustive.Ok n)
        | None -> Error "field \"schedules\" is not an integer")
      | None -> Error "missing field \"schedules\"")
    | Some (J.Str "counterexample") -> (
      match J.member "cex" j with
      | Some c -> (
        match Exhaustive.schedule_of_json c with
        | Ok cex -> Ok (Exhaustive.Counterexample cex)
        | Error _ as e -> e)
      | None -> Error "missing field \"cex\"")
    | _ -> Error "missing or unknown field \"verdict\""
  in
  Ok { jr_verdict = verdict; jr_stats = stats }

(* One worker thread: connect, then loop pipelined batches until the run
   completes or the connection dies. A dead connection requeues whatever
   it still owed and retires the thread — the jobs live on elsewhere. *)
let worker_loop st ~sc ~depth ~reduce ~deadline_ms ~retries ~backoff_ms
    ~accepted ~dead ~journal w addr =
  let attempted = Hashtbl.create 64 in
  let wname = Printf.sprintf "%d:%s" w addr in
  let die client outstanding why =
    (match client with Some c -> Svc.Client.close c | None -> ());
    locked st (fun () ->
        dead.(w) <- true;
        let requeued = Hashtbl.length outstanding in
        emit st Obs.Event.Name.dist_worker_dead
          [
            ("worker", J.Str wname);
            ("error", J.Str why);
            ("requeued", J.Int requeued);
          ];
        Hashtbl.iter
          (fun _ sj ->
            drop_inflight st sj.Exhaustive.sj_id;
            requeue st ~reason:"worker_dead" sj)
          outstanding;
        Condition.broadcast st.cond)
  in
  (* workers get the binary codec when they speak it — subtree results are
     bulky and the hello downgrades transparently against an older fleet *)
  match
    Svc.Client.connect ~retries ~backoff_ms ~codec:Svc.Protocol.Codec.Binary
      addr
  with
  | exception e ->
    die None (Hashtbl.create 0)
      (match e with
      | Unix.Unix_error (err, _, _) -> Unix.error_message err
      | e -> Printexc.to_string e)
  | client -> (
    let outstanding = Hashtbl.create 8 in
    let settle ~rid result =
      match Hashtbl.find_opt outstanding rid with
      | None -> Error (Printf.sprintf "response for unknown request id %d" rid)
      | Some sj ->
        Hashtbl.remove outstanding rid;
        locked st (fun () ->
            let id = sj.Exhaustive.sj_id in
            drop_inflight st id;
            (match result with
            | Ok jr when unfinished st id ->
              Hashtbl.replace st.results id jr;
              accepted.(w) <- accepted.(w) + 1;
              emit st Obs.Event.Name.dist_result
                [
                  ("job", J.Int id);
                  ("worker", J.Str wname);
                  ( "verdict",
                    J.Str
                      (match jr.jr_verdict with
                      | Exhaustive.Ok _ -> "ok"
                      | Exhaustive.Counterexample _ -> "counterexample") );
                ];
              (* journal under the same lock that guards [results]: the
                 generation written is a consistent snapshot *)
              journal st ~force:false
            | Ok _ -> () (* a duplicate lost the race; drop it *)
            | Error reason -> requeue st ~reason sj);
            Condition.broadcast st.cond);
        Ok ()
    in
    let rec serve () =
      let batch =
        locked st (fun () ->
            let batch = take_batch st attempted [] in
            List.iter
              (fun sj ->
                let id = sj.Exhaustive.sj_id in
                Hashtbl.replace st.inflight id (inflight_of st id + 1);
                Hashtbl.replace attempted id ();
                emit st Obs.Event.Name.dist_dispatch
                  [ ("job", J.Int id); ("worker", J.Str wname) ])
              batch;
            batch)
      in
      if batch = [] then Svc.Client.close client
      else
        let rec send_all = function
          | [] -> true
          | sj :: rest -> (
            match
              Svc.Client.send ?deadline_ms
                ~params:(job_params sc ~depth ~reduce sj)
                client P.Subtree
            with
            | Ok rid ->
              Hashtbl.replace outstanding rid sj;
              send_all rest
            | Error _ ->
              (* the write failed, so neither this job nor the rest of the
                 batch was ever on the wire — hand them all back *)
              locked st (fun () ->
                  List.iter
                    (fun sj ->
                      drop_inflight st sj.Exhaustive.sj_id;
                      requeue st ~reason:"send_failed" sj)
                    (sj :: rest);
                  Condition.broadcast st.cond);
              false)
        in
        if not (send_all batch) then
          die (Some client) outstanding "send failed"
        else
          let rec drain () =
            if Hashtbl.length outstanding = 0 then serve ()
            else
              match Svc.Client.recv client with
              | Error e -> die (Some client) outstanding (Svc.Client.error_string e)
              | Ok (rid, payload) -> (
                let result =
                  match payload with
                  | Ok json -> (
                    match job_result_of_json json with
                    | Ok jr -> Ok jr
                    | Error msg -> Error ("bad result: " ^ msg))
                  | Error (Svc.Client.Server (code, _)) ->
                    Error (P.err_code_string code)
                  | Error (Svc.Client.Transport msg) -> Error msg
                in
                match settle ~rid result with
                | Ok () -> drain ()
                | Error why -> die (Some client) outstanding why)
          in
          drain ()
    in
    try serve ()
    with e -> die (Some client) outstanding (Printexc.to_string e))

let default_split_depth ~depth = max 1 (min 3 (depth - 1))

(* The journaling closure: called with [st.mutex] held after every accepted
   result ([force:false] — interval-gated) and once at completion
   ([force:true]). A failed save is reported as an event and otherwise
   ignored: a disk hiccup must not kill a fleet mid-search — the run
   degrades to the previous good generation. *)
let make_journal ~checkpoint ~config ~total =
  match checkpoint with
  | None -> fun _st ~force:_ -> ()
  | Some (store, interval_s) ->
    let interval_s = Float.max 0.05 interval_s in
    let last = ref (Obs.Clock.now_ns ()) in
    fun st ~force ->
      if force || Obs.Clock.elapsed_s ~since:!last >= interval_s then begin
        last := Obs.Clock.now_ns ();
        let done_ =
          Hashtbl.fold
            (fun id jr acc ->
              {
                Ckpt.Record.dj_id = id;
                dj_verdict = jr.jr_verdict;
                dj_stats = jr.jr_stats;
              }
              :: acc)
            st.results []
        in
        let record = Ckpt.Record.make ~config ~total ~done_ in
        match Ckpt.Store.save store (Ckpt.Record.json record) with
        | Ok _ -> ()
        | Error msg -> emit st "ckpt.save.error" [ ("error", J.Str msg) ]
      end

let run ?sink ?split_depth ?(reduce = false) ?(retries = 5) ?(backoff_ms = 50)
    ?deadline_ms ?(window = 4) ?checkpoint ?resume ~scenario:sc ~depth
    ~workers () =
  let pids = sc.Mcheck.Scenario.sc_pids in
  let split_depth =
    match split_depth with Some d -> d | None -> default_split_depth ~depth
  in
  let config =
    {
      Ckpt.Record.cf_scenario = sc.Mcheck.Scenario.sc_name;
      cf_n_s = sc.Mcheck.Scenario.sc_n_s;
      cf_depth = depth;
      cf_reduce = reduce;
      cf_split_depth = split_depth;
    }
  in
  let resume_mismatch =
    match resume with
    | Some r when r.Ckpt.Record.ck_config <> config ->
      Some
        "checkpoint config (scenario/n_s/depth/reduce/split_depth) does not \
         match this run"
    | _ -> None
  in
  if workers = [] then Error "no workers given"
  else if depth < 2 then Error "distributed runs need depth >= 2"
  else if not (split_depth >= 1 && split_depth < depth) then
    Error
      (Printf.sprintf "split depth %d not in [1, %d)" split_depth depth)
  else if resume_mismatch <> None then Error (Option.get resume_mismatch)
  else
    match
      List.filter_map
        (fun a ->
          match Svc.Addr.of_string a with
          | Ok _ -> None
          | Error msg -> Some (Printf.sprintf "worker %S: %s" a msg))
        workers
    with
    | msg :: _ -> Error msg
    | [] -> (
      let red = Mcheck.Scenario.reduction sc ~reduce in
      match
        Exhaustive.split ?reduce:red ~build:sc.Mcheck.Scenario.sc_build ~pids
          ~depth ~split_depth ~prop:sc.Mcheck.Scenario.sc_prop ()
      with
      | exception Invalid_argument msg -> Error msg
      | fr ->
      let total = List.length fr.Exhaustive.fr_jobs in
      match resume with
      | Some r when r.Ckpt.Record.ck_total <> total ->
        Error
          (Printf.sprintf
             "checkpoint records %d jobs but the frontier splits into %d \
              (record from a different engine?)"
             r.Ckpt.Record.ck_total total)
      | _ ->
      let st =
        {
          mutex = Mutex.create ();
          cond = Condition.create ();
          sink;
          pending = Queue.create ();
          jobs = Hashtbl.create (List.length fr.Exhaustive.fr_jobs);
          results = Hashtbl.create (List.length fr.Exhaustive.fr_jobs);
          inflight = Hashtbl.create 16;
          total;
          window = max 1 window;
          redispatched = 0;
        }
      in
      (* prefill journaled completions: those ids never reach [pending], so
         a restarted coordinator redispatches only unfinished subtrees *)
      (match resume with
      | None -> ()
      | Some r ->
        List.iter
          (fun d ->
            Hashtbl.replace st.results d.Ckpt.Record.dj_id
              {
                jr_verdict = d.Ckpt.Record.dj_verdict;
                jr_stats = d.Ckpt.Record.dj_stats;
              })
          r.Ckpt.Record.ck_done);
      List.iter
        (fun sj ->
          Hashtbl.replace st.jobs sj.Exhaustive.sj_id sj;
          if unfinished st sj.Exhaustive.sj_id then Queue.push sj st.pending)
        fr.Exhaustive.fr_jobs;
      emit st Obs.Event.Name.dist_split
        [
          ("jobs", J.Int st.total);
          ("split_depth", J.Int split_depth);
          ("pruned", J.Int fr.Exhaustive.fr_pruned);
        ];
      let journal = make_journal ~checkpoint ~config ~total in
      (* a generation exists before any dispatch: a coordinator killed in
         its first interval still leaves a resumable store *)
      locked st (fun () -> journal st ~force:true);
      let n = List.length workers in
      let accepted = Array.make n 0 and dead = Array.make n false in
      let threads =
        List.mapi
          (fun w addr ->
            Thread.create
              (fun () ->
                worker_loop st ~sc ~depth ~reduce ~deadline_ms ~retries
                  ~backoff_ms ~accepted ~dead ~journal w addr)
              ())
          workers
      in
      List.iter Thread.join threads;
      locked st (fun () -> journal st ~force:true);
      if not (done_ st) then
        Error
          (Printf.sprintf
             "%d of %d subtree jobs unresolved: every worker failed"
             (st.total - Hashtbl.length st.results)
             st.total)
      else begin
        let ids =
          List.sort compare
            (Hashtbl.fold (fun id _ acc -> id :: acc) st.results [])
        in
        let verdict =
          List.fold_left
            (fun acc id ->
              Exhaustive.merge_verdicts ~pids acc
                (Hashtbl.find st.results id).jr_verdict)
            (Exhaustive.Ok fr.Exhaustive.fr_pruned)
            ids
        in
        let verdict =
          match fr.Exhaustive.fr_cex with
          | None -> verdict
          | Some cex ->
            Exhaustive.merge_verdicts ~pids verdict
              (Exhaustive.Counterexample cex)
        in
        let stats =
          List.fold_left
            (fun acc id ->
              Exhaustive.merge_stats acc (Hashtbl.find st.results id).jr_stats)
            fr.Exhaustive.fr_stats ids
        in
        let workers_r =
          List.mapi
            (fun w addr ->
              { wk_addr = addr; wk_jobs = accepted.(w); wk_dead = dead.(w) })
            workers
        in
        emit st Obs.Event.Name.dist_done
          [
            ("jobs", J.Int st.total);
            ("redispatched", J.Int st.redispatched);
            ("workers", J.Int n);
            ("dead", J.Int (List.length (List.filter (fun r -> r.wk_dead) workers_r)));
          ];
        Ok
          {
            r_verdict = verdict;
            r_stats = stats;
            r_jobs = st.total;
            r_frontier_pruned = fr.Exhaustive.fr_pruned;
            r_redispatched = st.redispatched;
            r_workers = workers_r;
          }
      end)
