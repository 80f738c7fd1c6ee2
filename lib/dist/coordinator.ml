open Simkit
module J = Obs.Json
module P = Svc.Protocol

type worker_report = { wk_addr : string; wk_jobs : int; wk_dead : bool }

type report = {
  r_verdict : Exhaustive.verdict;
  r_stats : Exhaustive.stats;
  r_jobs : int;
  r_redispatched : int;
  r_workers : worker_report list;
}

type fleet = { redispatched : int; workers : worker_report list }

(* All coordinator state one mutex guards: the driver's [report] must not
   be called concurrently, and neither may the stock sinks — every
   emission here happens on some worker thread. *)
type shared = {
  mutex : Mutex.t;
  cond : Condition.t;
  sink : Obs.Sink.t option;
  pending : Exhaustive.subtree Queue.t;
  unanswered : (int, Exhaustive.subtree) Hashtbl.t;
  inflight : (int, int) Hashtbl.t;  (* active dispatch count per job id *)
  report : int -> Exhaustive.verdict * Exhaustive.stats -> bool;
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

let done_ st = Hashtbl.length st.unanswered = 0
let inflight_of st id = Option.value ~default:0 (Hashtbl.find_opt st.inflight id)

(* Re-issue a job whose dispatch came to nothing (worker died, server-side
   error). Only when no other dispatch is still running it — a surviving
   duplicate may yet answer. *)
let requeue st ~reason sj =
  let id = sj.Exhaustive.sj_id in
  if Hashtbl.mem st.unanswered id && inflight_of st id = 0 then begin
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
      if Hashtbl.mem attempted id then best
      else
        match best with
        | Some (_, n) when n <= inflight_of st id -> best
        | _ -> Some (sj, inflight_of st id))
    st.unanswered None

(* Called with the lock held; returns the next pipelined batch, [] when the
   run is complete (or nothing is left that this worker may take). *)
let rec take_batch st attempted acc =
  if done_ st then List.rev acc
  else if List.length acc >= st.window then List.rev acc
  else
    match Queue.take_opt st.pending with
    | Some sj when not (Hashtbl.mem st.unanswered sj.Exhaustive.sj_id) ->
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

let job_params config sj =
  J.Obj
    [
      ("scenario", J.Str config.Ckpt.Record.cf_scenario);
      ("n_s", J.Int config.Ckpt.Record.cf_n_s);
      ("depth", J.Int config.Ckpt.Record.cf_depth);
      ("reduce", J.Bool config.Ckpt.Record.cf_reduce);
      ("job", Exhaustive.subtree_json sj);
    ]

(* One worker thread: connect, then loop pipelined batches until the run
   completes or the connection dies. A dead connection requeues whatever
   it still owed and retires the thread — the jobs live on elsewhere. *)
let worker_loop st ~config ~deadline_ms ~retries ~backoff_ms ~accepted ~dead
    w addr =
  let attempted = Hashtbl.create 64 in
  let wname = Printf.sprintf "%d:%s" w addr in
  let die client outstanding why =
    Option.iter Svc.Client.close client;
    locked st (fun () ->
        dead.(w) <- true;
        emit st Obs.Event.Name.dist_worker_dead
          [
            ("worker", J.Str wname);
            ("error", J.Str why);
            ("requeued", J.Int (Hashtbl.length outstanding));
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
    let settle sj result =
      locked st (fun () ->
          let id = sj.Exhaustive.sj_id in
          drop_inflight st id;
          (match result with
          | Ok { Ckpt.Record.dj_verdict = v; dj_stats; _ } ->
            (* the driver keeps the first result per id and journals it *)
            if st.report id (v, dj_stats) then begin
              Hashtbl.remove st.unanswered id;
              accepted.(w) <- accepted.(w) + 1;
              emit st Obs.Event.Name.dist_result
                [
                  ("job", J.Int id);
                  ("worker", J.Str wname);
                  ( "verdict",
                    J.Str
                      (match v with
                      | Exhaustive.Ok _ -> "ok"
                      | Exhaustive.Counterexample _ -> "counterexample") );
                ]
            end
          | Error reason -> requeue st ~reason sj);
          Condition.broadcast st.cond)
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
                ~params:(job_params config sj)
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
                match Hashtbl.find_opt outstanding rid with
                | None ->
                  die (Some client) outstanding
                    (Printf.sprintf "response for unknown request id %d" rid)
                | Some sj ->
                  Hashtbl.remove outstanding rid;
                  settle sj
                    (match payload with
                    | Ok json ->
                      Result.map_error (( ^ ) "bad result: ")
                        (Ckpt.Record.done_of_json json)
                    | Error (Svc.Client.Server (code, _)) ->
                      Error (P.err_code_string code)
                    | Error (Svc.Client.Transport msg) -> Error msg);
                  drain ())
          in
          drain ()
    in
    try serve ()
    with e -> die (Some client) outstanding (Printexc.to_string e))

let executor ?sink ?(retries = 5) ?(backoff_ms = 50) ?deadline_ms
    ?(window = 4) workers =
  match
    List.find_map
      (fun a ->
        match Svc.Addr.of_string a with
        | Ok _ -> None
        | Error msg -> Some (Printf.sprintf "worker %S: %s" a msg))
      workers
  with
  | _ when workers = [] -> Error "no workers given"
  | Some msg -> Error msg
  | None ->
    Ok
      (fun _sc config fr ~todo ~report ->
        let total = List.length fr.Exhaustive.fr_jobs in
        let st =
          {
            mutex = Mutex.create ();
            cond = Condition.create ();
            sink;
            pending = Queue.of_seq (List.to_seq todo);
            unanswered =
              Hashtbl.of_seq
                (List.to_seq todo
                |> Seq.map (fun sj -> (sj.Exhaustive.sj_id, sj)));
            inflight = Hashtbl.create 16;
            report;
            window = max 1 window;
            redispatched = 0;
          }
        in
        emit st Obs.Event.Name.dist_split
          [
            ("jobs", J.Int total);
            ("split_depth", J.Int config.Ckpt.Record.cf_split_depth);
            ("pruned", J.Int fr.Exhaustive.fr_pruned);
          ];
        let n = List.length workers in
        let accepted = Array.make n 0 and dead = Array.make n false in
        List.mapi
          (fun w addr ->
            Thread.create
              (fun () ->
                worker_loop st ~config ~deadline_ms ~retries ~backoff_ms
                  ~accepted ~dead w addr)
              ())
          workers
        |> List.iter Thread.join;
        if not (done_ st) then Error "every worker failed"
        else
          let workers =
            List.mapi
              (fun w addr ->
                { wk_addr = addr; wk_jobs = accepted.(w); wk_dead = dead.(w) })
              workers
          in
          emit st Obs.Event.Name.dist_done
            [
              ("jobs", J.Int total);
              ("redispatched", J.Int st.redispatched);
              ("workers", J.Int n);
              ( "dead",
                J.Int (List.length (List.filter (fun r -> r.wk_dead) workers))
              );
            ];
          Ok { redispatched = st.redispatched; workers })

let run ?sink ?(reduce = false) ?retries ?backoff_ms ?deadline_ms ?window
    ~scenario ~depth ~workers () =
  Result.bind
    (executor ?sink ?retries ?backoff_ms ?deadline_ms ?window workers)
    (Ckpt.Frontier.run ~reduce ~scenario ~depth)
  |> Result.map (fun (o : fleet Ckpt.Frontier.outcome) ->
         {
           r_verdict = o.verdict;
           r_stats = o.stats;
           r_jobs = o.jobs;
           r_redispatched = o.executor.redispatched;
           r_workers = o.executor.workers;
         })
