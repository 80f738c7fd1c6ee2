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
  pending : Exhaustive.subtree list Queue.t;  (* ranges nobody is running *)
  mutable left : int;  (* jobs without an accepted result *)
  mutable failed : string option;  (* an error every retry would repeat *)
  report : (int * (Exhaustive.verdict * Exhaustive.stats)) list -> unit;
  mutable redispatched : int;
}

let emit st name fields =
  match st.sink with
  | None -> ()
  | Some s -> Obs.Sink.emit s (Obs.Event.make name fields)

let locked st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let take_drop k l =
  (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

(* [todo] cut into [n] contiguous ranges (fewer when there are fewer
   jobs), with sizes differing by at most one job: the jobs of a range
   share the worker's memo table. *)
let cut n todo =
  let len = List.length todo in
  let rec go i rest =
    if rest = [] then []
    else
      let size = (len / n) + if i < len mod n then 1 else 0 in
      let range, rest = take_drop size rest in
      range :: go (i + 1) rest
  in
  go 0 todo

(* A range whose request came to nothing goes back, for any connection. *)
let requeue st ~reason range =
  Queue.push range st.pending;
  st.redispatched <- st.redispatched + List.length range;
  List.iter
    (fun sj ->
      emit st Obs.Event.Name.dist_redispatch
        [ ("job", J.Int sj.Exhaustive.sj_id); ("reason", J.Str reason) ])
    range;
  Condition.broadcast st.cond

(* Called with the lock held: the next range, [None] once every job is
   answered or the run has failed. An empty queue with jobs left means
   another connection runs them: wait for its result or its requeue. *)
let rec take st =
  if st.left = 0 || st.failed <> None then None
  else
    match Queue.take_opt st.pending with
    | Some _ as next -> next
    | None ->
      Condition.wait st.cond st.mutex;
      take st

let range_params config range =
  J.Obj
    [
      ("scenario", J.Str config.Ckpt.Record.cf_scenario);
      ("n_s", J.Int config.Ckpt.Record.cf_n_s);
      ("depth", J.Int config.Ckpt.Record.cf_depth);
      ("reduce", J.Bool config.Ckpt.Record.cf_reduce);
      ("jobs", J.List (List.map Exhaustive.subtree_json range));
    ]

(* The reply's [done] entries: one per job of [range], in its order. *)
let decode range json =
  Result.bind (Ckpt.Record.dones_of_json json) (fun ds ->
      if
        List.map (fun d -> d.Ckpt.Record.dj_id) ds
        = List.map (fun sj -> sj.Exhaustive.sj_id) range
      then Ok ds
      else Error "\"done\" ids are not the range's")

let connect ~retries ~backoff_ms addr =
  (* the binary codec when the server speaks it — subtree results are
     bulky and the hello downgrades transparently against an older fleet *)
  Svc.Client.connect ~retries ~backoff_ms ~codec:Svc.Protocol.Codec.Binary
    addr

(* A server's pool size, from its [stats] reply: how many ranges it runs
   at once. A server that does not say runs one. *)
let pool_size client =
  match Svc.Client.call client P.Stats with
  | Ok json -> (
    match J.member "workers" json with
    | Some (J.Int k) when k >= 1 -> k
    | _ -> 1)
  | Error _ -> 1

let exn_string = function
  | Unix.Unix_error (err, _, _) -> Unix.error_message err
  | e -> Printexc.to_string e

(* A connection failed: mark its server, requeue the range it owed. *)
let retire st ~dead w wname why range =
  locked st (fun () ->
      dead.(w) <- true;
      emit st Obs.Event.Name.dist_worker_dead
        [
          ("worker", J.Str wname);
          ("error", J.Str why);
          ("requeued", J.Int (List.length range));
        ];
      if range <> [] then requeue st ~reason:"worker_dead" range;
      Condition.broadcast st.cond)

(* One connection's thread: run one range at a time until the run
   completes, fails or the connection dies. A dead connection requeues the
   range it owed and retires the thread — the jobs live on elsewhere. *)
let conn_loop st ~config ~deadline_ms ~backoff_ms ~accepted ~dead w wname
    client =
  let owed = ref [] in
  let settle ds =
    locked st (fun () ->
        (* the driver keeps and journals the batch; each job has exactly
           one live dispatch, so every result is new *)
        st.report
          (List.map
             (fun d -> (d.Ckpt.Record.dj_id, (d.dj_verdict, d.dj_stats)))
             ds);
        List.iter
          (fun { Ckpt.Record.dj_id = id; dj_verdict = v; _ } ->
            st.left <- st.left - 1;
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
              ])
          ds;
        owed := [];
        Condition.broadcast st.cond)
  in
  let rec serve () =
    let next =
      locked st (fun () ->
          let next = take st in
          Option.iter
            (List.iter (fun sj ->
                 emit st Obs.Event.Name.dist_dispatch
                   [
                     ("job", J.Int sj.Exhaustive.sj_id);
                     ("worker", J.Str wname);
                   ]))
            next;
          next)
    in
    match next with
    | None -> Svc.Client.close client
    | Some range -> (
      owed := range;
      let fail why =
        Svc.Client.close client;
        retire st ~dead w wname why range
      in
      match
        Svc.Client.call ?deadline_ms ~params:(range_params config range)
          client P.Subtree
      with
      | Ok json -> (
        match decode range json with
        | Ok ds ->
          settle ds;
          serve ()
        | Error msg -> fail ("bad result: " ^ msg))
      | Error (Svc.Client.Transport msg) -> fail msg
      | Error
          (Svc.Client.Server (((P.Overloaded | P.Shutting_down) as code), _))
        ->
        (* the server may take the range later, or another will *)
        locked st (fun () -> requeue st ~reason:(P.err_code_string code) range);
        owed := [];
        Thread.delay (float_of_int backoff_ms /. 1000.);
        serve ()
      | Error
          (Svc.Client.Server
             (((P.Oversized | P.Deadline_exceeded) as code), _))
        when List.length range > 1 ->
        (* the range is too big for this server's frame or deadline limit:
           its halves may fit, down to single jobs *)
        let a, b = take_drop (List.length range / 2) range in
        locked st (fun () ->
            requeue st ~reason:(P.err_code_string code) a;
            requeue st ~reason:(P.err_code_string code) b);
        owed := [];
        serve ()
      | Error (Svc.Client.Server (code, msg)) ->
        (* a single job past a limit, a rejected request or a crashed
           handler recurs on every retry: requeueing would never end *)
        let ids = List.map (fun sj -> sj.Exhaustive.sj_id) range in
        let jobs =
          match ids with
          | [ id ] -> Printf.sprintf "job %d" id
          | _ ->
            Printf.sprintf "%d jobs, ids %d..%d" (List.length ids)
              (List.hd ids)
              (List.hd (List.rev ids))
        in
        locked st (fun () ->
            if st.failed = None then
              st.failed <-
                Some
                  (Printf.sprintf "worker %s: %s on %s: %s" wname
                     (P.err_code_string code) jobs msg);
            Condition.broadcast st.cond);
        Svc.Client.close client)
  in
  try serve ()
  with e ->
    Svc.Client.close client;
    retire st ~dead w wname (exn_string e) !owed

(* Ranges per connection when the driver journals: a kill loses the
   ranges in flight, so a finer cut bounds the loss at the price of a few
   more cold memo tables. *)
let journaled_ranges = 4

let executor ?sink ?(retries = 5) ?(backoff_ms = 50) ?deadline_ms workers =
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
      (fun _sc config fr ~journaled ~todo ~report ->
        let total = List.length fr.Exhaustive.fr_jobs in
        let n = List.length workers in
        let st =
          {
            mutex = Mutex.create ();
            cond = Condition.create ();
            sink;
            pending = Queue.create ();
            left = List.length todo;
            failed = None;
            report;
            redispatched = 0;
          }
        in
        emit st Obs.Event.Name.dist_split
          [
            ("jobs", J.Int total);
            ("split_depth", J.Int config.Ckpt.Record.cf_split_depth);
            ("pruned", J.Int fr.Exhaustive.fr_pruned);
          ];
        let accepted = Array.make n 0 and dead = Array.make n false in
        let wname w addr = Printf.sprintf "%d:%s" w addr in
        (* connect to every server at once, and learn how many ranges each
           runs at a time *)
        let opened = Array.make n None in
        List.mapi
          (fun w addr ->
            Thread.create
              (fun () ->
                match connect ~retries ~backoff_ms addr with
                | exception e ->
                  retire st ~dead w (wname w addr) (exn_string e) []
                | client -> opened.(w) <- Some (client, pool_size client))
              ())
          workers
        |> List.iter Thread.join;
        let slots =
          Array.fold_left
            (fun acc o -> acc + Option.fold ~none:0 ~some:snd o)
            0 opened
        in
        (* A reduced search keeps no memo, so a range would share
           nothing and only unbalance the workers: one job per range, and
           two connections per pool domain, so the server has the next job
           queued while a reply travels. An unreduced run's ranges are cut
           once, one per connection, so more connections would only mean
           more cold memo tables. *)
        let ranges, per_domain =
          if config.Ckpt.Record.cf_reduce then
            (List.map (fun sj -> [ sj ]) todo, 2)
          else
            let per_conn = if journaled then journaled_ranges else 1 in
            (cut (max 1 slots * per_conn) todo, 1)
        in
        List.iter (fun r -> Queue.push r st.pending) ranges;
        (* each connection has one range in flight *)
        List.concat
          (List.mapi
             (fun w addr ->
               match opened.(w) with
               | None -> []
               | Some (client, k) ->
                 let loop client =
                   conn_loop st ~config ~deadline_ms ~backoff_ms ~accepted
                     ~dead w (wname w addr) client
                 in
                 Thread.create loop client
                 :: List.init
                      (max 0 (min (per_domain * k) (List.length ranges) - 1))
                      (fun _ ->
                        Thread.create
                          (fun () ->
                            match connect ~retries ~backoff_ms addr with
                            | exception e ->
                              retire st ~dead w (wname w addr) (exn_string e)
                                []
                            | client -> loop client)
                          ()))
             workers)
        |> List.iter Thread.join;
        match st.failed with
        | Some msg -> Error msg
        | None when st.left > 0 -> Error "every worker failed"
        | None ->
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

let run ?sink ?(reduce = false) ?retries ?backoff_ms ?deadline_ms ~scenario
    ~depth ~workers () =
  Result.bind
    (executor ?sink ?retries ?backoff_ms ?deadline_ms workers)
    (Ckpt.Frontier.run ~reduce ~scenario ~depth)
  |> Result.map (fun (o : fleet Ckpt.Frontier.outcome) ->
         {
           r_verdict = o.verdict;
           r_stats = o.stats;
           r_jobs = o.jobs;
           r_redispatched = o.executor.redispatched;
           r_workers = o.executor.workers;
         })
