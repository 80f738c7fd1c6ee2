(* The repository benchmark: one anchor check per workload, delivered at
   three rungs (in-process, checkpointed, TCP fleet), plus a closed loop of
   scenario requests served by [wfa serve]. Every answer is checked; the
   last stdout line is the JSON result. METRICS.md defines the metrics.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
                 --wfa PATH [--commit ID]
                 [--control none|wrong-count|tamper-reply]

   Run from the repository root: it reads perfbench/mix.json and writes
   under .perfbench_out/. *)

module J = Obs.Json
module Ex = Simkit.Exhaustive
module Sc = Mcheck.Scenario
module Spec = Scenario.Spec
module P = Svc.Protocol
module Client = Svc.Client

let now = Obs.Clock.now_ns
let since t0 = Obs.Clock.elapsed_s ~since:t0
let secs_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let after_s t0 s = Int64.add t0 (Int64.of_float (s *. 1e9))

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* ------------------------------------------------------------ workloads *)

type rung = Mono | Durable | Fleet | Served

let rung_name = function
  | Mono -> "mono"
  | Durable -> "durable"
  | Fleet -> "fleet"
  | Served -> "served"

(* Cores a rung needs to mean what it says: the fleet is two single-domain
   worker processes, the served loop a two-domain server. *)
let cores_needed = function
  | Fleet | Served -> 2
  | Mono | Durable -> 1

type workload = {
  name : string;
  depth : int;  (** ladder anchor: safe-agreement, n_s = 3, at this depth *)
  reduce : bool;
  mix : bool;  (** served requests drawn from the mix, else the anchor *)
  window : int;  (** served requests in flight per connection *)
  shares : (rung * float) list;  (** relative measured-time shares *)
}

(* Shares keep each served sample count well inside one band of the tail
   percentile ladder ([Stat.tail]), so the reported percentile does not
   switch between runs. *)
let workloads =
  let ladder served =
    [ (Mono, 1.); (Durable, 2.); (Fleet, 2.); (Served, served) ]
  in
  [
    {
      name = "mc-ladder";
      depth = 10;
      reduce = false;
      mix = false;
      window = 1;
      shares = ladder 2.5;
    };
    {
      name = "mc-reduced";
      depth = 16;
      reduce = true;
      mix = false;
      window = 1;
      shares = ladder 1.4;
    };
    {
      name = "serve-mix";
      depth = 8;
      reduce = false;
      mix = true;
      window = 8;
      shares = [ (Served, 3.); (Mono, 1.); (Durable, 1.); (Fleet, 1.) ];
    };
  ]

(* ---------------------------------------------------------- command line *)

let opt_workload = ref ""
let opt_seed = ref (-1)
let opt_seconds = ref 10
let opt_trace = ref 0
let opt_wfa = ref ""
let opt_commit = ref "unknown"
let opt_control = ref "none"

let usage =
  "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --wfa PATH"

let args =
  [
    ( "--workload",
      Arg.Set_string opt_workload,
      "W mc-ladder | mc-reduced | serve-mix" );
    ("--seed", Arg.Set_int opt_seed, "N input seed (served request order)");
    ("--seconds", Arg.Set_int opt_seconds, "S measured seconds");
    ("--trace", Arg.Set_int opt_trace, "0|1 end-to-end run, or traced run");
    ("--wfa", Arg.Set_string opt_wfa, "PATH the wfa binary to serve from");
    ("--commit", Arg.Set_string opt_commit, "ID source identity to record");
    ( "--control",
      Arg.Symbol
        ([ "none"; "wrong-count"; "tamper-reply" ], fun s -> opt_control := s),
      " negative control: expect a wrong count, or tamper one reply" );
  ]

(* ------------------------------------------------------------- failures *)

let attempted = Atomic.make 0
let failed = Atomic.make 0
let fail_log : string list ref = ref []
let fail_lock = Mutex.create ()

let tally ok what =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    locked fail_lock (fun () ->
        if List.length !fail_log < 20 then fail_log := what :: !fail_log)
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------ the oracle *)

let pow b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

(* A safe scenario's verdict must be [Ok (|pids|^depth)]: every schedule is
   credited. The wrong-count control shifts the expectation by one. *)
let expected_count ~pids ~depth =
  pow pids depth + if !opt_control = "wrong-count" then 1 else 0

let tamper_pending = Atomic.make false

(* Negative control: flip every boolean, swap verdict names and shift
   schedule counts in one reply, which must then fail classification. *)
let rec tamper = function
  | J.Bool b -> J.Bool (not b)
  | J.Str "ok" -> J.Str "counterexample"
  | J.Str "counterexample" -> J.Str "ok"
  | J.Obj fields ->
    J.Obj
      (List.map
         (function
           | "schedules", J.Int n -> ("schedules", J.Int (n + 1))
           | k, v -> (k, tamper v))
         fields)
  | J.List xs -> J.List (List.map tamper xs)
  | v -> v

(* ----------------------------------------------------------- environment *)

type fixture = {
  workers : Procs.t list;  (** the fleet: two single-domain servers *)
  server : Procs.t;  (** the served loop's two-domain server *)
  conns : Client.t array;  (** served loop connections: JSON, binary *)
}

type env = {
  wl : workload;
  sc : Sc.t;
  red : Ex.reduction option;
  expected : int;
  out : string;
  fx : fixture;
  specs : Spec.t array;  (** what the served loop draws from *)
  params : J.t array;  (** [Spec.to_json] of each, built once *)
  counts : int option array;  (** expected schedules, safe modelchecks *)
  decks : int array array;  (** per connection: spec order of this pass *)
  next_card : int array;
  rngs : Random.State.t array;  (** per connection, from --seed *)
  mutable reference : Ex.verdict option;  (** the mono rung's verdict *)
  mutable store_seq : int;
}

(* A served reply passes when [Spec.classify] says Pass and, for a safe
   modelcheck, the credited count is exactly |pids|^depth. *)
let reply_ok env k (resp : (J.t, Client.error) result) =
  let sp = env.specs.(k) in
  let outcome, detail =
    match resp with
    | Ok j -> (
      match J.member "result" j with
      | Some r -> Spec.classify sp (Ok r)
      | None -> Spec.classify sp (Error ("internal", "reply without result")))
    | Error (Client.Server (code, msg)) ->
      Spec.classify sp (Error (P.err_code_string code, msg))
    | Error (Client.Transport msg) ->
      Spec.classify sp (Error ("transport", msg))
  in
  let count_ok =
    match (env.counts.(k), resp) with
    | Some n, Ok j -> (
      match Option.bind (J.member "result" j) (J.member "schedules") with
      | Some (J.Int m) -> m = n
      | _ -> false)
    | _ -> true
  in
  ( outcome = Spec.Pass && count_ok,
    Printf.sprintf "%s: %s%s %s" sp.Spec.sp_name
      (Spec.outcome_string outcome)
      (if count_ok then "" else " (wrong schedule count)")
      detail )

(* Each rung's verdict must be the credited count and equal mono's. *)
let check_verdict env rung v =
  let ok =
    (match v with Ex.Ok n -> n = env.expected | Ex.Counterexample _ -> false)
    && match env.reference with None -> true | Some r -> r = v
  in
  tally ok
    (Printf.sprintf "%s: verdict %s, expected Ok %d" (rung_name rung)
       (match v with
       | Ex.Ok n -> Printf.sprintf "Ok %d" n
       | Ex.Counterexample _ -> "Counterexample")
       env.expected);
  if env.reference = None && rung = Mono then env.reference <- Some v

(* ---------------------------------------------------------- the ladder *)

type ladder_sample = { wall : float; st : Ex.stats }

(* Time spent in the scenario's [sc_build]/[sc_prop] during one check, and
   sampled [Runtime.digest] costs; filled only in the traced phase. *)
type probe = {
  mutable build_s : float;
  mutable prop_s : float;
  mutable digest_s : float;
  mutable prop_calls : int;
  mutable digests : float list;
}

let probe =
  { build_s = 0.; prop_s = 0.; digest_s = 0.; prop_calls = 0; digests = [] }

(* The anchor scenario with [sc_build]/[sc_prop] timed, and an extra
   [Runtime.digest] on every 64th visited state to sample digest cost. *)
let wrap sc =
  probe.build_s <- 0.;
  probe.prop_s <- 0.;
  probe.digest_s <- 0.;
  {
    sc with
    Sc.sc_build =
      (fun () ->
        let t0 = now () in
        let rt = sc.Sc.sc_build () in
        probe.build_s <- probe.build_s +. since t0;
        rt);
    sc_prop =
      (fun rt ->
        let t0 = now () in
        let ok = sc.Sc.sc_prop rt in
        probe.prop_s <- probe.prop_s +. since t0;
        probe.prop_calls <- probe.prop_calls + 1;
        if probe.prop_calls land 63 = 0 then begin
          let t1 = now () in
          ignore (Simkit.Runtime.digest rt);
          let d = since t1 in
          probe.digest_s <- probe.digest_s +. d;
          probe.digests <- d :: probe.digests
        end;
        ok);
  }

(* Per-layer samples of the traced phase, one entry per op. *)
type layer = {
  mutable engine : (rung * (float * float * float)) list;
      (** build, prop and self seconds *)
  mutable ck_jobs : int;
  mutable ck_generations : float list;
  mutable ck_bytes : float list;
  mutable ck_load : float list;
  mutable ck_journal : float list;
  mutable d_jobs : float list;
  mutable d_redispatched : float list;
  mutable d_busy : float list;
  mutable d_idle : float list;
  mutable d_overhead : float list;
  mutable d_rtts : float list;
  mutable d_server_lat : float list;
}

let layer =
  {
    engine = [];
    ck_jobs = 0;
    ck_generations = [];
    ck_bytes = [];
    ck_load = [];
    ck_journal = [];
    d_jobs = [];
    d_redispatched = [];
    d_busy = [];
    d_idle = [];
    d_overhead = [];
    d_rtts = [];
    d_server_lat = [];
  }

let note_engine rung wall =
  let self = wall -. probe.build_s -. probe.prop_s -. probe.digest_s in
  layer.engine <- (rung, (probe.build_s, probe.prop_s, self)) :: layer.engine

let op_seq = Atomic.make 0
let new_op () = Atomic.fetch_and_add op_seq 1

let run_mono env ~traced =
  let op = new_op () in
  let sc = if traced then wrap env.sc else env.sc in
  Spans.within ~name:"op.mono" ~op ~parent:(-1) (fun parent ->
      let t0 = now () in
      let v, st =
        Spans.within ~name:"simkit.Exhaustive.run" ~op ~parent (fun _ ->
            Ex.run ?reduce:env.red ~build:sc.Sc.sc_build ~pids:sc.Sc.sc_pids
              ~depth:env.wl.depth ~prop:sc.Sc.sc_prop ())
      in
      let wall = since t0 in
      check_verdict env Mono v;
      if traced then note_engine Mono wall;
      { wall; st })

let counter reg name =
  float_of_int (Obs.Metrics.counter_value (Obs.Metrics.counter reg name))

(* [Ckpt.Local.run] into a fresh store; the timed check includes opening
   the store, as [wfa modelcheck --checkpoint DIR] does. *)
let run_durable env ~traced =
  let op = new_op () in
  let sc = if traced then wrap env.sc else env.sc in
  env.store_seq <- env.store_seq + 1;
  let dir = Filename.concat env.out (Printf.sprintf "store-%d" env.store_seq) in
  rm_rf dir;
  let reg = Obs.Metrics.registry () in
  let sample =
    Spans.within ~name:"op.durable" ~op ~parent:(-1) (fun parent ->
        let t0 = now () in
        let res =
          Spans.within ~name:"ckpt.Store.create" ~op ~parent (fun _ ->
              Ckpt.Store.create ~metrics:reg dir)
          |> Result.map (fun store ->
                 ( store,
                   Spans.within ~name:"ckpt.Local.run" ~op ~parent (fun _ ->
                       Ckpt.Local.run ~reduce:env.wl.reduce ~store
                         ~scenario:sc ~depth:env.wl.depth ()) ))
        in
        let wall = since t0 in
        match res with
        | Error e | Ok (_, Error e) ->
          tally false ("durable: " ^ e);
          None
        | Ok (store, Ok (v, st)) ->
          check_verdict env Durable v;
          if traced then begin
            note_engine Durable wall;
            let t1 = now () in
            let loaded =
              Spans.within ~name:"ckpt.Local.load_record" ~op ~parent
                (fun _ -> Ckpt.Local.load_record store)
            in
            layer.ck_load <- since t1 :: layer.ck_load;
            let generations = counter reg "ckpt.generations" in
            (match loaded with
            | Ok (_, r) ->
              layer.ck_jobs <- r.Ckpt.Record.ck_total;
              (* the journal's cost: one more durable write of the final
                 record, times the generations the check wrote *)
              let t2 = now () in
              ignore (Ckpt.Store.save store (Ckpt.Record.json r));
              layer.ck_journal <- (since t2 *. generations) :: layer.ck_journal
            | Error e -> tally false ("durable: load_record: " ^ e));
            layer.ck_generations <- generations :: layer.ck_generations;
            layer.ck_bytes <- counter reg "ckpt.bytes_written" :: layer.ck_bytes
          end;
          Some { wall; st })
  in
  rm_rf dir;
  sample

(* ------------------------------------------------------- server metrics *)

(* A server's [metrics] verb snapshot: its list of metric entries. *)
let metrics_of addr =
  let c = Client.connect ~retries:10 addr in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match Client.call c P.Metrics with
      | Ok j -> (
        match J.member "metrics" j with Some (J.List l) -> l | _ -> [])
      | Error e -> failwith ("metrics verb: " ^ Client.error_string e))

let num j k =
  match J.member k j with
  | Some (J.Int n) -> float_of_int n
  | Some (J.Float f) -> f
  | _ -> 0.

let entries metrics name =
  List.filter (fun e -> J.member "name" e = Some (J.Str name)) metrics

(* The [svc.latency_s] histogram entry for one verb, and its (count, sum) *)
let latency_entry metrics verb =
  let is_verb e =
    Option.bind (J.member "labels" e) (J.member "verb") = Some (J.Str verb)
  in
  List.find_opt is_verb (entries metrics "svc.latency_s")

let latency metrics verb =
  match latency_entry metrics verb with
  | Some e -> (num e "count", num e "sum")
  | None -> (0., 0.)

let counter_sum metrics name =
  List.fold_left (fun acc e -> acc +. num e "value") 0. (entries metrics name)

(* ---------------------------------------------------------------- fleet *)

(* Traced-phase fleet figures. Worker busy time is the engine time the
   workers report for accepted jobs (the merged stats' [wall_s], which also
   holds the coordinator's shallow split): the servers' latency histograms
   also count the time a job queues behind the coordinator's window, and
   per-worker engine time is not reported, so the overhead is taken
   against the mean worker. *)
let note_fleet (r : Dist.Coordinator.report) ~wall ~before ~after ~events
    ~op ~parent =
  let engine_s = r.r_stats.Ex.wall_s in
  let jobs = List.map (fun w -> w.Dist.Coordinator.wk_jobs) r.r_workers in
  let delta f =
    List.fold_left2
      (fun acc b a ->
        let c0, s0 = latency b "subtree" and c1, s1 = latency a "subtree" in
        acc +. f (c1 -. c0) (s1 -. s0))
      0. before after
  in
  let served = delta (fun c _ -> c) and latency_sum = delta (fun _ s -> s) in
  let n_workers = float_of_int (List.length jobs) in
  layer.d_jobs <- float_of_int r.r_jobs :: layer.d_jobs;
  layer.d_redispatched <- float_of_int r.r_redispatched :: layer.d_redispatched;
  layer.d_busy <- engine_s :: layer.d_busy;
  layer.d_idle <- (1. -. (engine_s /. (n_workers *. wall))) :: layer.d_idle;
  layer.d_overhead <- (wall -. (engine_s /. n_workers)) :: layer.d_overhead;
  if served > 0. then
    layer.d_server_lat <- (latency_sum /. served) :: layer.d_server_lat;
  (* job round trips: dispatch to accepted result, per (job, worker) *)
  let field (ev : Obs.Event.t) k = List.assoc_opt k ev.fields in
  let sent = Hashtbl.create 64 in
  List.iter
    (fun ((ev : Obs.Event.t), t) ->
      let key = (field ev "job", field ev "worker") in
      if ev.name = Obs.Event.Name.dist_dispatch then Hashtbl.replace sent key t
      else if ev.name = Obs.Event.Name.dist_result then
        Option.iter
          (fun t_sent ->
            Spans.record ~name:"dist.job" ~op ~parent t_sent t;
            layer.d_rtts <- secs_between t_sent t :: layer.d_rtts)
          (Hashtbl.find_opt sent key))
    events

let run_fleet env ~traced =
  let op = new_op () in
  let addrs = List.map (fun w -> w.Procs.addr) env.fx.workers in
  let before = if traced then List.map metrics_of addrs else [] in
  let ev_lock = Mutex.create () in
  let events = ref [] in
  let sink =
    if traced then
      Some
        (Obs.Sink.of_fn (fun ev ->
             let t = now () in
             locked ev_lock (fun () -> events := (ev, t) :: !events)))
    else None
  in
  Spans.within ~name:"op.fleet" ~op ~parent:(-1) (fun parent ->
      let t0 = now () in
      let coord = ref (-1) in
      let res =
        Spans.within ~name:"dist.Coordinator.run" ~op ~parent (fun id ->
            coord := id;
            Dist.Coordinator.run ?sink ~reduce:env.wl.reduce ~scenario:env.sc
              ~depth:env.wl.depth ~workers:addrs ())
      in
      let wall = since t0 in
      match res with
      | Error e ->
        tally false ("fleet: " ^ e);
        None
      | Ok r ->
        check_verdict env Fleet r.r_verdict;
        if traced then
          note_fleet r ~wall ~before ~after:(List.map metrics_of addrs)
            ~events:(List.rev !events) ~op ~parent:!coord;
        Some { wall; st = r.r_stats })

(* --------------------------------------------------------------- served *)

type reply = {
  conn : int;
  spec : int;
  lat : float;
  steps : int option;  (** solve: steps of the run report *)
  trials : int option;  (** fuzz: trials run *)
  frame : P.response option;  (** successful reply, kept for codec timing *)
}

let int_at path j =
  let v = List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) in
  match v path with Some (J.Int n) -> Some n | _ -> None

(* The next request of connection [i]: passes over every spec, each pass in
   a fresh seeded order, so every pass sends the same multiset and runs
   differ only in order. *)
let draw env i =
  let deck = env.decks.(i) in
  let n = Array.length deck in
  if env.next_card.(i) = 0 then
    for j = n - 1 downto 1 do
      let k = Random.State.int env.rngs.(i) (j + 1) in
      let t = deck.(j) in
      deck.(j) <- deck.(k);
      deck.(k) <- t
    done;
  let k = deck.(env.next_card.(i)) in
  env.next_card.(i) <- (env.next_card.(i) + 1) mod n;
  k

(* One connection's closed loop: keep [window] requests in flight until
   [until], then drain. Returns the replies and whether the link died. *)
let serve_conn env ~i ~until ~op ~parent =
  let c = env.fx.conns.(i) in
  let inflight = Hashtbl.create 16 in
  let replies = ref [] in
  let dead = ref false in
  let send () =
    let k = draw env i in
    let t0 = now () in
    let deadline_ms = env.specs.(k).Spec.sp_deadline_ms in
    match Client.send ?deadline_ms ~params:env.params.(k) c P.Scenario with
    | Ok id -> Hashtbl.replace inflight id (k, t0)
    | Error e ->
      tally false ("served: send: " ^ Client.error_string e);
      dead := true
  in
  let window = env.wl.window in
  while (not !dead) && Hashtbl.length inflight < window && now () < until do
    send ()
  done;
  while (not !dead) && Hashtbl.length inflight > 0 do
    match Client.recv c with
    | Error e ->
      let why = "served: recv: " ^ Client.error_string e in
      Hashtbl.iter (fun _ _ -> tally false why) inflight;
      Hashtbl.reset inflight;
      dead := true
    | Ok (id, resp) -> (
      match Hashtbl.find_opt inflight id with
      | None ->
        tally false (Printf.sprintf "served: unexpected reply id %d" id);
        dead := true
      | Some (k, t0) ->
        let t1 = now () in
        Hashtbl.remove inflight id;
        Spans.record ~name:"svc.request" ~op ~parent t0 t1;
        let resp =
          match resp with
          | Ok j when Atomic.compare_and_set tamper_pending true false ->
            Ok (tamper j)
          | r -> r
        in
        let good, what = reply_ok env k resp in
        tally good ("served: " ^ what);
        let result = Result.to_option resp in
        replies :=
          {
            conn = i;
            spec = k;
            lat = secs_between t0 t1;
            steps = Option.bind result (int_at [ "result"; "report"; "steps" ]);
            trials = Option.bind result (int_at [ "result"; "fuzz"; "trials" ]);
            frame = Option.map (P.ok ~id) result;
          }
          :: !replies;
        if now () < until then send ())
  done;
  (!replies, !dead)

let conns_dead = ref false

(* A burst: both connections run their closed loops concurrently. Traced
   bursts also snapshot the server's [metrics] before and after, so its
   figures cover exactly the requests of the bursts that are kept. *)
let run_served env ~seconds ~traced =
  let op = new_op () in
  let snapshot () =
    if traced then metrics_of env.fx.server.Procs.addr else []
  in
  let before = snapshot () in
  let s, replies =
    Spans.within ~name:"op.served" ~op ~parent:(-1) (fun parent ->
      let t0 = now () in
      let until = after_s t0 seconds in
      let results = Array.make 2 ([], false) in
      List.init 2 (fun i ->
          Thread.create
            (fun () -> results.(i) <- serve_conn env ~i ~until ~op ~parent)
            ())
      |> List.iter Thread.join;
      if Array.exists snd results then conns_dead := true;
      (since t0, List.concat_map fst (Array.to_list results)))
  in
  (s, replies, (before, snapshot ()))

(* -------------------------------------------------------------- the run *)

type phase = {
  ladder : (rung, ladder_sample) Hashtbl.t;  (** multi-binding: every op *)
  mutable served_s : float;
  mutable replies : reply list;
  mutable server : (J.t list * J.t list) list;
      (** traced: the served server's metrics before and after each burst *)
}

let walls ph rung = List.map (fun s -> s.wall) (Hashtbl.find_all ph.ladder rung)
let stats_of ph r = List.map (fun s -> s.st) (Hashtbl.find_all ph.ladder r)

(* Run the workload's parts interleaved for [seconds]: the part with the
   least measured time per unit of share goes next, so slow drift hits
   every part alike. The first op of each part warms it at full depth and
   is checked but not kept; every part keeps at least one sample. *)
let measure env ~rungs ~seconds ~traced =
  let ph =
    { ladder = Hashtbl.create 64; served_s = 0.; replies = []; server = [] }
  in
  let busy = Hashtbl.create 8 in
  List.iter (fun (r, _) -> Hashtbl.replace busy r 0.) rungs;
  let charge r s = Hashtbl.replace busy r (Hashtbl.find busy r +. s) in
  let t_end = after_s (now ()) seconds in
  let next () =
    let key (r, share) = Hashtbl.find busy r /. share in
    List.fold_left
      (fun best x -> if key x < key best then x else best)
      (List.hd rungs) rungs
    |> fst
  in
  let warmed = Hashtbl.create 8 in
  let keep r =
    let warm = Hashtbl.mem warmed r in
    Hashtbl.replace warmed r ();
    warm
  in
  let add r s =
    if keep r then Hashtbl.add ph.ladder r s;
    charge r s.wall
  in
  let missing () =
    List.exists
      (fun (r, _) ->
        match r with
        | Served -> ph.replies = []
        | Mono | Durable | Fleet -> not (Hashtbl.mem ph.ladder r))
      rungs
  in
  while (now () < t_end || missing ()) && not !conns_dead do
    match next () with
    | Mono -> add Mono (run_mono env ~traced)
    | Durable -> Option.iter (add Durable) (run_durable env ~traced)
    | Fleet -> Option.iter (add Fleet) (run_fleet env ~traced)
    | Served ->
      let left = secs_between (now ()) t_end in
      let s, replies, server =
        run_served env ~seconds:(Float.max 0.05 (Float.min 1. left)) ~traced
      in
      if keep Served then begin
        ph.served_s <- ph.served_s +. s;
        ph.replies <- replies @ ph.replies;
        ph.server <- server :: ph.server
      end;
      charge Served s
  done;
  ph

(* --------------------------------------------------------------- set-up *)

let modelcheck_spec ~name ~depth ~reduce =
  Spec.of_json
    (J.Obj
       [
         ("v", J.Int 1);
         ("name", J.Str name);
         ("verb", J.Str "modelcheck");
         ( "params",
           J.Obj
             [
               ("scenario", J.Str "safe-agreement");
               ("n_s", J.Int 3);
               ("depth", J.Int depth);
               ("reduce", J.Bool reduce);
             ] );
         ("expect", J.Obj [ ("outcome", J.Str "safe") ]);
       ])
  |> function
  | Ok sp -> sp
  | Error e -> failwith e

(* Spawn the fleet workers and the served server, wait until they listen,
   connect, and warm every path once at depth 4. *)
let setup ~wfa ~out ~sc ~reduce =
  let w1 = Procs.spawn ~wfa ~dir:out ~tag:"worker-1" ~workers:1 in
  let w2 = Procs.spawn ~wfa ~dir:out ~tag:"worker-2" ~workers:1 in
  let server = Procs.spawn ~wfa ~dir:out ~tag:"server" ~workers:2 in
  let connect codec = Client.connect ~retries:10 ~codec server.Procs.addr in
  let conns = [| connect P.Codec.Json; connect P.Codec.Binary |] in
  let warm = Spec.to_json (modelcheck_spec ~name:"warm-up" ~depth:4 ~reduce) in
  Array.iter
    (fun c ->
      match Client.call ~params:warm c P.Scenario with
      | Ok _ -> ()
      | Error e -> failwith ("warm-up: " ^ Client.error_string e))
    conns;
  ignore
    (Ex.run
       ?reduce:(Sc.reduction sc ~reduce)
       ~build:sc.Sc.sc_build ~pids:sc.Sc.sc_pids ~depth:4 ~prop:sc.Sc.sc_prop
       ());
  (match
     Dist.Coordinator.run ~reduce ~scenario:sc ~depth:4
       ~workers:[ w1.Procs.addr; w2.Procs.addr ] ()
   with
  | Ok _ -> ()
  | Error e -> failwith ("warm-up fleet: " ^ e));
  let dir = Filename.concat out "store-warm" in
  rm_rf dir;
  (match Ckpt.Store.create dir with
  | Ok store -> ignore (Ckpt.Local.run ~reduce ~store ~scenario:sc ~depth:4 ())
  | Error e -> failwith ("warm-up store: " ^ e));
  rm_rf dir;
  { workers = [ w1; w2 ]; server; conns }

let teardown fx =
  Array.iter Client.close fx.conns;
  List.iter Procs.stop (fx.server :: fx.workers)

(* ------------------------------------------------------------ reporting *)

let metrics : (string * float * string) list ref = ref []
let notes : (string * J.t) list ref = ref []

let put name value unit =
  if Float.is_finite value then metrics := (name, value, unit) :: !metrics
  else Printf.printf "  %-36s not measured\n" name

(* Print a timing beside its tail and sample count; keep the samples. *)
let describe name xs unit =
  let p, t = Stat.tail xs and m = Stat.median xs and n = List.length xs in
  Printf.printf "  %-18s median %.6f %s  p%g %.6f  n=%d\n" name m unit p t n;
  notes :=
    ( name,
      J.Obj
        [
          ("median", J.Float m);
          ("tail_pct", J.Float p);
          ("tail", J.Float t);
          ("n", J.Int n);
          ("samples", J.List (List.rev_map (fun x -> J.Float x) xs));
        ] )
    :: !notes

let skip name need =
  let why = Printf.sprintf "skipped: cores<%d" need in
  Printf.printf "  %-18s %s\n" name why;
  notes := (name, J.Str why) :: !notes

let ncores = Domain.recommended_domain_count ()
let med xs = if xs = [] then 0. else Stat.median xs
let mean xs = if xs = [] then 0. else Stat.mean xs
let sum xs = List.fold_left ( +. ) 0. xs

(* End-to-end metrics from an untraced phase. *)
let end_to_end ph ~setups ~rss =
  describe "setup_s" setups "s";
  put "setup_s" (Stat.median setups) "s";
  List.iter
    (fun r ->
      let name = rung_name r ^ "_check_s" in
      if ncores < cores_needed r then skip name (cores_needed r)
      else begin
        let xs = walls ph r in
        describe name xs "s";
        put name (Stat.median xs) "s"
      end)
    [ Mono; Durable; Fleet ];
  if ncores < cores_needed Served then skip "req_*" (cores_needed Served)
  else begin
    let lats = List.map (fun r -> r.lat) ph.replies in
    describe "req_latency_s" lats "s";
    put "req_per_s" (float_of_int (List.length lats) /. ph.served_s) "1/s";
    put "req_p50_s" (Stat.median lats) "s";
    put "req_tail_s" (snd (Stat.tail lats)) "s"
  end;
  put "peak_rss_mb" rss "MB"

(* [Runtime.step] along seeded random schedules of the anchor's depth. *)
let step_ns env =
  let sc = env.sc in
  let pids = Array.of_list sc.Sc.sc_pids in
  let rng = Random.State.make [| !opt_seed; 7 |] in
  let steps = ref 0 and ns = ref 0L in
  let t_end = after_s (now ()) 0.2 in
  while now () < t_end do
    let rt = sc.Sc.sc_build () in
    let t0 = now () in
    for _ = 1 to env.wl.depth do
      Simkit.Runtime.step rt pids.(Random.State.int rng (Array.length pids))
    done;
    ns := Int64.add !ns (Int64.sub (now ()) t0);
    steps := !steps + env.wl.depth;
    Simkit.Runtime.destroy rt
  done;
  Int64.to_float !ns /. float_of_int !steps

(* Mean microseconds per call of [f] over [items], repeated for ~50 ms. *)
let per_call_us items f =
  let n = ref 0 and t0 = now () in
  while !n = 0 || since t0 < 0.05 do
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
    n := !n + List.length items
  done;
  since t0 *. 1e6 /. float_of_int !n

let engine_layers env ~base ~ph =
  List.iter
    (fun r ->
      let rn = rung_name r in
      match stats_of ph r with
      | [] -> ()
      | st :: _ ->
        let c name v =
          put
            (Printf.sprintf "exhaustive.%s.%s" name rn)
            (float_of_int v) "count"
        in
        c "nodes" st.Ex.nodes;
        c "steps" st.Ex.steps_executed;
        c "replays" st.Ex.replays;
        c "builds" st.Ex.runtimes_built;
        c "memo_hits" st.Ex.memo_hits;
        put ("exhaustive.memo_hit_ratio." ^ rn)
          (float_of_int st.Ex.memo_hits /. float_of_int (max 1 st.Ex.nodes))
          "ratio")
    [ Mono; Durable; Fleet ];
  (match stats_of ph Mono with
  | st :: _ ->
    put "exhaustive.sleep_pruned" (float_of_int st.Ex.sleep_pruned) "count";
    put "exhaustive.orbits_collapsed"
      (float_of_int st.Ex.orbits_collapsed)
      "count"
  | [] -> ());
  List.iter
    (fun r ->
      let rn = rung_name r in
      let parts = List.filter_map
          (fun (r', x) -> if r' = r then Some x else None) layer.engine in
      let pick f = med (List.map f parts) in
      put ("runtime.build_s." ^ rn) (pick (fun (b, _, _) -> b)) "s";
      put ("exhaustive.prop_s." ^ rn) (pick (fun (_, p, _) -> p)) "s";
      put ("exhaustive.self_s." ^ rn) (pick (fun (_, _, s) -> s)) "s")
    [ Mono; Durable ];
  let digest_us = med probe.digests *. 1e6 in
  put "runtime.digest_us" digest_us "us";
  put "runtime.step_ns" (step_ns env) "ns";
  let mono_s = med (walls base Mono) in
  (match stats_of ph Mono with
  | st :: _ ->
    put "exhaustive.digest_share_est"
      (digest_us *. 1e-6 *. float_of_int st.Ex.nodes /. mono_s)
      "ratio"
  | [] -> ());
  put "ckpt.jobs" (float_of_int layer.ck_jobs) "count";
  put "ckpt.generations" (med layer.ck_generations) "count";
  put "ckpt.bytes_written" (med layer.ck_bytes) "bytes";
  put "ckpt.split_tax" (med (walls base Durable) /. mono_s) "ratio";
  put "ckpt.journal_s" (med layer.ck_journal) "s";
  put "ckpt.load_s" (med layer.ck_load) "s"

let fleet_layers () =
  put "dist.jobs" (med layer.d_jobs) "count";
  put "dist.redispatched" (med layer.d_redispatched) "count";
  put "dist.worker_busy_s" (med layer.d_busy) "s";
  put "dist.idle_share" (med layer.d_idle) "ratio";
  put "dist.overhead_s" (med layer.d_overhead) "s";
  put "dist.job_rtt_s" (med layer.d_rtts) "s";
  put "dist.wire_s" (mean layer.d_rtts -. mean layer.d_server_lat) "s"

(* Each distinct request of the traced phase once more, in-process through
   [Svc.Jobs.run] under its own deadline and checked like a served reply:
   spec index -> execution seconds. *)
let exec_in_process env replies =
  let exec = Hashtbl.create 64 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem exec r.spec) then begin
        let t0 = now () in
        let cancel =
          match env.specs.(r.spec).Spec.sp_deadline_ms with
          | None -> fun () -> false
          | Some ms -> fun () -> since t0 *. 1e3 > float_of_int ms
        in
        let res = Svc.Jobs.run ~cancel P.Scenario env.params.(r.spec) in
        Hashtbl.replace exec r.spec (since t0);
        let resp =
          Result.map_error (fun (code, msg) -> Client.Server (code, msg)) res
        in
        let good, what = reply_ok env r.spec resp in
        tally good ("in-process: " ^ what)
      end)
    replies;
  exec

(* The served layers: server-side figures from the [metrics] verb, the
   same requests run in-process, and the codec and spec-validation cost of
   the requests' own frames. *)
let served_layers env ~ph =
  let delta f =
    List.fold_left (fun acc (b, a) -> acc +. f a -. f b) 0. ph.server
  in
  let n = delta (fun m -> fst (latency m "scenario")) in
  let server_mean =
    if n > 0. then delta (fun m -> snd (latency m "scenario")) /. n else 0.
  in
  (* quantiles of the server's histogram, cumulative over the run *)
  let hist =
    match ph.server with
    | (_, last) :: _ -> latency_entry last "scenario"
    | [] -> None
  in
  Option.iter
    (fun e ->
      put "svc.server_latency_s.p50" (num e "p50") "s";
      put "svc.server_latency_s.tail"
        (num e (if num e "count" >= 1000. then "p99" else "p90"))
        "s")
    hist;
  let counted name = delta (fun m -> counter_sum m name) in
  put "svc.accepted" (counted "svc.requests.accepted") "count";
  put "svc.rejected" (counted "svc.requests.rejected") "count";
  put "svc.timeouts" (counted "svc.requests.timeout") "count";
  let exec = exec_in_process env ph.replies in
  let exec_of r = Hashtbl.find exec r.spec in
  let of_kind kind =
    List.filter (fun r -> Spec.verb env.specs.(r.spec) = kind) ph.replies
  in
  List.iter
    (fun kind ->
      put ("jobs.exec_s." ^ kind) (mean (List.map exec_of (of_kind kind))) "s")
    [ "solve"; "modelcheck"; "fuzz" ];
  put "svc.queue_wait_s"
    (server_mean -. mean (List.map exec_of ph.replies))
    "s";
  List.iteri
    (fun i codec ->
      let lats =
        List.filter_map
          (fun r -> if r.conn = i then Some r.lat else None)
          ph.replies
      in
      put ("svc.wire_s." ^ codec) (mean lats -. server_mean) "s")
    [ "json"; "binary" ];
  let ks = Hashtbl.fold (fun k _ acc -> k :: acc) exec [] in
  let requests =
    List.map (fun k -> P.request ~id:k ~params:env.params.(k) P.Scenario) ks
  in
  let responses =
    List.filter_map (fun r -> r.frame) ph.replies
    |> List.filteri (fun i _ -> i < 256)
  in
  List.iter
    (fun codec ->
      let cn = P.Codec.to_string codec in
      let enc_rq = per_call_us requests (P.Codec.encode_request codec) in
      let enc_rs = per_call_us responses (P.Codec.encode_response codec) in
      let rq_frames = List.map (P.Codec.encode_request codec) requests in
      let rs_frames = List.map (P.Codec.encode_response codec) responses in
      let dec_rq = per_call_us rq_frames P.Codec.decode_request in
      let dec_rs = per_call_us rs_frames P.Codec.decode_response in
      put ("protocol.encode_us." ^ cn) ((enc_rq +. enc_rs) /. 2.) "us";
      put ("protocol.decode_us." ^ cn) ((dec_rq +. dec_rs) /. 2.) "us")
    [ P.Codec.Json; P.Codec.Binary ];
  put "scenario.validate_us"
    (per_call_us (List.map (fun k -> env.params.(k)) ks) (fun j ->
         Spec.of_json j))
    "us";
  let solves = of_kind "solve" and fuzzes = of_kind "fuzz" in
  let work f rs = List.filter_map (fun r -> Option.map float_of_int (f r)) rs in
  let steps = work (fun r -> r.steps) solves in
  let trials = work (fun r -> r.trials) fuzzes in
  let rate w rs = if rs = [] then 0. else sum w /. sum (List.map exec_of rs) in
  put "efd.steps_per_solve" (mean steps) "count";
  put "efd.steps_per_s" (rate steps solves) "1/s";
  put "adversary.trials_per_s" (rate trials fuzzes) "1/s"

(* Tracing's own cost (traced minus untraced median, over untraced) and
   the share of each rung's op time that no child span covers. *)
let trace_layers ~base ~ph =
  List.iter
    (fun r ->
      let rn = rung_name r in
      let times p =
        match r with
        | Served -> List.map (fun x -> x.lat) p.replies
        | _ -> walls p r
      in
      let u = med (times base) and t = med (times ph) in
      put ("trace.overhead_share." ^ rn) ((t -. u) /. u) "ratio";
      put ("trace.uncovered_share." ^ rn) (Spans.uncovered_share ("op." ^ rn))
        "ratio")
    [ Mono; Durable; Fleet; Served ];
  put "trace.spans" (float_of_int (Spans.count ())) "count"

(* ----------------------------------------------------------------- main *)

let expected_schedules (sp : Spec.t) =
  match (sp.sp_work, sp.sp_expect) with
  | Spec.Modelcheck m, Spec.Safe -> (
    match Sc.find m.mc_scenario ~n_s:m.mc_n_s with
    | Ok s ->
      Some (expected_count ~pids:(List.length s.Sc.sc_pids) ~depth:m.mc_depth)
    | Error _ -> None)
  | _ -> None

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let run () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let wl =
    match List.find_opt (fun w -> w.name = !opt_workload) workloads with
    | Some w -> w
    | None -> failwith (Printf.sprintf "unknown workload %S" !opt_workload)
  in
  if !opt_seed < 0 then failwith "--seed N (N >= 0) is required";
  if !opt_seconds < 1 then failwith "--seconds must be >= 1";
  if !opt_trace <> 0 && !opt_trace <> 1 then failwith "--trace must be 0 or 1";
  if not (Sys.file_exists !opt_wfa) then failwith ("no wfa at " ^ !opt_wfa);
  let out =
    Printf.sprintf "%s-s%d-t%d" wl.name !opt_seed !opt_trace
    |> Filename.concat ".perfbench_out"
  in
  rm_rf out;
  mkdir_p out;
  let specs =
    if wl.mix then
      match
        Result.bind
          (Scenario.Campaign.load "perfbench/mix.json")
          Scenario.Campaign.expand
      with
      | Ok l -> Array.of_list l
      | Error e -> failwith e
    else
      [| modelcheck_spec ~name:("anchor/" ^ wl.name) ~depth:wl.depth
           ~reduce:wl.reduce |]
  in
  let sc = Sc.safe_agreement ~n_s:3 in
  if !opt_control = "tamper-reply" then Atomic.set tamper_pending true;
  Printf.printf
    "perfbench: workload %s seed %d seconds %d trace %d control %s\n" wl.name
    !opt_seed !opt_seconds !opt_trace !opt_control;
  Printf.printf "host: nproc %d ocaml %s commit %s\n%!" ncores
    Sys.ocaml_version !opt_commit;
  (* set up seven times, keep the last *)
  let setups = ref [] and fx = ref None in
  for _ = 1 to 7 do
    Option.iter teardown !fx;
    let t0 = now () in
    fx := Some (setup ~wfa:!opt_wfa ~out ~sc ~reduce:wl.reduce);
    setups := since t0 :: !setups
  done;
  let fx = Option.get !fx in
  let env =
    {
      wl;
      sc;
      red = Sc.reduction sc ~reduce:wl.reduce;
      expected =
        expected_count ~pids:(List.length sc.Sc.sc_pids) ~depth:wl.depth;
      out;
      fx;
      specs;
      params = Array.map Spec.to_json specs;
      counts = Array.map expected_schedules specs;
      decks = Array.init 2 (fun _ -> Array.init (Array.length specs) Fun.id);
      next_card = Array.make 2 0;
      rngs = Array.init 2 (fun i -> Random.State.make [| !opt_seed; i |]);
      reference = None;
      store_seq = 0;
    }
  in
  let rungs = List.filter (fun (r, _) -> ncores >= cores_needed r) wl.shares in
  let seconds = float_of_int !opt_seconds in
  if !opt_trace = 0 then begin
    let ph = measure env ~rungs ~seconds ~traced:false in
    let pids = 0 :: List.map (fun p -> p.Procs.pid) (fx.server :: fx.workers) in
    end_to_end ph ~setups:!setups
      ~rss:(sum (List.filter_map Procs.peak_rss_mb pids))
  end
  else begin
    let half = seconds /. 2. in
    let base = measure env ~rungs ~seconds:half ~traced:false in
    Spans.enable true;
    let ph = measure env ~rungs ~seconds:half ~traced:true in
    Spans.enable false;
    engine_layers env ~base ~ph;
    if List.mem_assoc Fleet rungs then fleet_layers ();
    if List.mem_assoc Served rungs then
      served_layers env ~ph;
    trace_layers ~base ~ph;
    write_file (Filename.concat out "trace.json")
      (J.to_string (Spans.to_json ()))
  end;
  teardown fx;
  let n_attempted = Atomic.get attempted and n_failed = Atomic.get failed in
  List.iter (Printf.printf "FAILED %s\n") (List.rev !fail_log);
  Printf.printf "fail_frac %d/%d\n" n_failed n_attempted;
  let ms = List.rev !metrics in
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "  %-36s %s %s\n" name (json_number v) unit)
    ms;
  let correct = n_failed = 0 && n_attempted > 0 in
  let metric_json (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  let line =
    Printf.sprintf
      "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      correct n_attempted n_failed
      (String.concat ", " (List.map metric_json ms))
  in
  let record =
    J.Obj
      [
        ("workload", J.Str wl.name);
        ("seed", J.Int !opt_seed);
        ("seconds", J.Int !opt_seconds);
        ("trace", J.Int !opt_trace);
        ("control", J.Str !opt_control);
        ("nproc", J.Int ncores);
        ("ocaml", J.Str Sys.ocaml_version);
        ("commit", J.Str !opt_commit);
        ("samples", J.Obj (List.rev !notes));
        ("failures", J.List (List.rev_map (fun s -> J.Str s) !fail_log));
        ("result", Result.get_ok (J.of_string line));
      ]
  in
  write_file (Filename.concat out "result.json") (J.to_string_pretty record);
  print_endline line;
  if correct then 0 else 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let code =
    try run ()
    with e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      2
  in
  Procs.stop_all ();
  exit code
