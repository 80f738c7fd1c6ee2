open Simkit
module J = Obs.Json

type config = {
  cf_scenario : string;
  cf_n_s : int;
  cf_depth : int;
  cf_reduce : bool;
  cf_split_depth : int;
}

type done_job = {
  dj_id : int;
  dj_verdict : Exhaustive.verdict;
  dj_stats : Exhaustive.stats;
}

type t = { ck_config : config; ck_total : int; ck_done : done_job list }

let make ~config ~total ~done_ =
  List.iter
    (fun d ->
      if d.dj_id < 0 || d.dj_id >= total then
        invalid_arg
          (Printf.sprintf "Ckpt.Record.make: job id %d outside [0, %d)"
             d.dj_id total))
    done_;
  let sorted =
    List.stable_sort (fun a b -> compare a.dj_id b.dj_id) done_
  in
  let rec dedup = function
    | a :: (b :: _ as rest) when a.dj_id = b.dj_id ->
      a :: dedup (List.filter (fun d -> d.dj_id <> a.dj_id) rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  { ck_config = config; ck_total = total; ck_done = dedup sorted }

(* -- writing ---------------------------------------------------------------- *)

let config_json c =
  J.Obj
    [
      ("scenario", J.Str c.cf_scenario);
      ("n_s", J.Int c.cf_n_s);
      ("depth", J.Int c.cf_depth);
      ("reduce", J.Bool c.cf_reduce);
      ("split_depth", J.Int c.cf_split_depth);
    ]

let done_json d =
  J.Obj
    ((("id", J.Int d.dj_id) :: Exhaustive.verdict_fields d.dj_verdict)
    @ (match d.dj_verdict with
      | Exhaustive.Ok _ -> []
      | Exhaustive.Counterexample cex ->
        [ ("cex", Exhaustive.schedule_json cex) ])
    @ [ ("stats", Exhaustive.stats_json d.dj_stats) ])

let json r =
  J.Obj
    [
      ("v", J.Int 1);
      ("config", config_json r.ck_config);
      ("total", J.Int r.ck_total);
      ("done", J.List (List.map done_json r.ck_done));
    ]

(* -- reading ---------------------------------------------------------------- *)

let ( let* ) = Result.bind

let config_of_json j =
  let* cf_scenario = J.string_field "scenario" j in
  let* cf_n_s = J.int_field "n_s" j in
  let* cf_depth = J.int_field "depth" j in
  let* cf_reduce = J.bool_field "reduce" j in
  let* cf_split_depth = J.int_field "split_depth" j in
  Ok { cf_scenario; cf_n_s; cf_depth; cf_reduce; cf_split_depth }

let done_of_json j =
  let* id = J.int_field "id" j in
  let* verdict =
    match J.member "verdict" j with
    | Some (J.Str "ok") ->
      Result.map (fun n -> Exhaustive.Ok n) (J.int_field "schedules" j)
    | Some (J.Str "counterexample") ->
      Result.bind (J.field "cex" j) Exhaustive.schedule_of_json
      |> Result.map (fun cex -> Exhaustive.Counterexample cex)
    | _ -> Error "missing or unknown field \"verdict\""
  in
  let* stats = Result.bind (J.field "stats" j) Exhaustive.stats_of_json in
  Ok { dj_id = id; dj_verdict = verdict; dj_stats = stats }

let dones_of_json j =
  match J.member "done" j with
  | Some (J.List items) ->
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
        match done_of_json item with
        | Ok d -> go (i + 1) (d :: acc) rest
        | Error msg -> Error (Printf.sprintf "done[%d]: %s" i msg))
    in
    go 0 [] items
  | Some _ -> Error "field \"done\" is not a list"
  | None -> Error "missing field \"done\""

let of_json j =
  match j with
  | J.Obj _ -> (
    let* () =
      match J.member "v" j with
      | Some (J.Int 1) -> Ok ()
      | Some _ -> Error "unsupported checkpoint record version"
      | None -> Error "missing field \"v\""
    in
    let* config = Result.bind (J.field "config" j) config_of_json in
    let* total = J.int_field "total" j in
    let* done_ = dones_of_json j in
    if total < 0 then Error "field \"total\" must be >= 0"
    else
      match make ~config ~total ~done_ with
      | r -> Ok r
      | exception Invalid_argument msg -> Error msg)
  | _ -> Error "checkpoint record is not an object"

let equal a b = a = b
