type verdict = Ok of int | Counterexample of Pid.t list
type mode = Every | Final

type stats = {
  nodes : int;
  steps_executed : int;
  replays : int;
  runtimes_built : int;
  memo_hits : int;
  sleep_pruned : int;
  orbits_collapsed : int;
  wall_s : float;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "nodes %d, steps %d, replays %d, builds %d, memo-hits %d, sleep-pruned \
     %d, orbits-collapsed %d, %.3fs"
    s.nodes s.steps_executed s.replays s.runtimes_built s.memo_hits
    s.sleep_pruned s.orbits_collapsed s.wall_s

let stats_json s =
  Obs.Json.Obj
    [
      ("nodes", Obs.Json.Int s.nodes);
      ("steps_executed", Obs.Json.Int s.steps_executed);
      ("replays", Obs.Json.Int s.replays);
      ("runtimes_built", Obs.Json.Int s.runtimes_built);
      ("memo_hits", Obs.Json.Int s.memo_hits);
      ("sleep_pruned", Obs.Json.Int s.sleep_pruned);
      ("orbits_collapsed", Obs.Json.Int s.orbits_collapsed);
      ("wall_s", Obs.Json.Float s.wall_s);
    ]

let zero_stats =
  { nodes = 0; steps_executed = 0; replays = 0; runtimes_built = 0;
    memo_hits = 0; sleep_pruned = 0; orbits_collapsed = 0; wall_s = 0. }

let merge_stats a b =
  {
    nodes = a.nodes + b.nodes;
    steps_executed = a.steps_executed + b.steps_executed;
    replays = a.replays + b.replays;
    runtimes_built = a.runtimes_built + b.runtimes_built;
    memo_hits = a.memo_hits + b.memo_hits;
    sleep_pruned = a.sleep_pruned + b.sleep_pruned;
    orbits_collapsed = a.orbits_collapsed + b.orbits_collapsed;
    wall_s = a.wall_s +. b.wall_s;
  }

let stats_of_json j =
  let ( let* ) = Stdlib.Result.bind in
  let int_field name = Obs.Json.int_field name j in
  let* nodes = int_field "nodes" in
  let* steps_executed = int_field "steps_executed" in
  let* replays = int_field "replays" in
  let* runtimes_built = int_field "runtimes_built" in
  let* memo_hits = int_field "memo_hits" in
  let* sleep_pruned = int_field "sleep_pruned" in
  let* orbits_collapsed = int_field "orbits_collapsed" in
  let* wall_s =
    Stdlib.Result.bind (Obs.Json.field "wall_s" j) (fun v ->
        Option.to_result (Obs.Json.to_float_opt v)
          ~none:"field \"wall_s\" is not a number")
  in
  Stdlib.Ok
    { nodes; steps_executed; replays; runtimes_built; memo_hits; sleep_pruned;
      orbits_collapsed; wall_s }

let record_stats ?(labels = []) reg s =
  let c name v = Obs.Metrics.incr ~by:v (Obs.Metrics.counter reg ~labels name) in
  c "exhaustive.nodes" s.nodes;
  c "exhaustive.steps_executed" s.steps_executed;
  c "exhaustive.replays" s.replays;
  c "exhaustive.runtimes_built" s.runtimes_built;
  c "exhaustive.memo_hits" s.memo_hits;
  c "exhaustive.sleep_pruned" s.sleep_pruned;
  c "exhaustive.orbits_collapsed" s.orbits_collapsed;
  Obs.Metrics.set (Obs.Metrics.gauge reg ~labels "exhaustive.wall_s") s.wall_s

(* Mutable counters of one search; turned into a [stats] when it ends. *)
type acc = {
  mutable a_nodes : int;
  mutable a_steps : int;
  mutable a_replays : int;
  mutable a_built : int;
  mutable a_memo : int;
  mutable a_sleep : int;
  mutable a_orbits : int;
  mutable a_count : int;  (* complete schedules accounted for *)
}

let fresh_acc () =
  { a_nodes = 0; a_steps = 0; a_replays = 0; a_built = 0; a_memo = 0;
    a_sleep = 0; a_orbits = 0; a_count = 0 }

let stats_of ~wall_s a =
  { nodes = a.a_nodes; steps_executed = a.a_steps; replays = a.a_replays;
    runtimes_built = a.a_built; memo_hits = a.a_memo; sleep_pruned = a.a_sleep;
    orbits_collapsed = a.a_orbits; wall_s }

(* Lexicographic order on schedules, by position in [pids]; a schedule that
   is a strict prefix of another orders first (its violation is met earlier
   in DFS order, which visits the shallower node before any extension). *)
let sched_le ~pids a b =
  let pos p =
    let rec go i = function
      | [] -> max_int
      | q :: qs -> if Pid.equal p q then i else go (i + 1) qs
    in
    go 0 pids
  in
  let rec le xs ys =
    match (xs, ys) with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' ->
      let cx = pos x and cy = pos y in
      if cx < cy then true else if cx > cy then false else le xs' ys'
  in
  le a b

let merge_verdicts ~pids a b =
  match (a, b) with
  | Ok m, Ok n -> Ok (m + n)
  | (Counterexample _ as c), Ok _ | Ok _, (Counterexample _ as c) -> c
  | Counterexample x, Counterexample y ->
    Counterexample (if sched_le ~pids x y then x else y)

exception Cancelled

(* ------------------------------------------------------------------ *)
(* The engine: one DFS, shared by {!run}, {!split} and {!run_subtree}.

   Incremental: one live runtime is kept per DFS path, so descending into
   the first child of a node is a single [Runtime.step]; only when the DFS
   moves to a sibling is the runtime rebuilt and the prefix replayed
   (runtimes hold effect continuations, so they cannot be cloned).

   Memo: a state fingerprint ({!Runtime.digest}) collapses converging
   interleavings. When a node's state has been seen before at the same
   clock, its subtree is skipped and the recorded number of complete
   schedules below it is credited, so counts stay exact. Only fully
   verified (counterexample-free) subtrees are memoized.

   Reduction (optional): sleep-set partial-order reduction over the
   step-footprint independence relation ({!Runtime.footprint}), and
   symmetry reduction over caller-declared classes of interchangeable pids.
   Both prune whole subtrees while crediting exactly the complete schedules
   they hold, so counts stay |pids|^depth. The load-bearing arguments:

   - Footprint stability: a parked operation names its registers up front
     and cannot be changed by other processes' steps, so the independence of
     two processes' next steps, evaluated at a node, holds across any
     interleaving of other processes below it. Time-sensitive steps (FD
     queries; any step of a live S-process that crashes inside the pattern)
     are [F_timedep] and never commute, because every step advances the
     clock.

   - Sleep sets prune transitions, not states: every state reachable in the
     full tree at a given clock is still visited (classical result for
     acyclic spaces), so [Every]-mode per-prefix checking is preserved. The
     lexicographically least violating schedule is never pruned — a pruned
     child is trace-equivalent to a lex-smaller schedule, so the first
     counterexample found equals the unreduced search's (DFS order is lex
     order).

   - Sleep × memo: a memoized subtree was verified minus what its sleep set
     pruned, so an entry records the sleep mask it was explored under and a
     hit is taken only when stored ⊆ current. Otherwise the subtree is
     re-explored under the intersection and the entry tightened — monotone,
     so this converges.

   - Symmetry: at any state, the not-yet-scheduled members of a class are in
     identical (peeked) local states, so continuations that differ only by
     renaming them are prop-equivalent; exploring the first unused member
     with multiplier (m - u) covers all m - u renamings. Per class the
     explored children's multipliers sum to the class size, keeping counts
     exact. Which members a prefix has used is digest-determined (scheds
     counters), so memoized counts transfer between digest-equal nodes.

   - Peeking: footprints force Fresh processes to their first suspension
     point. That is behaviour-neutral but digest-visible, so a reduced
     search peeks every pid after every step and replay, and digests are
     compared at uniform peek points. An unreduced search never peeks nor
     computes footprints, so its digests and counters do not depend on the
     reduction code.

   Seed and cut: the DFS starts at a seeded node — a schedule prefix
   (replayed without property checks), sleep mask, orbit-multiplier product
   and per-class used counts — which is exactly the state the search holds
   when it enters that node. The root is the empty seed. With a cut, a
   child whose remaining depth reaches the cut is handed to [emit] as a
   frontier job instead of being expanded. So

     split + run_subtree over every job + merge  =  run

   for verdicts and credited counts by construction: prunes above the
   frontier are credited by the splitting search itself, prunes below it by
   the same code seeded with the frontier context, and jobs are emitted in
   DFS (= lex) order, so every counterexample inside job i lex-precedes
   every one inside job j > i. *)

type reduction = { sleep : bool; symmetry : Pid.t list list }

let no_reduction = { sleep = false; symmetry = [] }

(* Compiled, read-only search context. *)
type ctx = {
  c_peek : bool;  (* any reduction layer on: peek every pid after each step *)
  c_sleep : bool;
  c_pids : Pid.t array;
  c_cls : int array;  (* pid index -> class id, -1 if in no class *)
  c_pos : int array;  (* pid index -> canonical position within its class *)
  c_size : int array;  (* class id -> member count *)
  c_pow : int array;  (* c_pow.(d) = |pids|^d *)
}

(* |pids|^d for d = 0..depth, refusing any count that would wrap: every
   credited count is at most |pids|^depth, so checking it once up front
   keeps every verdict's count exact. *)
let schedule_counts ~who ~pids ~depth =
  if depth < 0 then invalid_arg ("Exhaustive." ^ who ^ ": negative depth");
  let n = List.length pids in
  let pow = Array.make (depth + 1) 1 in
  for d = 1 to depth do
    if n > 1 && pow.(d - 1) > max_int / n then
      invalid_arg
        (Printf.sprintf "Exhaustive.%s: %d^%d schedules exceed max_int" who
           n depth);
    pow.(d) <- pow.(d - 1) * n
  done;
  pow

let compile ~who ~pids ~depth reduce =
  let r = Option.value reduce ~default:no_reduction in
  let pow = schedule_counts ~who ~pids ~depth in
  let arr = Array.of_list pids in
  let n = Array.length arr in
  let fail msg = invalid_arg ("Exhaustive." ^ who ^ ": " ^ msg) in
  if r.sleep && n >= Sys.int_size then fail "too many pids for sleep masks";
  let idx p =
    match Array.find_index (Pid.equal p) arr with
    | Some i -> i
    | None -> fail "symmetry class member not in pids"
  in
  let cls = Array.make n (-1) and pos = Array.make n (-1) in
  let size =
    List.mapi
      (fun c members ->
        let is = List.sort compare (List.map idx members) in
        (* Canonical order within a class is pids order, so the canonical
           representative of an orbit is also its lex-least schedule. *)
        List.iteri
          (fun j i ->
            if cls.(i) <> -1 then fail "symmetry classes overlap";
            cls.(i) <- c;
            pos.(i) <- j)
          is;
        List.length is)
      r.symmetry
  in
  { c_peek = r.sleep || r.symmetry <> []; c_sleep = r.sleep; c_pids = arr;
    c_cls = cls; c_pos = pos; c_size = Array.of_list size; c_pow = pow }

(* Where a search starts: pid indices of the prefix in schedule order, the
   sleep mask, orbit-multiplier product and per-class used-member counts in
   force at that node. *)
type seed = {
  s_prefix : int list;
  s_z : int;
  s_factor : int;
  s_used : int array;
}

let root ctx =
  { s_prefix = []; s_z = 0; s_factor = 1;
    s_used = Array.make (Array.length ctx.c_size) 0 }

(* A memo entry: the complete schedules below a verified node, divided by
   the orbit factor in force when it was entered, plus the sleep mask it was
   explored under. Without sleep sets every mask is 0, so the entry is the
   bare count, an immediate int. *)
type 'e entry = { mk : int -> int -> 'e; count : 'e -> int; mask : 'e -> int }

let bare = { mk = (fun c _ -> c); count = Fun.id; mask = (fun _ -> 0) }
let masked = { mk = (fun c z -> (c, z)); count = fst; mask = snd }

(* The DFS from [seed] to full [depth]: the lex-least violating schedule, or
   [None] with the credited count added to [acc]. Raises [Cancelled] when
   [cancel] fires. With [~cut], children [cut] steps short of [depth] are
   passed to [emit prefix_rev mask factor used] instead of expanded. *)
let dfs ~ctx ~build ~depth ~prop ~mode ~memo ~cancel ?(cut = -1)
    ?(emit = fun _ _ _ _ -> ()) seed acc =
  let search (type e) (entry : e entry) =
    let every = mode = Every in
    let pids = ctx.c_pids in
    let n = Array.length pids in
    let all = List.init n Fun.id in
    let tbl : (string, e) Hashtbl.t option =
      if memo then Some (Hashtbl.create 4096) else None
    in
    let used = Array.copy seed.s_used in
    let cur = ref None in
    let destroy_cur () =
      Option.iter Runtime.destroy !cur;
      cur := None
    in
    let peek_all rt = if ctx.c_peek then Array.iter (Runtime.peek rt) pids in
    let build_fresh () =
      acc.a_built <- acc.a_built + 1;
      let rt = build () in
      cur := Some rt;
      rt
    in
    let step rt i =
      Runtime.step rt pids.(i);
      acc.a_steps <- acc.a_steps + 1;
      peek_all rt
    in
    let replay prefix_rev =
      destroy_cur ();
      acc.a_replays <- acc.a_replays + 1;
      let rt = build_fresh () in
      List.iter (step rt) (List.rev prefix_rev);
      peek_all rt;
      rt
    in
    let cex_of prefix_rev = List.rev_map (fun i -> pids.(i)) prefix_rev in
    let rec expand rt prefix_rev d ~z ~factor =
      if d = 0 then begin
        acc.a_count <- acc.a_count + factor;
        if (not every) && prefix_rev <> [] && not (prop rt) then
          Some (cex_of prefix_rev)
        else None
      end
      else begin
        (* Footprints of everyone's next step at this node: stable below it,
           valid after replays (which reconstruct this very state). *)
        let fp =
          if ctx.c_sleep then Array.map (Runtime.footprint rt) pids else [||]
        in
        let rec kids live before = function
          | [] -> None
          | i :: rest ->
            if cancel () then raise Cancelled;
            let c = ctx.c_cls.(i) in
            (* orbit multiplier; 0 for a non-canonical fresh class member *)
            let mult =
              if c < 0 then 1
              else
                let j = ctx.c_pos.(i) and u = used.(c) in
                if j < u then 1 else if j = u then ctx.c_size.(c) - u else 0
            in
            if mult = 0 then begin
              (* its subtree is a renaming of the canonical representative's,
                 already counted in that child's multiplier *)
              acc.a_orbits <- acc.a_orbits + 1;
              kids live before rest
            end
            else if ctx.c_sleep && z land (1 lsl i) <> 0 then begin
              (* every continuation is trace-equivalent to a lex-smaller
                 explored schedule: credit the whole subtree *)
              acc.a_sleep <- acc.a_sleep + 1;
              acc.a_count <- acc.a_count + (factor * mult * ctx.c_pow.(d - 1));
              kids live before rest
            end
            else begin
              let rt = if live then rt else replay prefix_rev in
              step rt i;
              acc.a_nodes <- acc.a_nodes + 1;
              let prefix_rev' = i :: prefix_rev in
              if every && not (prop rt) then Some (cex_of prefix_rev')
              else begin
                let z' =
                  if not ctx.c_sleep then 0
                  else begin
                    let zin = z lor before and m = ref 0 in
                    for q = 0 to n - 1 do
                      if
                        zin land (1 lsl q) <> 0
                        && Runtime.commute fp.(q) fp.(i)
                      then m := !m lor (1 lsl q)
                    done;
                    !m
                  end
                in
                let fm = factor * mult in
                let key =
                  match tbl with
                  | Some _ when d > 1 -> Some (Runtime.digest rt)
                  | _ -> None
                in
                let stored =
                  match (key, tbl) with
                  | Some k, Some table -> Hashtbl.find_opt table k
                  | _ -> None
                in
                match stored with
                | Some e when entry.mask e land lnot z' = 0 ->
                  acc.a_memo <- acc.a_memo + 1;
                  acc.a_count <- acc.a_count + (fm * entry.count e);
                  kids false (before lor (1 lsl i)) rest
                | _ -> (
                  (* Miss, or the stored exploration slept on steps this node
                     may not skip: (re-)explore under the intersection and
                     tighten the entry. *)
                  let z_explore =
                    match stored with
                    | Some e -> entry.mask e land z'
                    | None -> z'
                  in
                  let fresh_member = c >= 0 && ctx.c_pos.(i) = used.(c) in
                  if fresh_member then used.(c) <- used.(c) + 1;
                  let count0 = acc.a_count in
                  let sub =
                    if d - 1 = cut then begin
                      emit prefix_rev' z_explore fm used;
                      None
                    end
                    else expand rt prefix_rev' (d - 1) ~z:z_explore ~factor:fm
                  in
                  if fresh_member then used.(c) <- used.(c) - 1;
                  match sub with
                  | Some cex -> Some cex
                  | None ->
                    (match (key, tbl) with
                    | Some k, Some table ->
                      Hashtbl.replace table k
                        (entry.mk ((acc.a_count - count0) / fm) z_explore)
                    | _ -> ());
                    kids false (before lor (1 lsl i)) rest)
              end
            end
        in
        kids true 0 all
      end
    in
    Fun.protect ~finally:destroy_cur (fun () ->
        let rt = build_fresh () in
        peek_all rt;
        List.iter (step rt) seed.s_prefix;
        expand rt
          (List.rev seed.s_prefix)
          (depth - List.length seed.s_prefix)
          ~z:seed.s_z ~factor:seed.s_factor)
  in
  if ctx.c_sleep then search masked else search bare

let never_cancel () = false

let verdict_of acc = function
  | Some cex -> Counterexample cex
  | None -> Ok acc.a_count

let run ?(memo = true) ?(mode = Every) ?reduce ?(cancel = never_cancel) ~build
    ~pids ~depth ~prop () =
  let ctx = compile ~who:"run" ~pids ~depth reduce in
  let sp = Obs.Span.start ~name:"exhaustive.run" () in
  let acc = fresh_acc () in
  let r = dfs ~ctx ~build ~depth ~prop ~mode ~memo ~cancel (root ctx) acc in
  (verdict_of acc r, stats_of ~wall_s:(Obs.Span.elapsed_s sp) acc)

(* ------------------------------------------------------------------ *)
(* Frontier splitting: the DFS with a cut and no memo (skipping a
   digest-equal frontier node would need the remote job's count before it
   has run). In [Every] mode a prefix that violates the property stops the
   split — only the jobs already emitted (all lex-smaller) can hold an even
   smaller counterexample, so the coordinator still merges those. *)

type subtree = {
  sj_id : int;
  sj_prefix : Pid.t list;
  sj_sleep : Pid.t list;
  sj_factor : int;
  sj_used : int list;
}

type split_result = {
  fr_jobs : subtree list;
  fr_cex : Pid.t list option;
  fr_pruned : int;
  fr_stats : stats;
}

let split ?(mode = Every) ?reduce ~build ~pids ~depth ~split_depth ~prop () =
  if split_depth < 1 || split_depth >= depth then
    invalid_arg "Exhaustive.split: need 1 <= split_depth < depth";
  let ctx = compile ~who:"split" ~pids ~depth reduce in
  let sp = Obs.Span.start ~name:"exhaustive.split" () in
  let acc = fresh_acc () in
  let jobs = ref [] and next_id = ref 0 in
  let emit prefix_rev z factor used =
    jobs :=
      {
        sj_id = !next_id;
        sj_prefix = List.rev_map (fun i -> ctx.c_pids.(i)) prefix_rev;
        sj_sleep = List.filteri (fun i _ -> z land (1 lsl i) <> 0) pids;
        sj_factor = factor;
        sj_used = Array.to_list used;
      }
      :: !jobs;
    incr next_id
  in
  let cex =
    dfs ~ctx ~build ~depth ~prop ~mode ~memo:false ~cancel:never_cancel
      ~cut:(depth - split_depth) ~emit (root ctx) acc
  in
  {
    fr_jobs = List.rev !jobs;
    fr_cex = cex;
    fr_pruned = acc.a_count;
    fr_stats = stats_of ~wall_s:(Obs.Span.elapsed_s sp) acc;
  }

let merge_frontier ~pids fr results =
  let verdict, stats =
    List.fold_left
      (fun (v, st) (v', st') -> (merge_verdicts ~pids v v', merge_stats st st'))
      (Ok fr.fr_pruned, fr.fr_stats)
      results
  in
  match fr.fr_cex with
  | None -> (verdict, stats)
  | Some cex -> (merge_verdicts ~pids verdict (Counterexample cex), stats)

let run_subtree ?(memo = true) ?(mode = Every) ?reduce
    ?(cancel = never_cancel) ~build ~pids ~depth ~prop sj =
  let fail msg = invalid_arg ("Exhaustive.run_subtree: " ^ msg) in
  let k = List.length sj.sj_prefix in
  if k < 1 || k >= depth then fail "prefix length must be in [1, depth)";
  let ctx = compile ~who:"run_subtree" ~pids ~depth reduce in
  let idx p =
    match Array.find_index (Pid.equal p) ctx.c_pids with
    | Some i -> i
    | None -> fail "job pid not in pids"
  in
  let s_prefix = List.map idx sj.sj_prefix in
  let s_z = List.fold_left (fun z p -> z lor (1 lsl idx p)) 0 sj.sj_sleep in
  let s_used = Array.make (Array.length ctx.c_size) 0 in
  if not ctx.c_peek then begin
    if sj.sj_factor <> 1 || sj.sj_sleep <> [] || sj.sj_used <> [] then
      fail "job carries reduction context but no reduction is enabled"
  end
  else begin
    (match sj.sj_used with
    | [] -> ()
    | us ->
      if List.length us <> Array.length s_used then
        fail "used-count list does not match symmetry classes";
      List.iteri
        (fun c u ->
          if u < 0 || u > ctx.c_size.(c) then
            fail "used count exceeds class size";
          s_used.(c) <- u)
        us);
    if sj.sj_factor < 1 then fail "factor must be >= 1"
  end;
  let sp = Obs.Span.start ~name:"exhaustive.run_subtree" () in
  let acc = fresh_acc () in
  let seed = { s_prefix; s_z; s_factor = sj.sj_factor; s_used } in
  let r = dfs ~ctx ~build ~depth ~prop ~mode ~memo ~cancel seed acc in
  (verdict_of acc r, stats_of ~wall_s:(Obs.Span.elapsed_s sp) acc)

(* ------------------------------------------------ subtree wire format *)

let schedule_json ps =
  Obs.Json.List (List.map (fun p -> Obs.Json.Str (Pid.to_string p)) ps)

let verdict_fields = function
  | Ok n -> [ ("verdict", Obs.Json.Str "ok"); ("schedules", Obs.Json.Int n) ]
  | Counterexample _ ->
    [ ("verdict", Obs.Json.Str "counterexample"); ("schedules", Obs.Json.Null) ]

let schedule_of_json j =
  match j with
  | Obs.Json.List xs ->
    let rec go acc = function
      | [] -> Stdlib.Ok (List.rev acc)
      | Obs.Json.Str s :: rest -> (
        match Pid.of_string s with
        | Some p -> go (p :: acc) rest
        | None -> Stdlib.Error (Printf.sprintf "invalid pid %S in schedule" s))
      | _ -> Stdlib.Error "schedule holds a non-string pid"
    in
    go [] xs
  | _ -> Stdlib.Error "schedule is not a list"

let subtree_json sj =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int sj.sj_id);
      ("prefix", schedule_json sj.sj_prefix);
      ("sleep", schedule_json sj.sj_sleep);
      ("factor", Obs.Json.Int sj.sj_factor);
      ("used", Obs.Json.List (List.map (fun u -> Obs.Json.Int u) sj.sj_used));
    ]

let subtree_of_json j =
  let ( let* ) = Stdlib.Result.bind in
  let int_field name = Obs.Json.int_field name j in
  let pid_list_field name =
    Stdlib.Result.bind (Obs.Json.field name j) (fun v ->
        Stdlib.Result.map_error
          (Printf.sprintf "subtree field %S: %s" name)
          (schedule_of_json v))
  in
  let* sj_id = int_field "id" in
  let* sj_prefix = pid_list_field "prefix" in
  let* sj_sleep = pid_list_field "sleep" in
  let* sj_factor = int_field "factor" in
  let* sj_used =
    match Obs.Json.member "used" j with
    | Some (Obs.Json.List xs) ->
      let rec go acc = function
        | [] -> Stdlib.Ok (List.rev acc)
        | x :: rest -> (
          match Obs.Json.to_int_opt x with
          | Some u -> go (u :: acc) rest
          | None -> Stdlib.Error "field \"used\" holds a non-integer")
      in
      go [] xs
    | Some _ -> Stdlib.Error "subtree field \"used\" is not a list"
    | None -> Stdlib.Error "missing subtree field \"used\""
  in
  if sj_id < 0 then Stdlib.Error "subtree field \"id\" must be >= 0"
  else if sj_prefix = [] then Stdlib.Error "subtree prefix is empty"
  else Stdlib.Ok { sj_id; sj_prefix; sj_sleep; sj_factor; sj_used }

(* ------------------------------------------------------------------ *)
(* The replay-from-scratch baseline — the pre-incremental engine, kept (with
   the same instrumentation) as differential-testing oracle and benchmark
   yardstick. *)

let run_replay ?(mode = Every) ~build ~pids ~depth ~prop () =
  ignore (schedule_counts ~who:"run_replay" ~pids ~depth);
  let sp = Obs.Span.start ~name:"exhaustive.run_replay" () in
  let acc = fresh_acc () in
  let every = mode = Every in
  let replay sched =
    acc.a_replays <- acc.a_replays + 1;
    acc.a_built <- acc.a_built + 1;
    let rt = build () in
    let rec go = function
      | [] -> true
      | p :: rest ->
        Runtime.step rt p;
        acc.a_steps <- acc.a_steps + 1;
        if rest = [] && not (prop rt) then false else go rest
    in
    let ok = go sched in
    Runtime.destroy rt;
    ok
  in
  let rec go prefix d =
    if d = 0 then begin
      acc.a_count <- acc.a_count + 1;
      if every then None
      else
        let sched = List.rev prefix in
        if replay sched then None else Some sched
    end
    else
      let rec try_pids = function
        | [] -> None
        | p :: rest ->
          acc.a_nodes <- acc.a_nodes + 1;
          let sched = List.rev (p :: prefix) in
          if every && not (replay sched) then Some sched
          else begin
            match go (p :: prefix) (d - 1) with
            | Some cex -> Some cex
            | None -> try_pids rest
          end
      in
      try_pids pids
  in
  let verdict =
    match go [] depth with
    | Some cex -> Counterexample cex
    | None -> Ok acc.a_count
  in
  (verdict, stats_of ~wall_s:(Obs.Span.elapsed_s sp) acc)

(* ------------------------------------------------------------------ *)

let replay_ok ?(mode = Every) ~build ~prop sched =
  let every = mode = Every in
  let rt = build () in
  let rec go = function
    | [] -> true
    | p :: rest ->
      Runtime.step rt p;
      if (every || rest = []) && not (prop rt) then false else go rest
  in
  let ok = go sched in
  Runtime.destroy rt;
  ok

let check ~build ~pids ~depth ~prop =
  fst (run ~mode:Every ~build ~pids ~depth ~prop ())

let check_final ~build ~pids ~depth ~prop =
  fst (run ~mode:Final ~build ~pids ~depth ~prop ())
