(** Exhaustive schedule enumeration — model checking in miniature.

    For small systems and short horizons the sampled adversaries of
    {!Schedule} can be replaced by full enumeration: every schedule over the
    given processes up to a depth is executed (runs are deterministic, so the
    enumeration is exact) and a property is checked at every prefix or at
    full depth. A returned counterexample is a concrete schedule, directly
    replayable with {!replay_ok}.

    The engine is {e incremental}: one live runtime is kept per DFS path, so
    descending costs one step per node; the runtime is rebuilt and the prefix
    replayed only when the search moves to a sibling branch (effect
    continuations cannot be cloned). A state-fingerprint memo
    ({!Runtime.digest}) prunes converging interleavings while keeping the
    reported schedule count exact. {!stats} makes the saved work observable.

    One DFS serves every entry point. It starts at a seeded node (the root,
    or a frontier job's prefix and reduction context) and can cut at a
    frontier depth, emitting jobs there instead of recursing: {!run} is the
    DFS from the root, {!split} the DFS with the cut, {!run_subtrees} the
    DFS from each of a list of jobs. Parallelism lives above the engine —
    run {!split}'s jobs anywhere and fold their results with
    {!merge_frontier}.

    Cost before pruning is |pids|^depth schedules: keep |pids| ≤ 4 and
    depth ≤ 12 or so. Every entry point raises [Invalid_argument] before
    exploring when |pids|^depth exceeds [max_int], so no count wraps. Used
    to verify the agreement primitives (safe agreement, commit–adopt,
    adoption set-agreement) against {e all} interleavings rather than
    sampled ones.

    Soundness requirements on the inputs (all hold for the usual
    fresh-memory/fresh-algorithm builders):
    - [build] must be deterministic and return independent runtimes;
    - with the memo enabled (unreduced runs only), [prop] must be a
      function of the reached state as captured by {!Runtime.digest}
      (memory, statuses, decisions, per process observations) — not of
      absolute event times or the trace. *)

type verdict =
  | Ok of int  (** number of complete schedules accounted for *)
  | Counterexample of Pid.t list

type mode =
  | Every  (** the property must hold after every step of every schedule *)
  | Final  (** the property is only required at full depth *)

type stats = {
  nodes : int;  (** DFS nodes visited (memo-skipped subtrees excluded) *)
  steps_executed : int;  (** total {!Runtime.step} calls, replays included *)
  replays : int;  (** rebuild-and-replay events (backtracks / baseline runs) *)
  runtimes_built : int;  (** calls to [build] *)
  memo_hits : int;
      (** subtrees skipped via the state-fingerprint memo; [0] under
          [~reduce], which keeps no memo *)
  sleep_pruned : int;
      (** subtrees skipped (and credited) by sleep-set partial-order
          reduction; [0] unless {!run} is given [~reduce] *)
  orbits_collapsed : int;
      (** children skipped as non-canonical renamings of an explored class
          member; [0] unless [~reduce] declares symmetry classes *)
  wall_s : float;  (** elapsed seconds ({!Obs.Clock}, monotonic) for the check *)
}

val pp_stats : Format.formatter -> stats -> unit

val stats_json : stats -> Obs.Json.t
(** The record as a JSON object, field names as above. *)

val stats_of_json : Obs.Json.t -> (stats, string) result
(** Inverse of {!stats_json} — how a coordinator reads a remote worker's
    stats back off the wire. *)

val zero_stats : stats
(** All-zero counters, [0.] wall time: the identity of {!merge_stats}. *)

val merge_stats : stats -> stats -> stats
(** Fieldwise sum ([wall_s] included — merged wall time is total CPU-side
    work, not elapsed time). Associative and commutative with identity
    {!zero_stats} (integer fields exactly; [wall_s] up to float
    associativity), so partial results from subtree workers can be folded
    in any order. *)

val merge_verdicts : pids:Pid.t list -> verdict -> verdict -> verdict
(** The verdict monoid for partitioned runs: [Ok m] + [Ok n] = [Ok (m + n)]
    (credited counts are exact, so they add); any counterexample beats [Ok];
    of two counterexamples the lexicographically least survives (schedule
    order = position order in [pids]; a strict prefix orders first).
    Associative and commutative, and — because {!split} emits jobs in DFS
    (= lex) order and each job reports its own lex-least violation — folding
    over any permutation of a frontier's results reproduces {!run}'s
    counterexample. *)

val record_stats : ?labels:(string * string) list -> Obs.Metrics.registry -> stats -> unit
(** Export into a metric registry: counters [exhaustive.nodes],
    [exhaustive.steps_executed], [exhaustive.replays],
    [exhaustive.runtimes_built], [exhaustive.memo_hits] (incremented, so
    repeated checks accumulate) and gauge [exhaustive.wall_s], all under
    [?labels]. *)

(** {1 Sound state-space reduction}

    Optional pruning layers of the one DFS, so they apply alike to {!run},
    {!split} and {!run_subtrees}. Any [~reduce] turns on sleep-set
    partial-order reduction over the step-footprint independence relation
    ({!Runtime.footprint}): of two adjacent independent steps, orders that
    differ only by commuting them are explored once. Its [symmetry] classes
    add orbit collapsing on top ([[]] for none). Both are {e credited}: a
    pruned subtree's complete schedules are added to the count, so verdicts
    — exact counts and the identity of the first counterexample (DFS order
    is lexicographic, and the lex-least violating schedule is never pruned)
    — match an unreduced run. A reduced search keeps no memo: sleep sets
    already prune most of what it would catch. An unreduced run goes
    through the same DFS but never peeks or computes footprints, so its
    digests and {!stats} are independent of this layer. *)

type reduction = {
  symmetry : Pid.t list list;
      (** disjoint classes of interchangeable pids: same code, same input,
          and crash/FD behaviour invariant under renaming within the class
          (e.g. idle S-processes under a symmetric failure pattern and
          {!History.trivial}). One schedule per renaming orbit is explored
          and credited with the orbit size. [prop] must be invariant under
          renaming within each class. *)
}

exception Cancelled
(** Raised by {!run} and {!run_subtrees} when the [?cancel] hook fired: the
    search was abandoned mid-enumeration, so {e no} verdict — not even a
    partial count — is reported (by {!run_subtrees}: for the job it was
    in and the jobs after it). Re-running the same configuration without
    [?cancel] reproduces the full deterministic verdict. *)

val run :
  ?memo:bool ->
  ?mode:mode ->
  ?reduce:reduction ->
  ?cancel:(unit -> bool) ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  unit ->
  verdict * stats
(** The DFS from the root, to [depth]; a counterexample is the lex-least
    violating schedule. [?cancel] (default never) is a cooperative cancellation
    hook polled once per DFS child: the moment it returns [true] the run raises
    {!Cancelled} instead of returning — the hook the service layer uses for
    per-request deadlines. [?memo] (default [true]) enables the
    state-fingerprint memo; it has no effect under [?reduce]. [?reduce]
    (default off) enables the reduction layers above; reduction forces every
    process to its first suspension point eagerly ({!Runtime.peek}), so
    [prop] must additionally not distinguish a [Fresh] process from a peeked
    one (true of properties over memory, decisions and participation).
    Verdicts (including exact schedule counts) are identical to
    {!run_replay} under the soundness requirements above. Raises
    [Invalid_argument] before exploring when [|pids|^depth > max_int] or the
    symmetry classes are not disjoint subsets of [pids]. *)

(** {1 Frontier splitting — distributing the search}

    {!split} is the DFS cut at a shallow [split_depth], with the memo off:
    it emits every frontier node as a self-contained {!subtree} job
    carrying the schedule prefix plus the exact reduction context (sleep
    mask, orbit-multiplier product, per-class used counts) the whole-tree
    DFS holds when it enters that node. {!run_subtrees} — in process over
    every job, or on another process one job at a time via the [subtree]
    service verb — runs the same DFS seeded with that context. Folding
    {!merge_verdicts} and {!merge_stats} over the job results (in any order)
    plus the splitter's own [fr_pruned] credit reproduces {!run}'s verdict
    and exact credited schedule count. A memo table lives for one
    {!run_subtrees} call, so only [memo_hits]/[nodes]-style effort counters
    depend on how the jobs were grouped into calls. *)

type subtree = {
  sj_id : int;
      (** frontier position in DFS (= lex) order — the dedup key for
          first-result-wins re-dispatch *)
  sj_prefix : Pid.t list;  (** the schedule prefix, length [split_depth] *)
  sj_sleep : Pid.t list;
      (** pids asleep at the frontier node ([[]] unless reduced) *)
  sj_factor : int;  (** orbit-multiplier product along the prefix *)
  sj_used : int list;
      (** per-symmetry-class used-member counts at the frontier node, in
          class declaration order ([[]] when no classes) *)
}

type split_result = {
  fr_jobs : subtree list;  (** in DFS order; [sj_id] = position *)
  fr_cex : Pid.t list option;
      (** [Every]-mode violation at depth <= [split_depth]: the split stopped
          there, and only already-emitted (lex-smaller) jobs can beat it *)
  fr_pruned : int;
      (** complete schedules credited above the frontier (sleep-pruned
          subtrees that never became jobs) — the merge fold's start count *)
  fr_stats : stats;
}

val split :
  ?mode:mode ->
  ?reduce:reduction ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  split_depth:int ->
  prop:(Runtime.t -> bool) ->
  unit ->
  split_result
(** Explore to [split_depth] (raises [Invalid_argument] unless
    [1 <= split_depth < depth], and as {!run} does) and emit the frontier.
    In [Every] mode the property is checked on every prefix up to the
    frontier — {!run_subtrees} accordingly replays a job's prefix without
    re-checking it. [~mode], [~reduce] and the scenario must match between
    [split] and the [run_subtrees] calls that consume its jobs. *)

val merge_frontier :
  pids:Pid.t list -> split_result -> (verdict * stats) list -> verdict * stats
(** The fold every executor of {!split}'s jobs ends with: the splitter's
    [fr_pruned] credit and [fr_stats], then one {!run_subtrees} result per
    job in [sj_id] order, then the splitter's own [fr_cex]. Equals {!run}'s
    verdict and credited count for the same configuration. *)

val run_subtrees :
  ?memo:bool ->
  ?mode:mode ->
  ?reduce:reduction ->
  ?cancel:(unit -> bool) ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  subtree list ->
  (subtree -> verdict * stats -> unit) ->
  unit
(** Run frontier jobs of one {!split}, in the given order, each to the full
    [depth] (the same [depth] given to {!split}), and pass each job's
    result to the callback as soon as that job ends. A job's prefix is
    replayed check-free, then the DFS expands the subtree from the job's
    seeded context. [Ok n] is the subtree's exact credited schedule count;
    a counterexample is the full schedule (prefix included) and is the
    lex-least within the subtree.

    One memo table ([?memo], default [true]; none under [?reduce]) is
    created when the call starts and serves every job of it, then is
    dropped: a job's subtree
    skips the states earlier jobs verified, as a branch of {!run} skips
    those of earlier branches, so running all of a split's jobs in one
    call explores about as many nodes as {!run}. Verdicts and counts do
    not depend on the grouping; only effort counters do.

    [?cancel] as in {!run}: the jobs reported before it fired stand.
    Raises [Invalid_argument] before exploring as {!run} does, and when a
    job is inconsistent with [~pids]/[~depth]/[~reduce]. *)

val schedule_json : Pid.t list -> Obs.Json.t
val schedule_of_json : Obs.Json.t -> (Pid.t list, string) result
(** A schedule (or counterexample) on the wire: a list of
    {!Pid.to_string} names ([p1], [q2], ...). *)

val verdict_fields : verdict -> (string * Obs.Json.t) list
(** [verdict] (["ok"] or ["counterexample"]) and [schedules] (the count, or
    [null]): how every JSON object that carries a verdict spells it. *)

val subtree_json : subtree -> Obs.Json.t
val subtree_of_json : Obs.Json.t -> (subtree, string) result
(** Wire format for the [subtree] service verb: pids as {!Pid.to_string}
    names ([p1], [q2], ...). [subtree_of_json] validates shape only; full
    consistency against the scenario is checked by {!run_subtrees}. *)

val run_replay :
  ?mode:mode ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  unit ->
  verdict * stats
(** The replay-from-scratch baseline (the pre-incremental engine): every
    visited prefix is rebuilt via [build] and re-executed in full. Kept as a
    differential-testing oracle and benchmark yardstick. *)

val replay_ok :
  ?mode:mode ->
  build:(unit -> Runtime.t) ->
  prop:(Runtime.t -> bool) ->
  Pid.t list ->
  bool
(** Replay one concrete schedule on a fresh runtime and report whether the
    property survives it ([Every]: checked after each step; [Final]: checked
    after the last). [false] for a schedule returned as [Counterexample]. *)

val check :
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  verdict
(** [run] with defaults, [Every] mode, verdict only. *)

val check_final :
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  verdict
(** [run] with defaults, [Final] mode, verdict only. *)
