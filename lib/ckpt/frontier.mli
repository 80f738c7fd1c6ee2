(** The frontier driver: the one path of every partitioned exhaustive
    search (DESIGN.md §8). It validates the configuration, calls
    {!Simkit.Exhaustive.split} once, checks a resume record against the
    frontier, skips the jobs the record answers, journals {!Record}
    generations and folds the results with
    {!Simkit.Exhaustive.merge_frontier}. An {!executor} runs the rest of
    the jobs: {!Local.executor} in process, [Dist.Coordinator.executor] on
    a TCP fleet. Either way the verdict, credited count and lex-least
    counterexample are those of {!Simkit.Exhaustive.run}.

    Journal rule: a generation is written before any job runs, after a
    reported batch once [interval_s] seconds (no floor) have passed since
    the last one, and when the executor returns or raises. A first
    generation that cannot be written makes the run [Error]; a later failed
    save is only the store's [ckpt.save.error] event. *)

type 'a outcome = {
  verdict : Simkit.Exhaustive.verdict;
  stats : Simkit.Exhaustive.stats;  (** splitter's plus every job's *)
  jobs : int;  (** subtree jobs the frontier split into *)
  pruned : int;  (** schedules credited above the frontier by the splitter *)
  executor : 'a;  (** what the executor reports about its own run *)
}

type 'a executor =
  Mcheck.Scenario.t ->
  Record.config ->
  Simkit.Exhaustive.split_result ->
  journaled:bool ->
  todo:Simkit.Exhaustive.subtree list ->
  report:((int * (Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats)) list ->
         unit) ->
  ('a, string) result
(** Run the [todo] jobs (unanswered, DFS order) and pass their results to
    [report] as [(job id, result)] batches, never concurrently; the driver
    keeps the first result per id and journals at most once per batch.
    [journaled] says whether the driver journals, so an executor can trade
    speed for what a kill loses. [Error] says why jobs remain
    unanswered. *)

val default_split_depth : depth:int -> int
(** [max 1 (min 3 (depth - 1))]: jobs enough for a small fleet and a
    fine-grained journal, a split that costs next to nothing. *)

val run :
  ?journal:Store.t * float ->
  ?resume:Record.t ->
  ?split_depth:int ->
  reduce:bool ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  'a executor ->
  ('a outcome, string) result
(** Check [scenario] to [depth] (>= 2) through the executor. [journal] is
    [(store, interval_s)]; [resume] is a record of answered jobs, [Error]
    unless its config and job total are this run's. Exceptions from the
    executor (such as {!Simkit.Exhaustive.Cancelled}) propagate once the
    answered jobs are journaled. *)

val resume :
  store:Store.t ->
  interval_s:float ->
  int * Record.t ->
  'a executor ->
  ('a outcome, string) result
(** {!run} for a [(generation, record)] loaded from [store], under the
    record's own config, journaling on into the same store. Emits
    [ckpt.resume]. *)
