(** The in-process executor of {!Frontier}, and the checkpointed engine
    built on it: {!run} and {!resume} journal into a {!Store}, so a run
    killed at any instant and resumed ends with the uninterrupted run's
    output. A deadline ({!Simkit.Exhaustive.Cancelled}) propagates after
    the answered jobs are saved, so a timed-out request leaves a store a
    later one can resume. *)

val default_interval_s : float
(** 30 seconds. *)

val executor : ?cancel:(unit -> bool) -> unit -> unit Frontier.executor
(** Runs the jobs in DFS order through one
    {!Simkit.Exhaustive.run_subtrees} call, so they share one memo table,
    polling [cancel]. *)

val run :
  ?interval_s:float ->
  ?reduce:bool ->
  ?cancel:(unit -> bool) ->
  store:Store.t ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  unit ->
  (Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats, string) result
(** Start a fresh checkpointed check ([depth] >= 2, split at
    {!Frontier.default_split_depth}; another split depth is
    {!Frontier.run} with {!executor}). [Error] covers configuration
    mistakes and a store that cannot take the first generation. *)

val resume :
  ?interval_s:float ->
  ?cancel:(unit -> bool) ->
  store:Store.t ->
  unit ->
  ( Record.config * Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats,
    string )
  result
(** {!Frontier.resume} of the newest intact record in [store]. [Error]
    when there is none, or as {!Frontier.resume}. *)

val checkpoint_field : Store.t -> resumed:bool -> string * Obs.Json.t
(** The ["checkpoint"] field of a checkpointed result, shared by
    [wfa --json] and the served [modelcheck] reply: the store's directory,
    whether the run resumed, and ["save_errors"] ({!Store.save_errors})
    when a save after the first failed — the answer stands, the store
    lags behind it. Read it after the run. *)

val load_record : Store.t -> (int * Record.t, string) result
(** The newest intact generation parsed as a {!Record} — shared by
    {!resume} and [wfa resume]. *)
