(** The fleet executor of {!Ckpt.Frontier}: subtree jobs fanned out over
    job servers (DESIGN.md §6). Each job goes to a worker as a [subtree]
    request ({!Svc.Protocol}), pipelined over one connection per worker,
    and each reply goes to the driver's [report] under one mutex; the
    driver keeps the first result per job id, so verdict, count and
    lex-least counterexample are the single-process run's, whatever the
    arrival order. Fault handling:
    - a failed connection (connect, send or receive) requeues the jobs its
      worker still owed and retires it; the others absorb them;
    - a server-side error reply ([deadline_exceeded], [overloaded], ...)
      requeues that one job;
    - an idle worker with an empty queue {e steals} the least-covered
      in-flight job of another, never the same job twice.

    The run fails only when every worker is dead and jobs remain. *)

type worker_report = {
  wk_addr : string;  (** the address as given ({!Svc.Addr} textual form) *)
  wk_jobs : int;  (** results accepted from this worker (duplicates lost) *)
  wk_dead : bool;  (** its connection failed at some point *)
}

type fleet = {
  redispatched : int;  (** re-issues: requeues after failures plus steals *)
  workers : worker_report list;
}

type report = {
  r_verdict : Simkit.Exhaustive.verdict;
  r_stats : Simkit.Exhaustive.stats;
  r_jobs : int;
  r_redispatched : int;
  r_workers : worker_report list;
}
(** {!run}'s answer: the {!Ckpt.Frontier.outcome} fields with the {!fleet}
    ones flattened in. *)

val executor :
  ?sink:Obs.Sink.t ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?deadline_ms:int ->
  ?window:int ->
  string list ->
  (fleet Ckpt.Frontier.executor, string) result
(** An executor over the given workers (each an {!Svc.Addr} in textual
    form). [retries]/[backoff_ms] (defaults 5/50) are per-worker
    {!Svc.Client.connect} patience; [deadline_ms] rides on every subtree
    request; [window] (default 4) is the per-connection pipelining depth.
    [sink] receives the [dist.*] events ({!Obs.Event.Name}). [Error] when
    the list is empty or an address does not parse. *)

val run :
  ?sink:Obs.Sink.t ->
  ?reduce:bool ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?deadline_ms:int ->
  ?window:int ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  workers:string list ->
  unit ->
  (report, string) result
(** {!executor} under {!Ckpt.Frontier.run} at the default split depth and
    without a journal: check [scenario] to [depth] over [workers]. A split
    depth, a journal or a resume record is {!Ckpt.Frontier.run} with
    {!executor}. [Error] covers configuration mistakes and total fleet
    failure; a counterexample is a {!report} whose verdict is
    [Counterexample]. *)
