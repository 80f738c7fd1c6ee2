(** The fleet executor of {!Ckpt.Frontier}: subtree jobs fanned out over
    job servers (DESIGN.md §6). The executor first connects to every
    server and reads its pool size from its [stats] reply; it then opens
    one connection per pool domain, each with one request in flight. The
    [todo] jobs are cut once, in order, into one contiguous range per
    connection (four per connection when the driver journals, so a kill
    loses less), with sizes differing by at most one job; a reduced run
    ([cf_reduce]) takes one job per range instead, since a reduced search
    keeps no memo, and two connections per pool domain, so the
    server has the next job queued while a reply travels. A range goes out as a single [subtree] request
    ({!Svc.Protocol}), which the server runs in one
    {!Simkit.Exhaustive.run_subtrees} call, so the jobs of a range share
    one memo table. Each reply's results go to the driver's [report] as
    one batch, under one mutex; verdict, count and lex-least
    counterexample are the single-process run's, whatever the arrival
    order. Fault handling:
    - a failed connection (connect, send or receive) or an unreadable
      reply requeues the range its connection owed, whole, and retires
      the connection; the others absorb it;
    - an [overloaded] or [shutting_down] reply requeues the range;
    - an [oversized] or [deadline_exceeded] reply to a range of more than
      one job requeues its two halves, so a range is cut down to what
      the server's frame and deadline limits admit;
    - any other error reply, or one of those two on a single job, would
      recur on every retry, so it ends the run with [Error] naming the
      code and the jobs.

    No job is dispatched twice while a dispatch of it is alive. The run
    fails when every connection is dead and jobs remain. *)

type worker_report = {
  wk_addr : string;  (** the address as given ({!Svc.Addr} textual form) *)
  wk_jobs : int;  (** results accepted from this worker *)
  wk_dead : bool;  (** one of its connections failed at some point *)
}

type fleet = {
  redispatched : int;
      (** jobs requeued after a failed request, halves of split ranges
          included *)
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
  string list ->
  (fleet Ckpt.Frontier.executor, string) result
(** An executor over the given workers (each an {!Svc.Addr} in textual
    form). [retries]/[backoff_ms] (defaults 5/50) are per-worker
    {!Svc.Client.connect} patience, and [backoff_ms] is also the pause
    after an [overloaded] or [shutting_down] reply; [deadline_ms] rides on
    every subtree request, so it bounds a whole range, and a range that
    misses it is halved. [sink] receives the
    [dist.*] events ({!Obs.Event.Name}). [Error] when the list is empty or
    an address does not parse. *)

val run :
  ?sink:Obs.Sink.t ->
  ?reduce:bool ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?deadline_ms:int ->
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
