(** The checkpoint record: what a deep exhaustive run durably is. Schedule
    counts are credited and the merge of subtree results is commutative
    and associative, so a run's whole progress is its configuration
    (enough to re-derive the identical frontier) plus the jobs already
    answered, each with its verdict and stats. Resuming folds recorded and
    fresh results into the uninterrupted run's verdict, credited count and
    lex-least counterexample {e by construction}. A record is one
    {!Obs.Json.t} value, which {!Store} persists in either payload codec. *)

type config = {
  cf_scenario : string;  (** {!Mcheck.Scenario} name *)
  cf_n_s : int;
  cf_depth : int;
  cf_reduce : bool;
  cf_split_depth : int;
}

type done_job = {
  dj_id : int;  (** {!Simkit.Exhaustive.subtree} [sj_id] *)
  dj_verdict : Simkit.Exhaustive.verdict;
  dj_stats : Simkit.Exhaustive.stats;
}

type t = {
  ck_config : config;
  ck_total : int;  (** jobs the frontier splits into under [ck_config] *)
  ck_done : done_job list;  (** ascending [dj_id], each unique, < [ck_total] *)
}

val make : config:config -> total:int -> done_:done_job list -> t
(** Sorts and de-duplicates [done_] by id (first wins). Raises
    [Invalid_argument] on an id outside [0, total). *)

val json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
(** [of_json ∘ json = Ok] (the qcheck battery pins this through the store
    in both codecs). [of_json] validates shape and the id invariants. *)

val done_json : done_job -> Obs.Json.t
val done_of_json : Obs.Json.t -> (done_job, string) result
(** The one codec for a job result: a record's [done] entry and the
    [subtree] verb's reply are the same object — [id], [verdict],
    [schedules] (an integer, [null] on a counterexample), [cex] (only on a
    counterexample) and [stats]. [done_of_json] needs [schedules] only on
    [ok], so entries written without it on counterexamples still load. *)

val dones_of_json : Obs.Json.t -> (done_job list, string) result
(** An object's [done] list, decoded in order: a record's answered jobs,
    or the [subtree] verb's reply, one entry per job of its range. *)

val equal : t -> t -> bool
(** Structural, [wall_s] included — for round-trip tests. *)
