(** A crash-safe generational record store — the durability layer under
    checkpoint/resume (DESIGN.md §8).

    One store is one directory holding monotonically numbered generation
    files [gen-NNNNNN.ckpt] and nothing else: the newest is found by
    scanning them, so no index file has to be kept in step. Every
    write is atomic and durable: the bytes go to a temp file in the same
    directory, are [fsync]ed, renamed over the final name, and the
    directory itself is [fsync]ed — a crash at any instant leaves either
    the previous state or the new one, never a half-written current
    generation under its final name.

    Each generation file carries a header (magic, version, codec), the
    payload length, the payload — one {!Obs.Json.t} value in either the
    JSON text encoding or the {!Obs.Binval} tagged binary encoding, the
    same bytes the wire protocol uses — and an FNV-1a checksum. {!load}
    validates newest-first and {e rolls back}: a torn tail, a bit flip, a
    lying length or an undecodable payload demotes that generation and the
    next older one is tried, so the loader returns the newest generation
    that is provably intact, or [None] when none is. It never raises on
    corrupt input.

    Old generations are pruned on save (keeping a small tail as rollback
    insurance), so a long run's store stays O(keep) files. *)

type codec = Json | Binary

type t

val create :
  ?codec:codec ->
  ?keep:int ->
  ?sink:Obs.Sink.t ->
  ?metrics:Obs.Metrics.registry ->
  string ->
  (t, string) result
(** Open (creating the directory if needed) a store rooted at the given
    directory. [codec] (default [Binary]) is the payload encoding for
    {e new} generations — {!load} auto-detects per file, so a store may
    mix codecs across its history. [keep] (default 3, min 1) is how many
    newest generations survive pruning. [sink] receives the [ckpt.*]
    events ({!Obs.Event.Name}); [metrics] accumulates the
    [ckpt.generations], [ckpt.bytes_written], [ckpt.loads] and
    [ckpt.rollbacks] counters. [Error] covers an unusable path (exists
    but is a file, cannot be created). *)

val dir : t -> string

val save : t -> Obs.Json.t -> (int, string) result
(** Durably write a new generation holding the value; returns its number
    (one more than the newest generation present at {!create} time or
    written since). [Error] reports I/O failure (disk full, permissions)
    and emits [ckpt.save.error]; the store's existing generations are
    untouched in that case. *)

val save_errors : t -> int
(** Failed {!save}s through this handle so far — how a run that outlived
    its later saves ({!Frontier}'s journal rule) tells its caller that
    the store lags behind the answer. *)

val load : t -> (int * Obs.Json.t) option
(** The newest intact generation and its number. [None] when the store
    holds no valid generation (fresh directory, or all corrupt). *)

val generations : t -> int list
(** Generation numbers currently on disk, ascending (validity not
    checked) — for tests and [wfa resume] diagnostics. *)

val generation_path : t -> int -> string
(** The file a given generation lives in (whether or not it exists). *)

val note_resume : t -> gen:int -> total:int -> done_:int -> unit
(** Emit the [ckpt.resume] event (and bump the [ckpt.resumes] counter)
    through this store's sink — called by {!Frontier.resume} when a run
    continues from a loaded record. *)
