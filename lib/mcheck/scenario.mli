(** Named model-checking scenarios — the one place the CLI, the job
    server and the distributed coordinator get their runtimes from.

    A distributed run ships a scenario {e name} over the wire, not code:
    the coordinator and every worker call {!find} with the same name and
    parameters and must mean the same thing by it — same builder, same
    property, same pid order, same symmetry classes — or the frontier
    merge identity ([split + run_subtrees + merge = run]) silently breaks.
    Keeping the builders here (rather than duplicated in [bin/wfa] and
    [lib/svc]) is what makes that agreement a fact of the build instead
    of a convention. *)

type t = {
  sc_name : string;
  sc_n_c : int;  (** client processes *)
  sc_n_s : int;  (** server (helper) processes *)
  sc_pids : Simkit.Pid.t list;
      (** the schedule alphabet, in canonical (lex) order *)
  sc_build : unit -> Simkit.Runtime.t;  (** fresh runtime per exploration *)
  sc_prop : Simkit.Runtime.t -> bool;
  sc_symmetry : Simkit.Pid.t list list;
      (** symmetry classes handed to the engine under [--reduce] *)
}

val safe_agreement : n_s:int -> t
(** Two clients over Borowsky–Gafni safe agreement with [n_s] idle
    helper processes: agreement must hold on every schedule. The
    default scenario of [wfa modelcheck] and the depth-8 CI anchor. *)

val race_false : n_s:int -> t
(** Two clients racing on one register with the deliberately false
    property that their decisions always differ — the seeded-violation
    scenario: every engine and worker count must report the identical
    lex-least counterexample. *)

val names : string list
(** The names {!find} accepts, in display order. *)

val expected_safe : string -> bool option
(** The verdict a named scenario is built to exhibit — [Some true] when
    its property holds on every schedule, [Some false] for the seeded
    violation; [None] for a name {!find} would reject. Campaign specs
    that omit [expect] derive it from this. *)

val find : string -> n_s:int -> (t, string) result
(** Resolve a wire/CLI scenario name. [Error] names the unknown input
    and lists the valid names. *)

val reduction : t -> reduce:bool -> Simkit.Exhaustive.reduction option
(** [Some {symmetry = sc.sc_symmetry}] (sleep sets plus the scenario's
    symmetry classes) when [reduce], else [None] — the exact reduction the
    CLI has always used, factored so coordinator and workers cannot
    disagree on it. *)
