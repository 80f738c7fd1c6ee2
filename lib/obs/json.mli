(** A hand-rolled JSON tree, writer and reader — no new dependencies.

    Everything [obs] serializes (events, metric dumps, bench records) goes
    through this one representation, so machine consumers see one dialect:
    UTF-8, escaped control characters, non-finite floats encoded as [null]
    (JSON has no representation for them), object fields in insertion
    order (output is deterministic — goldens diff cleanly). The reader
    exists so the test suite and CI can check that everything the library
    emits parses back ({!of_string} ∘ {!to_string} = identity on the
    emitted subset). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool

(** {1 Writing} *)

val to_string : t -> string
(** Compact, single line. *)

val to_string_pretty : t -> string
(** 2-space indentation, trailing newline — the format of the
    [BENCH_*.json] files. *)

val to_buffer : Buffer.t -> t -> unit
val pp : Format.formatter -> t -> unit
(** [pp] prints the compact form. *)

val escape_string : string -> string
(** The quoted, escaped form of a string literal, quotes included. *)

(** {1 Reading} *)

val of_string :
  ?max_depth:int -> ?max_string:int -> ?max_number:int -> string ->
  (t, string) result
(** Strict parser for the dialect above (standard JSON; numbers without
    [.], [e] or leading signs beyond [-] parse as [Int]). The error string
    carries a character offset.

    Safe on untrusted input: container nesting beyond [max_depth] (default
    512 — recursion depth is proportional to it, so adversarial
    ["[[[[..."] bytes cannot overflow the stack), a string literal longer
    than [max_string] bytes (default 16 MiB) or a number literal longer
    than [max_number] bytes (default 512) all produce a clean [Error].
    The service wire protocol ({!Svc.Frame}) parses every frame through
    these guards. *)

(** {1 Accessors (for tests and small consumers)} *)

val member : string -> t -> t option
(** Field of an [Obj], [None] otherwise. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int]s widen to float. *)

val to_string_opt : t -> string option

val field : string -> t -> (t, string) result
(** {!member} for a required field: [Error "missing field \"k\""] when
    absent. *)

val int_field : string -> t -> (int, string) result
val string_field : string -> t -> (string, string) result
val bool_field : string -> t -> (bool, string) result
(** A required field of one type; the [Error] names the field when it is
    missing or holds another type ("field \"k\" is not an integer"). *)
