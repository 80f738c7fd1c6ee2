(** Simulated shared memory: a growable pool of atomic MWMR registers.

    Registers are plain integer handles into one [Memory.t]. Algorithm
    constructors allocate their registers up front (or lazily — growth is not
    observable by other processes until a write lands). All reads and writes
    go through the runtime, one atomic step each; the direct accessors below
    exist for the runtime itself and for checkers inspecting final states. *)

type t
type reg = int

val create : unit -> t

val alloc : t -> ?init:Value.t -> int -> reg array
(** [alloc mem n] allocates [n] fresh registers, initialized to [init]
    (default [Value.unit], playing the role of ⊥). *)

val alloc1 : t -> ?init:Value.t -> unit -> reg
val size : t -> int

val read : t -> reg -> Value.t
(** Direct read — runtime/checker use only; inside process code use
    {!Runtime.Op.read}. *)

val write : t -> reg -> Value.t -> unit
(** Direct write — runtime use only. *)

val read_many : t -> reg array -> Value.t array

val contents : t -> Value.t array
(** Copy of the allocated cells, in register order — a structural snapshot of
    the whole memory for state digests and debugging. *)

val overlaps : reg array -> reg array -> bool
(** Do two register footprints share a register? Linear scan — footprints
    are at most one snapshot wide. Used by the exhaustive checker's
    independence relation ({!Runtime.footprint}). *)
