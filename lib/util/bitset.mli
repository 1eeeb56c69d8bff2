(** Fixed-width mutable bit sets.

    Compilation-plan modifiers (Section 5 of the paper) are "a sequence of
    bits; each bit determines whether a code transformation is enabled".
    This module provides the underlying representation, independent of the
    transformation catalogue.  The bit-vector dataflow analyses
    (liveness, reaching definitions) use it as their set type. *)

type t

val create : int -> t
(** [create width] is an all-zero bit set of [width] bits. *)

val width : t -> int
val copy : t -> t

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val union_into : into:t -> t -> bool
(** [union_into ~into s] ors [s] into [into]; returns whether [into]
    changed.  Widths must match. *)

val diff_into : into:t -> t -> unit
(** [diff_into ~into s] clears in [into] every bit set in [s].  Widths
    must match. *)

val popcount : t -> int
(** Number of set bits. *)

val equal : t -> t -> bool

val to_string : t -> string
(** Little-endian "0"/"1" string, bit 0 first, e.g. ["0110..."]. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Invalid_argument] on bad input. *)

val to_int64_le : t -> int64
(** Bits 0..63 packed into an int64 (width must be <= 64). *)

val of_int64_le : width:int -> int64 -> t

val fold : (int -> bool -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds over bit indices in increasing order. *)
