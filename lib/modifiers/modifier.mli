(** Compilation-plan modifiers (Section 5 of the paper).

    A modifier is a sequence of 58 bits — one per controllable
    transformation in {!Tessera_opt.Catalog} — where a {e set} bit
    {e disables} the transformation.  Modifiers remove transformations
    from a plan; they never add or reorder them. *)

type t

val width : int
(** = [Tessera_opt.Catalog.count] = 58. *)

val null : t
(** The null modifier: disables nothing, i.e. the original Testarossa
    compilation plan. *)

val is_null : t -> bool

val disables : t -> int -> bool
(** [disables m i]: transformation [i] is suppressed. *)

val enabled_fun : t -> int -> bool
(** The predicate handed to the pass manager: [fun i -> not (disables m i)]. *)

val disabled_count : t -> int

val of_disabled : int list -> t
(** Build from a list of disabled transformation indices. *)

val disabled_indices : t -> int list

val random : Tessera_util.Prng.t -> density:float -> t
(** Each bit disabled independently with probability [density] — the pure
    randomized search with aggressive exploration. *)

val progressive : Tessera_util.Prng.t -> i:int -> l:int -> t
(** The progressive randomized search of Eq. (1): the i-th modifier
    disables each transformation with probability
    [D_i = i * 0.25 / L], evolving from 0 to 0.25 over a collection run. *)

val progressive_probability : i:int -> l:int -> float
(** [D_i] itself, exposed for tests and documentation. *)

val equal : t -> t -> bool

val to_string : t -> string
(** 58-character "0"/"1" string, bit 0 first (1 = disabled). *)

val of_string : string -> t

val to_bits : t -> int64
(** Packed little-endian (58 < 64 bits). *)

val of_bits : int64 -> t

val pp : Format.formatter -> t -> unit
