(** The process-wide flat-tier switch and the instrumented lowering and
    fusion entry points.  Flat forms are memoized per engine
    ({!Tessera_jit.Engine}), not here. *)

val enabled : unit -> bool
(** The [--no-flat] escape hatch: when false, engines fall back to the
    tree walker. *)

val set_enabled : bool -> unit

val flatten : Tessera_il.Meth.t -> Prog.t
(** Uncached lowering (with Obs span/counter instrumentation). *)

val fuse : Prog.t -> Prog.t
(** Superinstruction fusion ({!Prog.fuse}); adds the fused sites to the
    [flat_fused_sites_total] counter. *)

val fuse_enabled : unit -> bool
(** Always true: nothing disables fusion any more.  Kept, like
    {!clear}, only because the benchmark harness calls it; both go with
    the next benchmark change. *)

val clear : unit -> unit
(** No-op: there is no process-wide memo left to drop. *)
