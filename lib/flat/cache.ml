(* The flat-tier switch and the instrumented lowering and fusion entry
   points.  [enabled] is a plain flag set at process start (`--no-flat`)
   before worker domains spawn.  Each engine memoizes its own flat
   forms. *)

module Meth = Tessera_il.Meth
module Trace = Tessera_obs.Trace
module Metrics = Tessera_obs.Metrics

let enabled_flag = ref true

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let fuse_enabled () = true

(* registered on the default registry (idempotent by name) so the flat
   tier shows up in every metrics exposition alongside jit_* counters *)
let m_flatten =
  Metrics.counter Metrics.default ~help:"Methods lowered to flat form"
    "flat_flatten_total"

let m_fused_sites =
  Metrics.counter Metrics.default
    ~help:"Superinstruction sites produced by fusion" "flat_fused_sites_total"

let clear () = ()

let flatten (m : Meth.t) =
  if !Trace.enabled then
    Trace.span_begin ~cat:"flat"
      ~args:[ ("method", Trace.Str m.Meth.name) ]
      "flatten";
  let p = Prog.of_meth m in
  Metrics.inc m_flatten;
  if !Trace.enabled then
    Trace.span_end ~cat:"flat"
      ~args:[ ("code_size", Trace.Int (Int64.of_int (Prog.code_size p))) ]
      "flatten";
  p

let fuse base =
  let p = Prog.fuse base in
  Metrics.add m_fused_sites p.Prog.fused_pairs;
  p
