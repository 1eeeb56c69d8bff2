(** Data collection (Section 4): runs a benchmark under an instrumented
    engine, exploring compilation-plan modifiers per method and producing
    a binary archive of experiment records.

    The flow mirrors Figure 2 of the paper: the VM's adaptive heuristics
    still decide {e when} to compile and at {e which} level; the strategy
    control draws the next pre-computed modifier for that level from the
    queue and the JIT compiles with it.  Instrumented enter/exit samples
    (with TSC-drift discard) accumulate into the record of the method's
    current compiled version.  After a computed per-method invocation
    threshold — targeting roughly 10 virtual milliseconds of accumulated
    running time between compilations, clamped to [50, 50000] — the
    collector requests a recompilation at the method's current level,
    moving exploration to the next modifier.  A method whose queue is
    exhausted is never recompiled again; when every queue is exhausted the
    collection terminates gracefully.

    {e Compilation forking} ([Fork]) instead keeps the trunk run
    unmodified and measures every candidate modifier of a compile
    decision in a forked branch (see {!fork_params}). *)

module Plan = Tessera_opt.Plan
module Values = Tessera_vm.Values
module Program = Tessera_il.Program

(** Parameters of the compilation-forking collector ({!search} [Fork]).

    The trunk run is a plain adaptive execution (null modifiers); every
    first compilation of a method at a collected level is a {e decision}
    (a fork point).  At each entry-invocation boundary the {e settled}
    decisions — no trunk install pending, at most one per method — form
    one group; the rest wait for a later boundary.  The group runs one
    {e branch} per candidate index [k]: a fork of the trunk
    ({!Tessera_jit.Engine.fork}) that recompiles every decision's method
    with its [k]-th candidate, in decision order, and executes up to
    {!config.uses_per_modifier} entry invocations on its private
    clock.  Each method's record opens with its requested compilation,
    is charged only the samples taken after that compilation installs
    (the compile thread serves the group in order, and until then the
    method runs the trunk's code), closes early if the branch
    recompiles it, and the branch ends once every record is closed — so
    a single warm run yields the full (method × modifier) training
    matrix, at most one record per (decision, candidate), for as many
    forked engines per boundary as the widest candidate set. *)
type fork_params = {
  strategy : Tessera_modifiers.Queue_ctrl.strategy;
      (** generates the candidate set per level
          ({!Tessera_modifiers.Queue_ctrl.generate}); the null modifier
          is always prepended *)
  fanout : int;
      (** candidates (beyond null) measured per fork point; [0] means
          the strategy's full sequence *)
  jobs : int;  (** branch fan-out domains (branches are independent) *)
  reexec : bool;
      (** measure branches from a {e re-executed} fork point (a fresh
          engine replayed to the same entry boundary) instead of a
          snapshot.  Slower but snapshot-free: by engine determinism the
          resulting archive must be record-for-record identical, which
          is the differential oracle validating snapshot/restore *)
}

val fork_defaults : Tessera_modifiers.Queue_ctrl.strategy -> fork_params
(** [{ strategy; fanout = 0; jobs = 1; reexec = false }] *)

(** How the modifier space is explored. *)
type search =
  | Queue of Tessera_modifiers.Queue_ctrl.strategy
      (** the paper's pre-computed queues (randomized / Eq.-1 progressive) *)
  | Guided of Tessera_modifiers.Guided.params
      (** the paper's future work: per-method hill climbing on the Eq.-2
          ranking value observed during collection *)
  | Fork of fork_params
      (** compilation forking: every candidate measured from a snapshot
          of one warm run (DESIGN.md §15) *)

type config = {
  levels : Plan.level list;  (** levels explored (paper: cold, warm, hot) *)
  search : search;
  uses_per_modifier : int;
      (** sweep queues: compilations that draw each modifier
          ({!Tessera_modifiers.Queue_ctrl.create}); [Fork]: entry
          invocations each branch executes at most *)
  seed : int64;
  target_cycles_between_compiles : int;  (** paper: 10 ms; scaled here *)
  min_threshold : int;
  max_threshold : int;
  max_entry_invocations : int;  (** run budget *)
  target : Tessera_vm.Target.t;  (** back end the data is collected on *)
  fuel_per_invocation : int;
      (** per-invocation fuel budget of every engine the collector
          creates (trunk, branches, replays) *)
}

val default_config : config

type stats = {
  entry_invocations : int;  (** trunk invocations only *)
  records : int;
  discarded_samples : int;
  compilations : int;  (** trunk compilations only *)
  forks : int;  (** decisions expanded (0 for sweep searches) *)
  branches : int;
      (** (decision, candidate) pairs measured: one branch compilation
          and at most one record each *)
  branch_runs : int;  (** forked branch engines run (one per group and candidate index) *)
  branch_invocations : int;  (** entry invocations executed in branches *)
  skipped_decisions : int;
      (** decisions never expanded because they were still waiting (trunk
          install pending, or a same-method decision ahead of them) when
          the invocation budget ran out *)
}

(** {1 Fork groups} *)

(** A fork point: the trunk's first compilation of [meth] at [level]. *)
type decision = { meth : int; level : Plan.level }

val take_group : settled:(int -> bool) -> decision Queue.t -> decision list
(** The fork group at an entry boundary: pops, in queue order, every
    decision whose method is [settled] (no trunk install pending) and
    has no earlier decision in the group.  The others are pushed back,
    in order, to wait for the next boundary. *)

val run :
  ?config:config ->
  program:Program.t ->
  benchmark:string ->
  entry_args:(int -> Values.t array) ->
  unit ->
  Archive.t * stats
