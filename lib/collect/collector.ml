module Plan = Tessera_opt.Plan
module Values = Tessera_vm.Values
module Program = Tessera_il.Program
module Meth = Tessera_il.Meth
module Modifier = Tessera_modifiers.Modifier
module Queue_ctrl = Tessera_modifiers.Queue_ctrl
module Engine = Tessera_jit.Engine
module Compiler = Tessera_jit.Compiler
module Prng = Tessera_util.Prng
module Pool = Tessera_util.Pool
module Trace = Tessera_obs.Trace
module Metrics = Tessera_obs.Metrics

type fork_params = {
  strategy : Queue_ctrl.strategy;
  fanout : int;
  jobs : int;
  reexec : bool;
}

type search =
  | Queue of Queue_ctrl.strategy
  | Guided of Tessera_modifiers.Guided.params
  | Fork of fork_params

let fork_defaults strategy = { strategy; fanout = 0; jobs = 1; reexec = false }

type config = {
  levels : Plan.level list;
  search : search;
  uses_per_modifier : int;
  seed : int64;
  target_cycles_between_compiles : int;
  min_threshold : int;
  max_threshold : int;
  max_entry_invocations : int;
  target : Tessera_vm.Target.t;
  fuel_per_invocation : int;
}

let default_config =
  {
    levels = [ Plan.Cold; Plan.Warm; Plan.Hot ];
    search = Queue (Queue_ctrl.Progressive { l = 2000 });
    uses_per_modifier = 50;
    seed = 0xC011EC7L;
    (* The paper targets 10 ms of accumulated running time between
       compilations with thresholds in [50, 50000]; invocation volumes in
       this simulation are ~100x smaller, so the target scales down to
       0.25 ms to reach an equivalent modifier-exploration rate. *)
    target_cycles_between_compiles = Tessera_vm.Cost.cycles_per_ms / 4;
    min_threshold = 10;
    max_threshold = 2_000;
    max_entry_invocations = 400;
    target = Tessera_vm.Target.zircon;
    fuel_per_invocation = Engine.default_config.Engine.fuel_per_invocation;
  }

type stats = {
  entry_invocations : int;
  records : int;
  discarded_samples : int;
  compilations : int;
  forks : int;
  branches : int;
  branch_runs : int;
  branch_invocations : int;
  skipped_decisions : int;
}

type meth_collect = {
  mutable open_record : Record.t option;
  mutable version_invocations : int;
  mutable threshold : int option;
  mutable first_samples : int64 list;  (** first 8 valid sample cycles *)
}

(* ------------------------------------------------------------------ *)
(* Sweep collection (Queue / Guided): the trunk run carries the whole   *)
(* exploration, one modifier per recompilation.                         *)
(* ------------------------------------------------------------------ *)

let run_sweep ~config ~program ~benchmark ~entry_args () =
  let dictionary = Dictionary.create () in
  let store = ref [] in
  let discarded = ref 0 in
  let rng = Prng.create config.seed in
  (* one explorer per collected level *)
  let explorers =
    List.map
      (fun level ->
        let seed = Prng.next_int64 rng in
        match config.search with
        | Queue strategy ->
            ( level,
              `Queue
                (Queue_ctrl.create ~uses_per_modifier:config.uses_per_modifier
                   ~seed strategy) )
        | Guided params ->
            (level, `Guided (Tessera_modifiers.Guided.create ~params ~seed ()))
        | Fork _ -> assert false (* dispatched to run_fork *))
      config.levels
  in
  let per_meth =
    Array.init (Program.method_count program) (fun _ ->
        {
          open_record = None;
          version_invocations = 0;
          threshold = None;
          first_samples = [];
        })
  in
  let close_record ~meth_id mc =
    match mc.open_record with
    | Some r ->
        store := r :: !store;
        mc.open_record <- None;
        (* guided search learns from the Eq.-2 value of the finished
           experiment *)
        if r.Record.invocations > 0 then
          List.iter
            (fun (level, e) ->
              match e with
              | `Guided g when level = r.Record.level ->
                  Tessera_modifiers.Guided.feedback g ~method_key:meth_id
                    r.Record.modifier (Rank_value.value r)
              | _ -> ())
            explorers
    | None -> ()
  in
  let choose_modifier _engine ~meth_id ~level =
    match List.assoc_opt level explorers with
    | Some (`Queue q) -> Queue_ctrl.next q ~method_key:meth_id
    | Some (`Guided g) -> Tessera_modifiers.Guided.next g ~method_key:meth_id
    | None -> None (* levels outside the collection set are not explored *)
  in
  let on_compiled _engine ~meth_id (comp : Compiler.compilation) =
    let mc = per_meth.(meth_id) in
    close_record ~meth_id mc;
    let name = (Program.meth program meth_id).Meth.name in
    mc.open_record <-
      Some
        (Record.make
           ~sig_id:(Dictionary.intern dictionary name)
           ~features:comp.Compiler.features ~level:comp.Compiler.level
           ~modifier:comp.Compiler.modifier
           ~compile_cycles:comp.Compiler.compile_cycles);
    mc.version_invocations <- 0
  in
  let on_sample _engine ~meth_id ~cycles ~valid =
    let mc = per_meth.(meth_id) in
    match mc.open_record with
    | None -> () (* still interpreted: no record to charge *)
    | Some r ->
        mc.open_record <- Some (Record.add_sample r ~cycles ~valid);
        if not valid then incr discarded
        else begin
          mc.version_invocations <- mc.version_invocations + 1;
          if mc.threshold = None then begin
            mc.first_samples <- cycles :: mc.first_samples;
            if List.length mc.first_samples >= 8 then begin
              let total =
                List.fold_left Int64.add 0L mc.first_samples
              in
              let avg =
                max 1 (Int64.to_int (Int64.div total 8L))
              in
              let t = config.target_cycles_between_compiles / avg in
              mc.threshold <-
                Some (max config.min_threshold (min config.max_threshold t))
            end
          end
        end
  in
  let post_invoke engine ~meth_id =
    let mc = per_meth.(meth_id) in
    match (mc.open_record, mc.threshold) with
    | Some r, Some threshold when mc.version_invocations >= threshold ->
        let st = Engine.state engine meth_id in
        if st.Engine.pending = None && not st.Engine.no_more then
          Engine.request_compile engine ~meth_id ~level:r.Record.level ()
    | _ -> ()
  in
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          Engine.instrument = true;
          (* dwell longer at each level so cold and warm plans are
             explored too, not just hot *)
          trigger_scale = 8.0;
          target = config.target;
          fuel_per_invocation = config.fuel_per_invocation;
          clock_seed = Prng.next_int64 rng;
        }
      ~callbacks:
        {
          Engine.no_callbacks with
          Engine.choose_modifier = Some choose_modifier;
          on_compiled = Some on_compiled;
          on_sample = Some on_sample;
          post_invoke = Some post_invoke;
        }
      program
  in
  let invocations = ref 0 in
  let exhausted () =
    List.for_all
      (fun (_, e) ->
        match e with
        | `Queue q -> Queue_ctrl.exhausted q
        | `Guided _ -> false (* bounded per method, not globally *))
      explorers
  in
  while !invocations < config.max_entry_invocations && not (exhausted ()) do
    ignore (Engine.invoke_entry engine (entry_args !invocations));
    incr invocations
  done;
  Array.iteri (fun meth_id mc -> close_record ~meth_id mc) per_meth;
  let records = List.rev !store in
  (* records with no valid invocation cannot be ranked (Eq. 2 divides by
     I); they correspond to the paper's discarded crashed/empty sessions *)
  let records = List.filter (fun (r : Record.t) -> r.Record.invocations > 0) records in
  ( { Archive.benchmark; dictionary; records },
    {
      entry_invocations = !invocations;
      records = List.length records;
      discarded_samples = !discarded;
      compilations = Engine.compile_count engine;
      forks = 0;
      branches = 0;
      branch_runs = 0;
      branch_invocations = 0;
      skipped_decisions = 0;
    } )

(* ------------------------------------------------------------------ *)
(* Compilation forking: one warm trunk run decides when/where to        *)
(* compile; at each entry boundary the collector forks one branch per   *)
(* candidate index and measures the k-th candidate of every settled     *)
(* decision from the same snapshot state (DESIGN.md §15).               *)
(* ------------------------------------------------------------------ *)

type decision = { meth : int; level : Plan.level }

let take_group ~settled decisions =
  let taken = Hashtbl.create 8 in
  let group = ref [] in
  for _ = 1 to Queue.length decisions do
    let d = Queue.pop decisions in
    if settled d.meth && not (Hashtbl.mem taken d.meth) then begin
      Hashtbl.add taken d.meth ();
      group := d :: !group
    end
    else Queue.push d decisions
  done;
  List.rev !group

(* A measured method's record slot inside one branch. *)
type slot = {
  sig_id : int;
  mutable record : Record.t option;
  mutable closed : bool;
}

let run_fork ~config ~(params : fork_params) ~program ~benchmark ~entry_args ()
    =
  let dictionary = Dictionary.create () in
  let store = ref [] in
  let discarded = ref 0 in
  let rng = Prng.create config.seed in
  (* Per-level candidate sets: the null plan first (the baseline
     observation every sweep also makes), then the queue's own modifier
     sequence for this seed — the same modifiers a [Queue] collector with
     this seed would dole out one per recompilation — truncated to
     [fanout] modifiers when positive.  Seeds are drawn exactly like the
     sweep's per-level explorer seeds. *)
  let candidates =
    List.map
      (fun level ->
        let seed = Prng.next_int64 rng in
        let mods = Queue_ctrl.generate ~seed params.strategy in
        let mods =
          if params.fanout > 0 && params.fanout < Array.length mods then
            Array.sub mods 0 params.fanout
          else mods
        in
        (level, Array.append [| Modifier.null |] mods))
      config.levels
  in
  let engine_config =
    {
      Engine.default_config with
      Engine.instrument = true;
      trigger_scale = 8.0;
      target = config.target;
      fuel_per_invocation = config.fuel_per_invocation;
      clock_seed = Prng.next_int64 rng;
    }
  in
  (* Decision queue: the trunk's own adaptive compilations (null
     modifier) mark the fork points, once per (method, collected level). *)
  let decisions = Queue.create () in
  let seen = Hashtbl.create 64 in
  let trunk_on_compiled _e ~meth_id (comp : Compiler.compilation) =
    let level = comp.Compiler.level in
    if
      List.mem_assoc level candidates
      && not (Hashtbl.mem seen (meth_id, level))
    then begin
      Hashtbl.add seen (meth_id, level) ();
      Queue.push { meth = meth_id; level } decisions
    end
  in
  let trunk =
    Engine.create ~config:engine_config
      ~callbacks:
        { Engine.no_callbacks with Engine.on_compiled = Some trunk_on_compiled }
      program
  in
  let m = Engine.metrics trunk in
  let m_forks =
    Metrics.counter m ~help:"Fork points expanded into branch fan-outs"
      "collect_fork_decisions_total"
  in
  let m_branches =
    Metrics.counter m
      ~help:"(decision, candidate) pairs measured in branches"
      "collect_fork_branches_total"
  in
  let m_branch_runs =
    Metrics.counter m ~help:"Forked branch engines run (one per candidate index)"
      "collect_fork_branch_runs_total"
  in
  let m_branch_invs =
    Metrics.counter m ~help:"Entry invocations executed inside branches"
      "collect_fork_branch_invocations_total"
  in
  let m_skipped =
    Metrics.counter m
      ~help:"Fork decisions never expanded (still waiting at end of run)"
      "collect_fork_skipped_total"
  in
  let forks = ref 0 in
  let branches = ref 0 in
  let branch_runs = ref 0 in
  let branch_invs = ref 0 in
  (* One branch: measure [(index, decision, sig_id, candidate)]
     [members] — at most one per method — from the trunk state at entry
     boundary [start_inv].  Each member's record opens when its requested
     compilation is queued, takes samples once it installs, and closes
     early if the method is recompiled again inside the branch (the
     version under measurement is gone); the branch ends once every
     record is closed. *)
  let run_branch ~start_inv members =
    let slots = Array.make (Program.method_count program) None in
    let requests =
      List.map
        (fun (i, d, sig_id, candidate) ->
          let s = { sig_id; record = None; closed = false } in
          slots.(d.meth) <- Some s;
          (i, d, candidate, s))
        members
    in
    let open_slots = ref (List.length members) in
    let active = ref false in
    let disc = ref 0 in
    let on_compiled _e ~meth_id (comp : Compiler.compilation) =
      if !active then
        match slots.(meth_id) with
        | Some ({ closed = false; record = None; _ } as s) ->
            s.record <-
              Some
                (Record.make ~sig_id:s.sig_id ~features:comp.Compiler.features
                   ~level:comp.Compiler.level ~modifier:comp.Compiler.modifier
                   ~compile_cycles:comp.Compiler.compile_cycles)
        | Some ({ closed = false; record = Some _; _ } as s) ->
            s.closed <- true;
            decr open_slots
        | Some { closed = true; _ } | None -> ()
    in
    (* [on_compiled] fires when the compilation is queued, but the old
       code keeps running until it installs — later in the group's queue
       for later members — so only post-install samples are charged *)
    let on_sample e ~meth_id ~cycles ~valid =
      if !active then
        match slots.(meth_id) with
        | Some ({ closed = false; record = Some r; _ } as s)
          when (Engine.state e meth_id).Engine.pending = None ->
            s.record <- Some (Record.add_sample r ~cycles ~valid);
            if not valid then incr disc
        | _ -> ()
    in
    let callbacks =
      {
        Engine.no_callbacks with
        Engine.on_compiled = Some on_compiled;
        on_sample = Some on_sample;
      }
    in
    let branch =
      if params.reexec then begin
        (* The differential oracle's branch: rebuild the fork point by
           replaying a fresh engine to the same entry boundary.  The
           callbacks are inert ([active] is false) during the prefix, so
           determinism makes the replica's state — and therefore every
           measurement below — identical to the snapshot branch's. *)
        let e = Engine.create ~config:engine_config ~callbacks program in
        for i = 0 to start_inv - 1 do
          ignore (Engine.invoke_entry e (entry_args i))
        done;
        e
      end
      else Engine.fork ~callbacks trunk
    in
    active := true;
    List.iter
      (fun (_, d, candidate, _) ->
        Engine.request_compile branch ~meth_id:d.meth ~level:d.level
          ~modifier:candidate ())
      requests;
    let invs = ref 0 in
    while !invs < config.uses_per_modifier && !open_slots > 0 do
      ignore (Engine.invoke_entry branch (entry_args (start_inv + !invs)));
      incr invs
    done;
    (List.map (fun (i, _, _, s) -> (i, s.record)) requests, !invs, !disc)
  in
  (* One fork group: branch [k] measures the [k]-th candidate of every
     decision that has one, so the group costs as many forked engines as
     its widest candidate set, not one per (decision, candidate). *)
  let fork_group ~start_inv group =
    let members =
      List.mapi
        (fun i d ->
          let name = (Program.meth program d.meth).Meth.name in
          (i, d, Dictionary.intern dictionary name, List.assoc d.level candidates))
        group
    in
    let width =
      List.fold_left (fun w (_, _, _, c) -> max w (Array.length c)) 0 members
    in
    let runs =
      List.init width (fun k ->
          List.filter_map
            (fun (i, d, sig_id, cands) ->
              if k < Array.length cands then Some (i, d, sig_id, cands.(k))
              else None)
            members)
    in
    let pairs = List.fold_left (fun n r -> n + List.length r) 0 runs in
    forks := !forks + List.length group;
    Metrics.add m_forks (List.length group);
    if !Trace.enabled then
      Trace.span_begin
        ~cycles:(Engine.clock_now trunk)
        ~cat:"collect"
        ~args:
          [
            ("boundary", Trace.Int (Int64.of_int start_inv));
            ("decisions", Trace.Int (Int64.of_int (List.length group)));
            ("branches", Trace.Int (Int64.of_int pairs));
          ]
        "fork";
    let results = Pool.run_list ~jobs:params.jobs (run_branch ~start_inv) runs in
    (* branches may have stamped this domain's trace source with their
       own clocks: the trunk takes it back *)
    Engine.claim_trace_source trunk;
    branches := !branches + pairs;
    Metrics.add m_branches pairs;
    branch_runs := !branch_runs + width;
    Metrics.add m_branch_runs width;
    List.iter
      (fun (_, invs, disc) ->
        branch_invs := !branch_invs + invs;
        Metrics.add m_branch_invs invs;
        discarded := !discarded + disc)
      results;
    (* archive order is decision-major: each fork point's candidates stay
       together, in candidate order *)
    List.concat_map (fun (records, _, _) -> records) results
    |> List.stable_sort (fun (i, _) (j, _) -> compare i j)
    |> List.iter (function _, Some r -> store := r :: !store | _, None -> ());
    if !Trace.enabled then
      Trace.span_end ~cycles:(Engine.clock_now trunk) ~cat:"collect" "fork"
  in
  let settled meth = (Engine.state trunk meth).Engine.pending = None in
  let invocations = ref 0 in
  while !invocations < config.max_entry_invocations do
    ignore (Engine.invoke_entry trunk (entry_args !invocations));
    incr invocations;
    (* Entry boundaries are the fork points: replaying [start_inv] whole
       invocations is well-defined, mid-invocation states are not.  A
       decision whose trunk install is still pending (it would race the
       branch's own request), or whose method already has a decision in
       this group, waits for the next boundary. *)
    match take_group ~settled decisions with
    | [] -> ()
    | group -> fork_group ~start_inv:!invocations group
  done;
  (* decisions still waiting when the budget ran out *)
  let skipped = Queue.length decisions in
  Metrics.add m_skipped skipped;
  let records = List.rev !store in
  let records =
    List.filter (fun (r : Record.t) -> r.Record.invocations > 0) records
  in
  ( { Archive.benchmark; dictionary; records },
    {
      entry_invocations = !invocations;
      records = List.length records;
      discarded_samples = !discarded;
      compilations = Engine.compile_count trunk;
      forks = !forks;
      branches = !branches;
      branch_runs = !branch_runs;
      branch_invocations = !branch_invs;
      skipped_decisions = skipped;
    } )

let run ?(config = default_config) ~program ~benchmark ~entry_args () =
  match config.search with
  | Fork params -> run_fork ~config ~params ~program ~benchmark ~entry_args ()
  | Queue _ | Guided _ -> run_sweep ~config ~program ~benchmark ~entry_args ()
