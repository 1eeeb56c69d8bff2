(* The Tessera benchmark: four workloads over the library's public API.

     tbench.exe --workload collect|fork|run|serve --seed N --seconds S
                --trace 0|1 [--server EXE] [--models DIR] [--out DIR]
     tbench.exe regen-models DIR

   Each workload sets up several times (the median is [setup_s]), then
   repeats its job until [--seconds] have passed and reports medians.
   With [--trace 1] repetitions alternate between untraced and traced;
   traced repetitions record host-time spans around the benchmark's calls
   into each layer (Ledger) and replay the same public calls on the inputs
   captured from the run to split time the calls hide.  The last line of
   standard output is one JSON object; everything above it is the
   human-readable report.  See README.md for the workload rationale. *)

module H = Tessera_harness
module Suites = Tessera_workloads.Suites
module Generate = Tessera_workloads.Generate
module Engine = Tessera_jit.Engine
module Compiler = Tessera_jit.Compiler
module Plan = Tessera_opt.Plan
module Manager = Tessera_opt.Manager
module Lower = Tessera_codegen.Lower
module Features = Tessera_features.Features
module Modifier = Tessera_modifiers.Modifier
module Queue_ctrl = Tessera_modifiers.Queue_ctrl
module Program = Tessera_il.Program
module Meth = Tessera_il.Meth
module Values = Tessera_vm.Values
module Archive = Tessera_collect.Archive
module Collector = Tessera_collect.Collector
module Dictionary = Tessera_collect.Dictionary
module Record = Tessera_collect.Record
module Trainset = Tessera_dataproc.Trainset
module Flat_cache = Tessera_flat.Cache
module Flat_prog = Tessera_flat.Prog
module Message = Tessera_protocol.Message
module Channel = Tessera_protocol.Channel
module Tracectx = Tessera_protocol.Tracectx
module Prng = Tessera_util.Prng

let now = Unix.gettimeofday
let span = Ledger.span

(* ------------------------------------------------------------------ *)
(* Statistics and host facts                                            *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let f = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let sum l = List.fold_left ( +. ) 0.0 l

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Peak resident set of a process, from the kernel's high-water mark. *)
let peak_rss_mb ?(pid = "self") () =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Report                                                               *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name value unit_ = { name; value; unit_ }

type outcome = {
  setups : float list;  (** each set-up's host seconds *)
  walls : float list;  (** untraced repetitions' host seconds *)
  unit_ms : float;  (** host ms per useful unit, see README.md *)
  peak_mb : float;
  attempted : int;
  failed : int;
  report : metric list;  (** the workload's named end-to-end metrics *)
  layer_report : metric list;  (** per-layer seconds per traced repetition *)
  layers : metric list;  (** per-layer metrics of the traced run *)
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* Repetition loop                                                      *)
(* ------------------------------------------------------------------ *)

(* Repeat [job] for [seconds] (and at least [min_reps] times) after a
   warm-up repetition.  With tracing, odd repetitions are traced and even
   ones are not, so both legs see the same drift; the untraced ones give
   the end-to-end figures.  [job ~traced] returns the repetition's own wall time (work
   it does afterwards, such as replays, is excluded) and a payload. *)
let repeat ~seconds ~trace ?(min_reps = 3) job =
  (* one unreported warm-up repetition fills the caches and grows the
     heap, as a long-running deployment would have *)
  Ledger.enabled := false;
  ignore (job ~traced:false);
  let stop = now () +. seconds in
  let out = ref [] in
  let i = ref 0 in
  while !i < min_reps || now () < stop do
    let traced = trace && !i mod 2 = 1 in
    Ledger.rep := !i;
    Ledger.enabled := traced;
    let wall, payload = job ~traced in
    Ledger.enabled := false;
    out := (traced, wall, payload) :: !out;
    incr i
  done;
  (* a trace run needs traced and untraced legs *)
  if trace && !i < 2 then invalid_arg "repeat";
  List.rev !out

let untraced reps = List.filter (fun (t, _, _) -> not t) reps
let traced_reps reps = List.filter (fun (t, _, _) -> t) reps
let walls reps = List.map (fun (_, w, _) -> w) reps

(* Traced against untraced median repetition time, in percent. *)
let trace_overhead reps =
  match (traced_reps reps, untraced reps) with
  | [], _ | _, [] -> 0.0
  | t, u -> 100.0 *. ((median (walls t) /. median (walls u)) -. 1.0)

(* Set up [n] times; the last set-up's value is used. *)
let setup_n n f =
  let rec go k acc last =
    if k = 0 then (List.rev acc, Option.get last)
    else
      let v, dt = timed f in
      go (k - 1) (dt :: acc) (Some v)
  in
  go n [] None

(* ------------------------------------------------------------------ *)
(* Replays: the same public calls on inputs captured from a run          *)
(* ------------------------------------------------------------------ *)

type compile_replay = {
  mutable c_all : float;  (** [Compiler.compile] as one call *)
  mutable c_feat : float;
  mutable c_opt : float;
  mutable c_lower : float;
  mutable c_passes : int;
  mutable c_count : int;
}

let new_replay () =
  { c_all = 0.; c_feat = 0.; c_opt = 0.; c_lower = 0.; c_passes = 0; c_count = 0 }

(* Compile [m] with [Compiler.compile], then once more stage by stage as
   it does (features, optimizer, lowering), adding each one's host
   seconds to [acc]. *)
let add_replay acc ~program ~level ~modifier (m : Meth.t) =
  let time name f = timed (fun () -> span name f) in
  let _, all =
    time "replay.jit.compile" (fun () ->
        Compiler.compile ~modifier ~program ~level m)
  in
  let _, feat =
    time "replay.features.extract" (fun () -> Features.extract ~program m)
  in
  let quality_floor =
    match level with
    | Plan.Cold | Plan.Warm -> Tessera_vm.Cost.Q_base
    | Plan.Hot | Plan.Very_hot | Plan.Scorching -> Tessera_vm.Cost.Q_regalloc
  in
  let r, opt =
    time "replay.opt.optimize" (fun () ->
        Manager.optimize
          ~enabled:(Modifier.enabled_fun modifier)
          ~quality_floor ~program ~plan:(Plan.plan level) m)
  in
  let _, lower =
    time "replay.codegen.lower" (fun () ->
        Lower.compile ~quality:r.Manager.quality r.Manager.meth)
  in
  acc.c_all <- acc.c_all +. all;
  acc.c_feat <- acc.c_feat +. feat;
  acc.c_opt <- acc.c_opt +. opt;
  acc.c_lower <- acc.c_lower +. lower;
  acc.c_passes <- acc.c_passes + List.length r.Manager.applied;
  acc.c_count <- acc.c_count + 1

(* Flatten [m] exactly as the engine's flat tier does on first use. *)
let replay_flatten m =
  let p, dt =
    timed (fun () ->
        span "replay.flat.flatten" (fun () ->
            let base = Flat_cache.flatten m in
            if Flat_cache.fuse_enabled () then Flat_prog.fuse base else base))
  in
  (dt, Flat_prog.code_size p)

(* ------------------------------------------------------------------ *)
(* The fixed model set of the deployment workloads                      *)
(* ------------------------------------------------------------------ *)

(* The levels the paper learns models for (scorching keeps its plan). *)
let levels = [ Plan.Cold; Plan.Warm; Plan.Hot ]

let model_files =
  List.concat_map
    (fun l ->
      List.map
        (fun w -> Printf.sprintf "%s_%s.txt" w (Plan.level_name l))
        [ "model"; "scaling"; "labels" ])
    levels

let digest_file path = Digest.to_hex (Digest.file path)

(* Regenerate the committed model set: collected on compress and db at
   quick size with the pipeline's fixed seed, trained with Crammer-Singer.
   Committing it keeps the deployment workloads independent of later
   collector changes. *)
let regen_models dir =
  let cfg = H.Expconfig.quick in
  let benches = List.filter_map Suites.find [ "compress"; "db" ] in
  let records =
    List.concat_map
      (fun b ->
        (H.Collection.collect_bench ~cfg b).H.Collection.merged.Archive.records)
      benches
  in
  let ms = H.Modelset.train ~name:"perfbench" records in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  H.Modelset.save ms ~dir;
  let oc = open_out (Filename.concat dir "MANIFEST") in
  List.iter
    (fun f ->
      Printf.fprintf oc "%s  %s\n" (digest_file (Filename.concat dir f)) f)
    model_files;
  close_out oc;
  Printf.printf "wrote %d levels to %s\n" (List.length ms.H.Modelset.levels) dir

(* Load the model set after checking every file against the manifest. *)
let load_models dir =
  let ic = open_in (Filename.concat dir "MANIFEST") in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> Scanf.sscanf line "%s %s" (fun d f -> read ((f, d) :: acc))
  in
  let manifest = read [] in
  close_in ic;
  List.iter
    (fun f ->
      match List.assoc_opt f manifest with
      | Some d when d = digest_file (Filename.concat dir f) -> ()
      | _ -> failwith (Printf.sprintf "model file %s fails its manifest" f))
    model_files;
  let ms = H.Modelset.load ~name:"perfbench" ~dir in
  if List.length ms.H.Modelset.levels <> 3 then
    failwith "model set must have cold, warm and hot models";
  ms

(* ------------------------------------------------------------------ *)
(* Programs                                                             *)
(* ------------------------------------------------------------------ *)

let bench_named name =
  match Suites.find name with
  | Some b -> b
  | None -> failwith ("unknown benchmark " ^ name)

let generate (b : Suites.bench) = Generate.program b.Suites.profile

let entry_args base k = [| Values.Int_v (Int64.of_int (base + k)) |]

(* The invoked methods of a finished engine, for flatten replays. *)
let invoked_methods engine =
  let p = Engine.program engine in
  List.filter_map
    (fun id ->
      if (Engine.state engine id).Engine.invocations > 0 then
        Some (Program.meth p id)
      else None)
    (List.init (Program.method_count p) Fun.id)

let seed_int64 seed salt = Int64.(add 0x7E557E55L (of_int ((seed * 1_000_003) + salt)))

(* ------------------------------------------------------------------ *)
(* run: deployment under a learned model set                            *)
(* ------------------------------------------------------------------ *)

type run_case = {
  rb : Suites.bench;
  rprog : Program.t;
  arg_base : int;
  clock_seed : int64;
}

type run_out = {
  first_s : float;  (** first iteration on the fresh engine *)
  steady : float list;  (** the later iterations *)
  results : (Values.t, Values.trap) result array;
  engine : Engine.t;
  captured : (int * Plan.level * Modifier.t) list;
}

let run_iterations = 4
let run_scale = 0.5

(* The draw: every SPECjvm98 and DaCapo benchmark, in a seeded order, each
   with a seeded entry-argument base and clock seed.  Drawing all of them
   keeps the work per seed comparable; the seed still changes every input
   the program sees. *)
let run_draw ?(count = max_int) seed =
  let rng = Prng.create (seed_int64 seed 11) in
  let benches = Array.of_list (Suites.specjvm98 @ Suites.dacapo) in
  for i = Array.length benches - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = benches.(i) in
    benches.(i) <- benches.(j);
    benches.(j) <- t
  done;
  List.filteri
    (fun i _ -> i < count)
    (Array.to_list
       (Array.map
          (fun b ->
            ( Suites.scale_bench b run_scale,
              Prng.int rng 1_000_000,
              Prng.next_int64 rng ))
          benches))
  |> List.map (fun (b, arg_base, clock_seed) ->
         { rb = b; rprog = generate b; arg_base; clock_seed })

let close_compile_span () =
  match Ledger.top_named "jit.compile" with
  | Some s -> Ledger.close_span s
  | None -> ()

(* One fresh engine steered by [ms]: [run_iterations] iterations of
   [iteration_invocations] entry invocations each.  The compile span is
   opened by [pre_compile] and closed by [on_compiled], which the engine
   calls right before and after [Compiler.compile]. *)
let run_case ms c ~traced =
  Flat_cache.clear ();
  let captured = ref [] in
  let choose_modifier e ~meth_id ~level =
    let program = Engine.program e in
    let meth = Program.meth program meth_id in
    let f = span "features.extract" (fun () -> Features.extract ~program meth) in
    Some (span "svm.predict" (fun () -> H.Modelset.predict ms ~level f))
  in
  let pre_compile _ ~meth_id:_ ~level:_ =
    if !Ledger.enabled then begin
      close_compile_span ();
      ignore (Ledger.open_span "jit.compile")
    end
  in
  let on_compiled _ ~meth_id (comp : Compiler.compilation) =
    if !Ledger.enabled then close_compile_span ();
    if traced then
      captured :=
        (meth_id, comp.Compiler.level, comp.Compiler.modifier) :: !captured
  in
  let engine =
    Engine.create
      ~config:{ Engine.default_config with Engine.clock_seed = c.clock_seed }
      ~callbacks:
        {
          Engine.no_callbacks with
          Engine.choose_modifier = Some choose_modifier;
          pre_compile = Some pre_compile;
          on_compiled = Some on_compiled;
        }
      c.rprog
  in
  let inv = c.rb.Suites.iteration_invocations in
  let results = Array.make (run_iterations * inv) (Ok Values.Void_v) in
  let times =
    List.init run_iterations (fun it ->
        let t0 = now () in
        for k = 0 to inv - 1 do
          let i = (it * inv) + k in
          results.(i) <-
            span "jit.invoke" (fun () ->
                Engine.invoke_entry engine (entry_args c.arg_base i))
        done;
        now () -. t0)
  in
  {
    first_s = List.hd times;
    steady = List.tl times;
    results;
    engine;
    captured = List.rev !captured;
  }

(* The independent reference: the pure tree walker, no JIT, same inputs. *)
let reference_results c =
  let engine =
    Engine.create
      ~config:
        {
          Engine.default_config with
          Engine.adaptive = false;
          use_flat = false;
          clock_seed = c.clock_seed;
        }
      c.rprog
  in
  let inv = c.rb.Suites.iteration_invocations in
  Array.init (run_iterations * inv) (fun i ->
      Engine.invoke_entry engine (entry_args c.arg_base i))

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> Values.equal x y
  | Error x, Error y -> x = y
  | _ -> false

(* ------------------------------------------------------------------ *)
(* collect and fork: building the training data                         *)
(* ------------------------------------------------------------------ *)

(* Quick-size collection at a workload scale that gives several
   repetitions per run; both collectors share it. *)
let collect_cfg ~seed ~scale =
  {
    H.Expconfig.quick with
    H.Expconfig.bench_scale = scale;
    collect_invocations = 30;
    fork_fanout = 2;
    seed = seed_int64 seed 0;
  }

(* Host seconds of the calls a collection makes internally, replayed. *)
type collection_replay = {
  compiles : compile_replay;  (** one per archived record *)
  flat_s : float;
  mods_s : float;
  gen_s : float;
  rank_s : float;
  code_size : int;  (** flat code size of every method *)
}

type collection_rep = {
  records : int;
  compilations : int;
  entry_invocations : int;
  branch_invocations : int;
  forks : int;
  branches : int;
  archive_bytes : int;
  digest : string;
  roundtrip_ok : bool;
  instances : int;
  replayed : collection_replay option;  (** traced repetitions only *)
}

(* The collected programs, generated in set-up for the replays. *)
let collection_programs benches cfg =
  List.map
    (fun b -> generate (Suites.scale_bench b cfg.H.Expconfig.bench_scale))
    benches

(* Replays of the calls [Collection.collect_bench] and [Modelset.train]
   make internally: every record's compilation, one flattening per
   method, the modifier queues of both searches at every level, the
   program generation, and the per-level training sets. *)
let replay_collection ~cfg ~benches ~programs ~train (merged : Archive.t) =
  let acc = new_replay () in
  List.iter
    (fun (r : Record.t) ->
      let name = Dictionary.find merged.Archive.dictionary r.Record.sig_id in
      List.iter
        (fun p ->
          match Program.find_method p name with
          | Some id ->
              add_replay acc ~program:p ~level:r.Record.level
                ~modifier:r.Record.modifier (Program.meth p id)
          | None -> ())
        programs)
    merged.Archive.records;
  let flat_s, code_size =
    List.fold_left
      (fun (t, n) p ->
        List.fold_left
          (fun (t, n) id ->
            let dt, sz = replay_flatten (Program.meth p id) in
            (t +. dt, n + sz))
          (t, n)
          (List.init (Program.method_count p) Fun.id))
      (0.0, 0) programs
  in
  let strategies =
    [
      Queue_ctrl.Randomized
        {
          count = cfg.H.Expconfig.randomized_count;
          density = cfg.H.Expconfig.randomized_density;
        };
      Queue_ctrl.Progressive { l = cfg.H.Expconfig.progressive_l };
    ]
  in
  let _, mods_s =
    timed (fun () ->
        span "replay.modifiers.generate" (fun () ->
            List.iter
              (fun _ ->
                List.iteri
                  (fun i s ->
                    List.iter
                      (fun _ ->
                        ignore
                          (Queue_ctrl.generate
                             ~seed:(Int64.add cfg.H.Expconfig.seed (Int64.of_int i))
                             s))
                      levels)
                  strategies)
              benches))
  in
  let _, gen_s =
    timed (fun () ->
        span "replay.workloads.generate" (fun () ->
            List.iter
              (fun b ->
                ignore
                  (Generate.program
                     (Suites.scale_bench b cfg.H.Expconfig.bench_scale)
                       .Suites.profile))
              benches))
  in
  let _, rank_s =
    if not train then ((), 0.0)
    else
      timed (fun () ->
          span "replay.dataproc.rank" (fun () ->
              List.iter
                (fun level ->
                  ignore (Trainset.build ~level merged.Archive.records))
                levels))
  in
  { compiles = acc; flat_s; mods_s; gen_s; rank_s; code_size }

let sum_stats outcomes f =
  List.fold_left
    (fun a (o : H.Collection.outcome) ->
      List.fold_left (fun a s -> a + f s) a o.H.Collection.stats)
    0 outcomes

(* One repetition: collect every benchmark (both searches, merged), encode
   the archive and, for [collect], rank, normalize and train. *)
let collection_rep ~cfg ~benches ~programs ~fork ~train ~traced =
  Flat_cache.clear ();
  let t0 = now () in
  let outcomes =
    List.map
      (fun b ->
        span "collect.run" (fun () ->
            H.Collection.collect_bench ~cfg ~fork ~fork_jobs:1 b))
      benches
  in
  let merged =
    Archive.merge (List.map (fun o -> o.H.Collection.merged) outcomes)
  in
  let bytes = span "collect.archive_encode" (fun () -> Archive.to_string merged) in
  let instances =
    if not train then 0
    else
      let ms =
        span "svm.train" (fun () ->
            H.Modelset.train ~name:"collect" merged.Archive.records)
      in
      List.fold_left
        (fun a lm -> a + lm.H.Modelset.stats.Trainset.training_instances)
        0 ms.H.Modelset.levels
  in
  let wall = now () -. t0 in
  let roundtrip_ok =
    match Archive.of_string bytes with
    | a -> Archive.equal a merged
    | exception Archive.Corrupt _ -> false
  in
  let replayed =
    if traced then Some (replay_collection ~cfg ~benches ~programs ~train merged)
    else None
  in
  ( wall,
    {
      records = List.length merged.Archive.records;
      compilations = sum_stats outcomes (fun s -> s.Collector.compilations);
      entry_invocations =
        sum_stats outcomes (fun s -> s.Collector.entry_invocations);
      branch_invocations =
        sum_stats outcomes (fun s -> s.Collector.branch_invocations);
      forks = sum_stats outcomes (fun s -> s.Collector.forks);
      branches = sum_stats outcomes (fun s -> s.Collector.branches);
      archive_bytes = String.length bytes;
      digest = Digest.to_hex (Digest.string bytes);
      roundtrip_ok;
      instances;
      replayed;
    } )

(* Host seconds of one [Engine.snapshot] and one [Engine.restore] on a
   warm engine over [program], each the median of five batches of calls
   (one call is below the clock's resolution). *)
let snapshot_restore_cost program =
  let e = Engine.create ~config:{ Engine.default_config with Engine.instrument = true } program in
  for k = 0 to 9 do
    ignore (Engine.invoke_entry e (entry_args 0 k))
  done;
  let n = 200 in
  let each f = median (List.init 5 (fun _ -> snd (timed (fun () -> for _ = 1 to n do f () done)))) /. float_of_int n in
  let s = Engine.snapshot e in
  (each (fun () -> ignore (Engine.snapshot e)), each (fun () -> Engine.restore e s))

(* The forking collector's differential oracle on a small untimed slice:
   branches measured from snapshots must give the archive that branches
   replayed from scratch give. *)
let fork_oracle ~seed program =
  let run reexec =
    fst
      (Collector.run
         ~config:
           {
             Collector.default_config with
             Collector.search =
               Collector.Fork
                 {
                   strategy = Queue_ctrl.Progressive { l = 10 };
                   fanout = 2;
                   jobs = 1;
                   reexec;
                 };
             uses_per_modifier = 2;
             seed = seed_int64 seed 5;
             max_entry_invocations = 12;
           }
         ~program ~benchmark:"oracle" ~entry_args:(entry_args 0) ())
  in
  let a = run false in
  (Archive.equal a (run true), List.length a.Archive.records)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)
(* ------------------------------------------------------------------ *)

(* Every workload reports every per-layer metric; a layer a workload
   bypasses reads 0.  Times are self-time shares of the traced
   repetitions' wall time (the absolute seconds are in the report);
   counts are per repetition. *)
let layer_names =
  [
    ("workloads.generate_s", "s");
    ("flat.flatten_pct", "%");
    ("flat.code_size", "count");
    ("jit.invoke_pct", "%");
    ("jit.exec_self_pct", "%");
    ("jit.entry_invocations", "count");
    ("jit.compile_pct", "%");
    ("jit.compilations", "count");
    ("opt.optimize_pct", "%");
    ("opt.passes_applied", "count");
    ("codegen.lower_pct", "%");
    ("jit.snapshot_pct", "%");
    ("jit.restore_pct", "%");
    ("jit.virtual_app_cycles", "count");
    ("jit.virtual_compile_cycles", "count");
    ("features.extract_pct", "%");
    ("svm.predict_pct", "%");
    ("modifiers.generate_pct", "%");
    ("collect.records", "count");
    ("collect.compilations", "count");
    ("collect.branch_invocations", "count");
    ("collect.records_per_executed_invocation", "ratio");
    ("collect.archive_encode_pct", "%");
    ("collect.archive_bytes", "bytes");
    ("dataproc.rank_pct", "%");
    ("dataproc.instances", "count");
    ("svm.train_pct", "%");
    ("protocol.encode_pct", "%");
    ("protocol.decode_pct", "%");
    ("protocol.queue_depth_max", "count");
    ("protocol.shed", "count");
    ("protocol.strikes", "count");
    ("unattributed_pct", "%");
    ("trace_overhead_pct", "%");
  ]

(* [seconds] are a workload's attributed layer self times summed over its
   traced repetitions, keyed by the layer's [_pct] metric name; they are
   printed as seconds per repetition and reported as shares of [tw]. *)
let layer_metrics ~reps ~tw ~seconds ~counts ~gen_s ~unattributed ~overhead =
  let n = float_of_int (max 1 reps) in
  let report =
    List.map
      (fun (k, s) ->
        m (String.sub k 0 (String.length k - 4) ^ "_s") (s /. n) "s")
      seconds
  in
  let get k =
    if k = "workloads.generate_s" then gen_s
    else if k = "unattributed_pct" then 100.0 *. unattributed /. tw
    else if k = "trace_overhead_pct" then overhead
    else
      match List.assoc_opt k seconds with
      | Some s -> 100.0 *. s /. tw
      | None -> Option.value ~default:0.0 (List.assoc_opt k counts)
  in
  (report, List.map (fun (k, u) -> m k (get k) u) layer_names)

let pos x = Float.max 0.0 x

(* ------------------------------------------------------------------ *)
(* collect and fork workloads                                           *)
(* ------------------------------------------------------------------ *)

let collection_workload ~fork ~seed ~seconds ~trace =
  let cfg = collect_cfg ~seed ~scale:(if fork then 0.25 else 0.5) in
  let benches =
    List.map bench_named (if fork then [ "compress" ] else [ "compress"; "db" ])
  in
  let setups, programs =
    setup_n 9 (fun () -> collection_programs benches cfg)
  in
  let reps =
    repeat ~seconds ~trace (fun ~traced ->
        collection_rep ~cfg ~benches ~programs ~fork ~train:(not fork) ~traced)
  in
  let payloads = List.map (fun (_, _, p) -> p) reps in
  let first = List.hd payloads in
  (* the same seed must give the same archive, byte for byte, every time,
     and every archive must survive its encoding *)
  let bad =
    List.filter
      (fun p -> (not p.roundtrip_ok) || p.digest <> first.digest)
      payloads
  in
  let oracle = if fork then Some (fork_oracle ~seed (List.hd programs)) else None in
  let attempted = List.length payloads + if fork then 1 else 0 in
  let failed =
    List.length bad + match oracle with Some (false, _) -> 1 | _ -> 0
  in
  let u = untraced reps in
  let rps = median (List.map (fun (_, w, p) -> float_of_int p.records /. w) u) in
  let executed = first.entry_invocations + first.branch_invocations in
  let counts =
    [
      ("jit.entry_invocations", float_of_int executed);
      ("jit.compilations", float_of_int (first.compilations + first.branches));
      ("collect.records", float_of_int first.records);
      ("collect.compilations", float_of_int first.compilations);
      ("collect.branch_invocations", float_of_int first.branch_invocations);
      ( "collect.records_per_executed_invocation",
        float_of_int first.records /. float_of_int (max 1 executed) );
      ("collect.archive_bytes", float_of_int first.archive_bytes);
      ("dataproc.instances", float_of_int first.instances);
    ]
  in
  let layer_report, layers =
    if not trace then ([], [])
    else begin
      let tr = traced_reps reps in
      let st = Ledger.self_times ~keep:(fun r -> r mod 2 = 1) in
      let tw = sum (walls tr) in
      let tp =
        List.filter_map (fun (_, _, p) -> Option.map (fun r -> (p, r)) p.replayed) tr
      in
      let snap, restore =
        if fork then snapshot_restore_cost (List.hd programs) else (0.0, 0.0)
      in
      let f g = sum (List.map g tp) in
      (* replayed per-record compiles stand for every compilation made *)
      let scaled g =
        f (fun (p, r) ->
            g r.compiles *. float_of_int (p.compilations + p.branches)
            /. float_of_int (max 1 r.compiles.c_count))
      in
      let comp = scaled (fun c -> c.c_all) in
      let feat = scaled (fun c -> c.c_feat) and opt = scaled (fun c -> c.c_opt)
      and lower = scaled (fun c -> c.c_lower) in
      let flat = f (fun (_, r) -> r.flat_s) in
      let mods = f (fun (_, r) -> r.mods_s) and gen = f (fun (_, r) -> r.gen_s) in
      let snap_s = f (fun (p, _) -> snap *. float_of_int p.forks) in
      let restore_s = f (fun (p, _) -> restore *. float_of_int p.branches) in
      let run = Ledger.get st "collect.run" in
      let rank = f (fun (_, r) -> r.rank_s) in
      let train = Ledger.get st "svm.train" in
      let archive = Ledger.get st "collect.archive_encode" in
      let seconds =
        [
          ("flat.flatten_pct", flat);
          ("jit.invoke_pct", pos (run -. mods -. gen));
          ( "jit.exec_self_pct",
            pos (run -. comp -. flat -. mods -. gen -. snap_s -. restore_s) );
          ("jit.compile_pct", pos (comp -. feat -. opt -. lower));
          ("opt.optimize_pct", opt);
          ("codegen.lower_pct", lower);
          ("features.extract_pct", feat);
          ("jit.snapshot_pct", snap_s);
          ("jit.restore_pct", restore_s);
          ("modifiers.generate_pct", mods);
          ("collect.archive_encode_pct", archive);
          ("dataproc.rank_pct", rank);
          ("svm.train_pct", pos (train -. rank));
        ]
      in
      let passes = scaled (fun c -> float_of_int c.c_passes) /. float_of_int (List.length tp) in
      layer_metrics ~reps:(List.length tr) ~tw ~seconds
        ~counts:
          (("opt.passes_applied", passes)
          :: ("flat.code_size", float_of_int (snd (List.hd tp)).code_size)
          :: counts)
        ~gen_s:(median setups)
        ~unattributed:(pos (tw -. run -. train -. archive))
        ~overhead:(trace_overhead reps)
    end
  in
  let notes =
    (match oracle with
    | Some (ok, n) ->
        [ Printf.sprintf "fork oracle (snapshot vs re-execution, %d records): %s" n
            (if ok then "identical archives" else "MISMATCH") ]
    | None -> [])
    @ [
        Printf.sprintf "archive determinism and round trip: %d of %d repetitions bad"
          (List.length bad) (List.length payloads);
      ]
  in
  {
    setups;
    walls = walls u;
    unit_ms = 1000.0 /. rps;
    peak_mb = peak_rss_mb ();
    attempted;
    failed;
    report =
      [
        m "records_per_s" rps "1/s";
        m "records" (float_of_int first.records) "count";
      ];
    layer_report;
    layers;
    notes;
  }

(* ------------------------------------------------------------------ *)
(* run workload                                                         *)
(* ------------------------------------------------------------------ *)

type run_rep = {
  startup : float;
  steady_iter : float;
  mismatches : int;
  compilations : int;
  app_cycles : int64;
  compile_cycles : int64;
  r_replay : compile_replay;
  r_flat : float;
  r_code_size : int;
}

(* One pass over the draw.  Results are checked against [refs] and the
   engines dropped before the next pass, so memory does not grow with the
   number of repetitions. *)
let run_rep ms draw refs ~traced =
  let outs, wall = timed (fun () -> List.map (fun c -> run_case ms c ~traced) draw) in
  let r_replay = new_replay () in
  let r_flat = ref 0.0 and r_code_size = ref 0 in
  if traced then
    List.iter
      (fun o ->
        let program = Engine.program o.engine in
        List.iter
          (fun (id, level, modifier) ->
            add_replay r_replay ~program ~level ~modifier (Program.meth program id))
          o.captured;
        List.iter
          (fun meth ->
            let dt, sz = replay_flatten meth in
            r_flat := !r_flat +. dt;
            r_code_size := !r_code_size + sz)
          (invoked_methods o.engine))
      outs;
  let mismatches =
    List.fold_left2
      (fun n o expected ->
        let bad = ref 0 in
        Array.iteri
          (fun i v -> if not (same_result v expected.(i)) then incr bad)
          o.results;
        n + !bad)
      0 outs refs
  in
  let total f = List.fold_left (fun a o -> Int64.add a (f o.engine)) 0L outs in
  ( wall,
    {
      startup = sum (List.map (fun o -> o.first_s) outs);
      steady_iter = sum (List.map (fun o -> median o.steady) outs);
      mismatches;
      compilations =
        List.fold_left (fun a o -> a + Engine.compile_count o.engine) 0 outs;
      app_cycles = total Engine.app_cycles;
      compile_cycles = total Engine.total_compile_cycles;
      r_replay;
      r_flat = !r_flat;
      r_code_size = !r_code_size;
    } )

let run_workload ~models ~seed ~seconds ~trace =
  let gen = ref [] in
  let setups, (ms, draw) =
    setup_n 9 (fun () ->
        let ms = load_models models in
        let draw, g = timed (fun () -> run_draw seed) in
        gen := g :: !gen;
        (ms, draw))
  in
  let refs = List.map reference_results draw in
  let reps = repeat ~seconds ~trace (fun ~traced -> run_rep ms draw refs ~traced) in
  let mismatches = List.fold_left (fun n (_, _, p) -> n + p.mismatches) 0 reps in
  let invocations =
    List.fold_left (fun n c -> n + (run_iterations * c.rb.Suites.iteration_invocations)) 0 draw
  in
  let u = untraced reps in
  let up = List.map (fun (_, _, p) -> p) u in
  let startup = median (List.map (fun p -> p.startup) up) in
  let steady = median (List.map (fun p -> p.steady_iter) up) in
  let first = (fun (_, _, p) -> p) (List.hd reps) in
  let counts =
    [
      ("jit.entry_invocations", float_of_int invocations);
      ("jit.compilations", float_of_int first.compilations);
      ("jit.virtual_app_cycles", Int64.to_float first.app_cycles);
      ("jit.virtual_compile_cycles", Int64.to_float first.compile_cycles);
    ]
  in
  let layer_report, layers =
    if not trace then ([], [])
    else begin
      let tr = traced_reps reps in
      let tp = List.map (fun (_, _, p) -> p) tr in
      let st = Ledger.self_times ~keep:(fun r -> r mod 2 = 1) in
      let tw = sum (walls tr) in
      let f g = sum (List.map g tp) in
      let r_all = f (fun p -> p.r_replay.c_all) in
      let comp = Ledger.get st "jit.compile" in
      (* the hook-timed compile time, split in the replay's proportions *)
      let stage g = comp *. f (fun p -> g p.r_replay) /. Float.max 1e-12 r_all in
      let feat = stage (fun r -> r.c_feat) and opt = stage (fun r -> r.c_opt)
      and lower = stage (fun r -> r.c_lower) in
      let flat = f (fun p -> p.r_flat) in
      let inv = Ledger.get st "jit.invoke" in
      let feat_d = Ledger.get st "features.extract" in
      let pred = Ledger.get st "svm.predict" in
      let invoke = inv +. comp +. feat_d +. pred in
      let seconds =
        [
          ("flat.flatten_pct", flat);
          ("jit.invoke_pct", invoke);
          ("jit.exec_self_pct", pos (inv -. flat));
          ("jit.compile_pct", pos (comp -. feat -. opt -. lower));
          ("opt.optimize_pct", opt);
          ("codegen.lower_pct", lower);
          ("features.extract_pct", feat_d +. feat);
          ("svm.predict_pct", pred);
        ]
      in
      let per_rep g = float_of_int (List.fold_left (fun a p -> a + g p) 0 tp) /. float_of_int (List.length tp) in
      layer_metrics ~reps:(List.length tr) ~tw ~seconds
        ~counts:
          (("flat.code_size", per_rep (fun p -> p.r_code_size))
          :: ("opt.passes_applied", per_rep (fun p -> p.r_replay.c_passes))
          :: counts)
        ~gen_s:(median !gen)
        ~unattributed:(pos (tw -. invoke))
        ~overhead:(trace_overhead reps)
    end
  in
  {
    setups;
    walls = walls u;
    unit_ms = 1000.0 *. steady;
    peak_mb = peak_rss_mb ();
    attempted = invocations * List.length reps;
    failed = mismatches;
    report =
      [
        m "startup_s" startup "s";
        m "steady_iter_s" steady "s";
        m "benchmarks" (float_of_int (List.length draw)) "count";
      ];
    layer_report;
    layers;
    notes =
      [
        Printf.sprintf
          "reference (tree walker, no JIT): %d of %d entry results differ"
          mismatches (invocations * List.length reps);
        Printf.sprintf "draw: %s"
          (String.concat " "
             (List.map (fun c -> c.rb.Suites.profile.Tessera_workloads.Profile.name) draw));
      ];
  }

(* ------------------------------------------------------------------ *)
(* serve workload                                                       *)
(* ------------------------------------------------------------------ *)

(* Offered rates (requests per second) of one pass, each held for
   [step_s]; [ref_rate] is the rate latency is reported at.  On a 2-core
   host, 8000/s already left requests unanswered during host stalls, so
   the ladder stops at half that and no request should fail. *)
let rates = [ 500.0; 1000.0; 2000.0; 4000.0 ]
let ref_rate = 1000.0
let step_s = 0.5
let slo_ms = 10.0 (* the server's default SLO objective *)
let reply_timeout_s = 2.0

type client = {
  fd : Unix.file_descr;
  ch : Channel.t;
  mutable buf : string;
}

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when tries < 2000 ->
        Unix.close fd;
        Unix.sleepf 0.001;
        go (tries + 1)
  in
  let fd = go 0 in
  let ch = Channel.of_fds fd fd in
  Channel.write ch (Message.encode (Message.Init { model_name = "perfbench" }));
  { fd; ch; buf = "" }

(* Decode every complete frame buffered on [c]. *)
let receive c =
  let got = span "protocol.recv" (fun () -> Channel.read_avail c.ch 65536) in
  c.buf <- c.buf ^ got;
  span "protocol.decode" (fun () ->
      let rec go pos acc =
        match Message.scan c.buf ~pos with
        | Message.Scan_msg (msg, next) -> go next (msg :: acc)
        | Message.Scan_need_more ->
            c.buf <- String.sub c.buf pos (String.length c.buf - pos);
            List.rev acc
        | Message.Scan_bad e -> failwith ("malformed reply: " ^ e)
      in
      go 0 [])

let spawn_server ~server ~models ~sock ~log =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process server [| server; models; "--socket"; sock |] null out out
  in
  Unix.close null;
  Unix.close out;
  pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

(* The server's Prometheus exposition, via a [Stats_req] round trip. *)
let stats c =
  Channel.write c.ch (Message.encode Message.Stats_req);
  let deadline = now () +. 2.0 in
  let rec wait () =
    if now () > deadline then failwith "stats request timed out";
    ignore (Unix.select [ c.fd ] [] [] 0.05);
    match List.find_opt (function Message.Stats_text _ -> true | _ -> false) (receive c) with
    | Some (Message.Stats_text s) -> s
    | _ -> wait ()
  in
  wait ()

let stat_value text name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k = name -> float_of_string v
      | _ -> acc)
    0.0
    (String.split_on_char '\n' text)

type step = {
  rate : float;
  sent : int;
  lat_ms : float array;  (** due time to reply, answered correctly *)
  late_ms : float array;  (** how late the generator sent each request *)
  wrong : int;  (** replies that differ from the in-process prediction *)
  overloaded : int;
  errors : int;
  timeouts : int;
  backlog_mid : int;
  backlog_end : int;  (** outstanding requests when the last was sent *)
  depth_max : float;  (** the server's queue-depth gauge, sampled *)
}

(* Request ids, unique over the run, so a late reply from an earlier step
   can never be taken for a reply to this one. *)
let next_id = ref 0

(* One open-loop step: request [i] is due at [t0 + i / rate] whatever the
   server does, and is timed from its due time. *)
let run_step ~conns ~stat_conn ~pool ~expected ~rng ~rate =
  let n = int_of_float (rate *. step_s) in
  let nconns = Array.length conns in
  let t0 = now () +. 0.001 in
  let pending = Hashtbl.create 256 in
  let lat = ref [] and late = ref [] in
  let wrong = ref 0 and overloaded = ref 0 and errors = ref 0 in
  let backlog_mid = ref 0 and backlog_end = ref 0 in
  let depth_max = ref 0.0 and next_stat = ref t0 in
  let i = ref 0 in
  let stop = t0 +. step_s +. reply_timeout_s in
  while (!i < n || Hashtbl.length pending > 0) && now () < stop do
    (* never block on a full socket: a request that cannot be written
       now stays due, and its lateness is counted *)
    let blocked = ref false in
    while (not !blocked) && !i < n && t0 +. (float_of_int !i /. rate) <= now () do
      let c = conns.(!i mod nconns) in
      match Unix.select [] [ c.fd ] [] 0.0 with
      | _, [], _ -> blocked := true
      | _ ->
      let due = t0 +. (float_of_int !i /. rate) in
      let k = Prng.int rng (Array.length pool) in
      let level, features = pool.(k) in
      incr next_id;
      let id = !next_id in
      let frame =
        span "protocol.encode" (fun () ->
            Message.encode
              (Message.Predict
                 { level; features; trace = { Tracectx.trace_id = id; span_id = 1 } }))
      in
      late := ((now () -. due) *. 1000.0) :: !late;
      Hashtbl.replace pending id (due, k);
      span "protocol.send" (fun () -> Channel.write c.ch frame);
      incr i;
      if !i = n / 2 then backlog_mid := Hashtbl.length pending;
      if !i = n then backlog_end := Hashtbl.length pending
    done;
    if now () >= !next_stat && !i < n then begin
      (* sample the server's queue depth a few times a step *)
      let text = span "protocol.stats" (fun () -> stats stat_conn) in
      depth_max := Float.max !depth_max (stat_value text "serve_queue_depth");
      next_stat := now () +. (step_s /. 5.0)
    end;
    let wait =
      if !i < n && not !blocked then
        Float.max 0.0 (t0 +. (float_of_int !i /. rate) -. now ())
      else 0.01
    in
    let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let ready, _, _ =
      span "serve.idle" (fun () ->
          Unix.select fds (if !blocked then fds else []) [] wait)
    in
    List.iter
      (fun fd ->
        let c = List.find (fun c -> c.fd = fd) (Array.to_list conns) in
        List.iter
          (function
            | Message.Prediction { modifier; trace } -> (
                match Hashtbl.find_opt pending trace.Tracectx.trace_id with
                | Some (due, k) ->
                    Hashtbl.remove pending trace.Tracectx.trace_id;
                    if Modifier.equal modifier expected.(k) then
                      lat := ((now () -. due) *. 1000.0) :: !lat
                    else incr wrong
                | None -> incr wrong)
            | Message.Overloaded -> incr overloaded
            | Message.Error_msg _ -> incr errors
            | _ -> ())
          (receive c))
      ready
  done;
  {
    rate;
    sent = n;
    lat_ms = Array.of_list !lat;
    late_ms = Array.of_list !late;
    wrong = !wrong;
    overloaded = !overloaded;
    errors = !errors;
    timeouts = Hashtbl.length pending;
    backlog_mid = !backlog_mid;
    backlog_end = !backlog_end;
    depth_max = !depth_max;
  }

let failed_of s = s.sent - Array.length s.lat_ms

(* Features drawn from the methods [run] compiles, at the levels the
   model set covers: the first benchmarks of [run]'s seeded draw each run
   one iteration on a fresh engine. *)
let feature_pool draw =
  let pool = ref [] in
  let on_compiled _ ~meth_id:_ (comp : Compiler.compilation) =
    if List.mem comp.Compiler.level levels then
      pool :=
        ( comp.Compiler.level,
          Array.map float_of_int (Features.to_array comp.Compiler.features) )
        :: !pool
  in
  List.iter
    (fun c ->
      Flat_cache.clear ();
      let e =
        Engine.create
          ~callbacks:{ Engine.no_callbacks with Engine.on_compiled = Some on_compiled }
          c.rprog
      in
      for k = 0 to c.rb.Suites.iteration_invocations - 1 do
        ignore (Engine.invoke_entry e (entry_args c.arg_base k))
      done)
    draw;
  Array.of_list (List.rev !pool)

let serve_workload ~server ~models ~out ~seed ~seconds ~trace =
  let sock = Filename.concat out (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let log = Filename.concat out "server.log" in
  let nconns = Domain.recommended_domain_count () in
  let gen = ref [] in
  let live = ref None in
  at_exit (fun () -> Option.iter stop_server !live);
  let opened = ref [] in
  let setups, (ms, pool, conns, stat_conn, pid) =
    setup_n 9 (fun () ->
        Option.iter stop_server !live;
        List.iter (fun c -> Channel.close c.ch) !opened;
        let ms = load_models models in
        let draw, g = timed (fun () -> run_draw ~count:4 seed) in
        gen := g :: !gen;
        let pool = feature_pool draw in
        let pid = spawn_server ~server ~models ~sock ~log in
        live := Some pid;
        let conns = Array.init nconns (fun _ -> connect sock) in
        let stat_conn = connect sock in
        opened := stat_conn :: Array.to_list conns;
        (* ready once a request is answered *)
        ignore (stats stat_conn);
        (ms, pool, conns, stat_conn, pid))
  in
  let expected = Array.map (fun (level, f) -> H.Modelset.predict ms ~level (Features.of_array (Array.map int_of_float f))) pool in
  let rng = Prng.create (seed_int64 seed 23) in
  let reps =
    repeat ~seconds ~trace ~min_reps:2 (fun ~traced:_ ->
        let steps, wall =
          timed (fun () ->
              List.map
                (fun rate -> run_step ~conns ~stat_conn ~pool ~expected ~rng ~rate)
                rates)
        in
        (wall, steps))
  in
  let final = stats stat_conn in
  let server_mb = peak_rss_mb ~pid:(string_of_int pid) () in
  stop_server pid;
  live := None;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let u = untraced reps in
  let steps reps rate =
    List.concat_map (fun (_, _, ss) -> List.filter (fun s -> s.rate = rate) ss) reps
  in
  let all_steps = List.concat_map (fun (_, _, ss) -> ss) reps in
  let sent = List.fold_left (fun n s -> n + s.sent) 0 all_steps in
  let failed = List.fold_left (fun n s -> n + failed_of s) 0 all_steps in
  let per_rate =
    List.map
      (fun rate ->
        let ss = steps u rate in
        let pooled f = Array.to_list (Array.concat (List.map f ss)) in
        let lat = pooled (fun s -> s.lat_ms) and late = pooled (fun s -> s.late_ms) in
        let fails = List.fold_left (fun n s -> n + failed_of s) 0 ss in
        let growing =
          List.exists
            (fun s -> s.backlog_end > max 8 (int_of_float (rate *. slo_ms /. 1000.0)))
            ss
        in
        (rate, lat, late, fails, growing, ss))
      rates
  in
  let meets (_, lat, _, fails, growing, _) =
    fails = 0 && (not growing) && lat <> [] && quantile 0.99 lat <= slo_ms
  in
  let max_rate =
    List.fold_left (fun a ((r, _, _, _, _, _) as x) -> if meets x then r else a) 0.0 per_rate
  in
  let _, ref_lat, _, _, _, _ = List.find (fun (r, _, _, _, _, _) -> r = ref_rate) per_rate in
  let p50 = quantile 0.5 ref_lat and p99 = quantile 0.99 ref_lat in
  let rate_notes =
    List.map
      (fun (rate, lat, late, fails, growing, ss) ->
        let count f = List.fold_left (fun n s -> n + f s) 0 ss in
        Printf.sprintf
          "rate %5.0f/s: %d samples, p50 %.3f ms, p99 %.3f ms, gen_late_ms p99 %.3f, \
           backlog mid/end %s, failed %d (wrong %d, overloaded %d, errors %d, \
           unanswered %d)%s"
          rate (List.length lat) (quantile 0.5 lat) (quantile 0.99 lat)
          (quantile 0.99 late)
          (String.concat "," (List.map (fun s -> Printf.sprintf "%d/%d" s.backlog_mid s.backlog_end) ss))
          fails
          (count (fun s -> s.wrong))
          (count (fun s -> s.overloaded))
          (count (fun s -> s.errors))
          (count (fun s -> s.timeouts))
          (if growing then " BACKLOG GROWING" else if meets (rate, lat, late, fails, growing, ss) then "" else " misses SLO"))
      per_rate
  in
  let layer_report, layers =
    if not trace then ([], [])
    else begin
      let tr = traced_reps reps in
      let st = Ledger.self_times ~keep:(fun r -> r mod 2 = 1) in
      let tw = sum (walls tr) in
      let enc = Ledger.get st "protocol.encode" and dec = Ledger.get st "protocol.decode" in
      (* the generator's own time: socket calls, stats polling, and the
         idle wait for the next due time that the open loop imposes *)
      let io =
        List.map
          (fun k -> (k ^ "_pct", Ledger.get st k))
          [ "protocol.send"; "protocol.recv"; "protocol.stats"; "serve.idle" ]
      in
      let depth = List.fold_left (fun a s -> Float.max a s.depth_max) 0.0 all_steps in
      layer_metrics ~reps:(List.length tr) ~tw
        ~seconds:(("protocol.encode_pct", enc) :: ("protocol.decode_pct", dec) :: io)
        ~counts:
          [
            ("protocol.queue_depth_max", depth);
            ("protocol.shed", stat_value final "serve_shed_total");
            ("protocol.strikes", stat_value final "serve_strikes_total");
          ]
        ~gen_s:(median !gen)
        ~unattributed:(pos (tw -. enc -. dec -. sum (List.map snd io)))
        ~overhead:(trace_overhead reps)
    end
  in
  {
    setups;
    walls = walls u;
    unit_ms = p50;
    peak_mb = Float.max (peak_rss_mb ()) server_mb;
    attempted = sent;
    failed;
    report =
      [
        m "latency_p50_ms" p50 "ms";
        m "latency_p99_ms" p99 "ms";
        m "latency_samples" (float_of_int (List.length ref_lat)) "count";
        m "max_rate_rps" max_rate "1/s";
      ];
    layer_report;
    layers;
    notes = rate_notes;
  }

(* ------------------------------------------------------------------ *)
(* Command line and output                                              *)
(* ------------------------------------------------------------------ *)

let json_num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_num x.value) x.unit_)
         ms)
  ^ "}"

let usage () =
  prerr_endline
    "usage: tbench --workload collect|fork|run|serve --seed N --seconds S \
     --trace 0|1 [--server EXE] [--models DIR] [--out DIR]\n\
    \       tbench regen-models DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "regen-models"; dir ] -> regen_models dir
  | _ ->
      let opt name default =
        let rec go = function
          | k :: v :: _ when k = name -> v
          | _ :: rest -> go rest
          | [] -> ( match default with Some d -> d | None -> usage ())
        in
        go args
      in
      let workload = opt "--workload" None in
      let seed = int_of_string (opt "--seed" None) in
      let seconds = float_of_string (opt "--seconds" None) in
      let trace = opt "--trace" (Some "0") = "1" in
      let server = opt "--server" (Some "_build/default/bin/tessera_server.exe") in
      let models = opt "--models" (Some "perfbench/models") in
      let out = opt "--out" (Some "perfbench/out") in
      (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let r =
        match workload with
        | "collect" -> collection_workload ~fork:false ~seed ~seconds ~trace
        | "fork" -> collection_workload ~fork:true ~seed ~seconds ~trace
        | "run" -> run_workload ~models ~seed ~seconds ~trace
        | "serve" -> serve_workload ~server ~models ~out ~seed ~seconds ~trace
        | _ -> usage ()
      in
      let e2e =
        [
          m "setup_s" (median r.setups) "s";
          m "wall_s" (median r.walls) "s";
          m "unit_ms" r.unit_ms "ms";
          m "peak_rss_mb" r.peak_mb "MB";
        ]
      in
      let host =
        Printf.sprintf "nproc=%d jobs=1 ocaml=%s seed=%d seconds=%g trace=%d"
          (Domain.recommended_domain_count ())
          Sys.ocaml_version seed seconds
          (if trace then 1 else 0)
      in
      let line x = Printf.sprintf "  %-44s %14.6g %s" x.name x.value x.unit_ in
      let lines =
        [ Printf.sprintf "perfbench %s: %s" workload host;
          Printf.sprintf "  samples: %d set-ups, %d untraced repetitions"
            (List.length r.setups) (List.length r.walls);
          "  repetition wall times (s): "
          ^ String.concat " " (List.map (Printf.sprintf "%.4f") r.walls) ]
        @ List.map line (e2e @ r.report)
        @ [
            Printf.sprintf "  %-44s %14.6g (%d failed of %d attempted)" "failed_frac"
              (float_of_int r.failed /. float_of_int (max 1 r.attempted))
              r.failed r.attempted;
          ]
        @ List.map (fun n -> "  " ^ n) r.notes
        @ (if trace then
             "  per layer, seconds per traced repetition:"
             :: List.map line r.layer_report
           else [])
      in
      List.iter print_endline lines;
      let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0) in
      let oc = open_out (Filename.concat out ("report-" ^ tag ^ ".txt")) in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      if trace then begin
        let path = Filename.concat out ("trace-" ^ tag ^ ".json") in
        Ledger.write_chrome path;
        Printf.printf "  trace written to %s\n" path
      end;
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
        (r.failed = 0) r.attempted r.failed
        (json_metrics (if trace then r.layers else e2e));
      (* a reference mismatch fails the command *)
      if r.failed > 0 then exit 1
