(* The observability layer: ring-buffer bounds and ordering (qcheck),
   histogram accounting, Chrome-trace export validity and name
   round-trip, virtual-clock determinism of engine traces, the engine's
   registry-backed counters, and the protocol's Stats request. *)

module Trace = Tessera_obs.Trace
module Metrics = Tessera_obs.Metrics
module Log = Tessera_obs.Log
module Export = Tessera_obs.Export
module Engine = Tessera_jit.Engine
module Channel = Tessera_protocol.Channel
module Message = Tessera_protocol.Message
module Serve = Tessera_protocol.Serve
module Client = Tessera_protocol.Client
module Modifier = Tessera_modifiers.Modifier
module Plan = Tessera_opt.Plan

(* every test leaves the global trace state as it found it: disabled,
   empty, with the default cycle source *)
let with_trace ?capacity f =
  Trace.enable ?capacity ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ();
      Trace.clear_cycle_source ())
    f

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                          *)
(* ------------------------------------------------------------------ *)

let gen_names = QCheck.Gen.(list_size (int_bound 200) (string_size ~gen:(char_range 'a' 'z') (return 5)))

let test_ring_bounds () =
  QCheck.Test.make ~count:100
    ~name:"ring buffer never exceeds capacity and preserves order"
    (QCheck.make
       QCheck.Gen.(pair (int_range 1 32) gen_names))
    (fun (capacity, names) ->
      with_trace ~capacity @@ fun () ->
      List.iteri
        (fun i name -> Trace.instant ~cycles:(Int64.of_int i) ~cat:"test" name)
        names;
      let evs = Trace.events () in
      let n = List.length names in
      let kept = min n capacity in
      List.length evs = kept
      && Trace.dropped () = n - kept
      (* the retained events are exactly the newest [kept], in order *)
      && List.map (fun (e : Trace.event) -> e.Trace.name) evs
         = List.filteri (fun i _ -> i >= n - kept) names
      && List.map (fun (e : Trace.event) -> e.Trace.cycles) evs
         = List.init kept (fun i -> Int64.of_int (n - kept + i)))

let test_disabled_emits_nothing () =
  Trace.disable ();
  Trace.reset ();
  Trace.instant ~cat:"test" "ignored";
  Trace.span_begin ~cat:"test" "ignored";
  Alcotest.(check int) "no events while disabled" 0 (Trace.length ())

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

let test_histogram_sums () =
  QCheck.Test.make ~count:100
    ~name:"histogram bucket counts sum to observations"
    (QCheck.make QCheck.Gen.(list (map (fun f -> f *. 1e10) (float_bound_inclusive 1.0))))
    (fun samples ->
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "h" in
      List.iter (Metrics.observe h) samples;
      let bucket_total =
        Array.fold_left (fun acc (_, c) -> acc + c) 0 (Metrics.bucket_counts h)
      in
      bucket_total = List.length samples
      && Metrics.histogram_count h = List.length samples
      && abs_float (Metrics.histogram_sum h -. List.fold_left ( +. ) 0.0 samples)
         <= 1e-6 *. (1.0 +. abs_float (Metrics.histogram_sum h)))

let test_registry_registration () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg ~help:"a counter" "requests_total" in
  Metrics.inc c;
  (* idempotent: same name and kind returns the same instrument *)
  let c' = Metrics.counter reg "requests_total" in
  Metrics.inc c';
  Alcotest.(check int) "one shared counter" 2 (Metrics.counter_value c);
  (* kind mismatch raises *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Metrics: \"requests_total\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge reg "requests_total"));
  Alcotest.(check bool) "negative add raises" true
    (try
       Metrics.add c (-1);
       false
     with Invalid_argument _ -> true);
  let g = Metrics.gauge reg "depth" in
  Metrics.set_gauge g 3.0;
  Metrics.add_gauge g (-1.0);
  Alcotest.(check (float 1e-9)) "gauge arithmetic" 2.0 (Metrics.gauge_value g);
  let text = Metrics.expose reg in
  Alcotest.(check bool) "exposition carries HELP" true
    (let re = "# HELP requests_total a counter" in
     let rec contains i =
       i + String.length re <= String.length text
       && (String.sub text i (String.length re) = re || contains (i + 1))
     in
     contains 0);
  Alcotest.(check (list string)) "names sorted"
    [ "depth"; "requests_total" ] (Metrics.names reg)

(* ------------------------------------------------------------------ *)
(* Chrome-trace export                                                  *)
(* ------------------------------------------------------------------ *)

let gen_event =
  QCheck.Gen.(
    let name = string_size ~gen:printable (int_range 1 12) in
    let arg =
      oneof
        [
          map (fun i -> Trace.Int (Int64.of_int i)) int;
          map (fun f -> Trace.Float (f *. 1e6)) (float_bound_inclusive 1.0);
          map (fun s -> Trace.Str s) (string_size ~gen:printable (int_bound 8));
        ]
    in
    let phase =
      oneofl [ Trace.Span_begin; Trace.Span_end; Trace.Instant; Trace.Counter ]
    in
    map
      (fun (name, ph, cycles, args) ->
        { Trace.name; cat = "test"; ph; cycles = Int64.of_int cycles;
          wall_us = 0.0; args })
      (quad name phase nat (list_size (int_bound 3) (pair name arg))))

let test_chrome_roundtrip () =
  QCheck.Test.make ~count:100
    ~name:"chrome export is valid JSON and round-trips event names"
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) gen_event))
    (fun events ->
      let text = Export.chrome_json events in
      match Export.parse_json text with
      | Error e -> QCheck.Test.fail_reportf "invalid JSON: %s" e
      | Ok json -> (
          match Export.member "traceEvents" json with
          | Some (Export.Arr items) ->
              let names =
                List.map
                  (fun item ->
                    match Export.member "name" item with
                    | Some (Export.Jstr s) -> s
                    | _ -> QCheck.Test.fail_report "event without a name")
                  items
              in
              names = List.map (fun (e : Trace.event) -> e.Trace.name) events
          | _ -> QCheck.Test.fail_report "no traceEvents array"))

(* args — including non-finite floats and multibyte UTF-8 — survive the
   export → parse round trip: nan/±inf become null (JSON has no tokens
   for them), every valid UTF-8 string comes back byte-identical *)

let utf8_fragments =
  [ "a"; "Z"; "0"; " "; "\""; "\\"; "/"; "\n"; "\t"; "\r"; "\x01"; "\x1f";
    "\xc3\xa9" (* é *); "\xc3\x9f" (* ß *); "\xe6\x97\xa5" (* 日 *);
    "\xe2\x82\xac" (* € *); "\xf0\x9f\x9a\x80" (* 🚀 *);
    "\xf0\x9d\x84\x9e" (* 𝄞, needs a surrogate pair in \u form *);
    "\xef\xbf\xbd" (* U+FFFD itself *) ]

let gen_utf8 =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 6) (oneofl utf8_fragments)))

let gen_arg_value =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Trace.Int (Int64.of_int i)) int;
        map (fun f -> Trace.Float f) float;
        oneofl
          [ Trace.Float Float.nan; Trace.Float Float.infinity;
            Trace.Float Float.neg_infinity; Trace.Float Float.max_float;
            Trace.Float (-0.0) ];
        map (fun s -> Trace.Str s) gen_utf8;
      ])

let gen_arg_event =
  QCheck.Gen.(
    map
      (fun (name, args) ->
        { Trace.name; cat = "test"; ph = Trace.Instant; cycles = 7L;
          wall_us = 0.0 (* 0 so no wall_us arg is appended *); args })
      (pair gen_utf8
         (list_size (int_bound 4)
            (map2 (fun k v -> (k, v)) gen_utf8 gen_arg_value))))

let arg_matches expected (parsed : Export.json) =
  match (expected, parsed) with
  | Trace.Int i, Export.Num f -> f = Int64.to_float i
  | Trace.Float f, Export.Null -> not (Float.is_finite f)
  | Trace.Float f, Export.Num p ->
      (* json_float prints %.6f / %.0f, so equality is up to that *)
      Float.is_finite f && Float.abs (p -. f) <= 1e-6 +. (1e-9 *. Float.abs f)
  | Trace.Str s, Export.Jstr p -> String.equal s p
  | _ -> false

let test_chrome_args_roundtrip () =
  QCheck.Test.make ~count:200
    ~name:"chrome export round-trips args (nan/inf -> null, UTF-8 intact)"
    (QCheck.make QCheck.Gen.(list_size (int_bound 20) gen_arg_event))
    (fun events ->
      let text = Export.chrome_json events in
      match Export.parse_json text with
      | Error e -> QCheck.Test.fail_reportf "invalid JSON: %s" e
      | Ok json -> (
          match Export.member "traceEvents" json with
          | Some (Export.Arr items) ->
              List.length items = List.length events
              && List.for_all2
                   (fun (e : Trace.event) item ->
                     (match Export.member "name" item with
                      | Some (Export.Jstr s) -> String.equal s e.Trace.name
                      | _ -> false)
                     &&
                     let parsed_args =
                       match Export.member "args" item with
                       | Some (Export.Obj fields) -> fields
                       | None -> []
                       | Some _ -> [ ("", Export.Bool false) ]
                     in
                     List.length parsed_args = List.length e.Trace.args
                     && List.for_all2
                          (fun (k, v) (pk, pv) ->
                            String.equal k pk && arg_matches v pv)
                          e.Trace.args parsed_args)
                   events items
          | _ -> QCheck.Test.fail_report "no traceEvents array"))

let test_export_invalid_utf8 () =
  (* invalid bytes become U+FFFD, never invalid JSON *)
  let e =
    { Trace.name = "bad\xffname"; cat = "test"; ph = Trace.Instant;
      cycles = 0L; wall_us = 0.0; args = [ ("k", Trace.Str "\xc3") ] }
  in
  let text = Export.chrome_json [ e ] in
  match Export.parse_json text with
  | Error err -> Alcotest.failf "export of invalid UTF-8 unparsable: %s" err
  | Ok json -> (
      match Export.member "traceEvents" json with
      | Some (Export.Arr [ item ]) ->
          (match Export.member "name" item with
          | Some (Export.Jstr s) ->
              Alcotest.(check string) "byte replaced" "bad\xef\xbf\xbdname" s
          | _ -> Alcotest.fail "no name");
          (match Export.member "args" item with
          | Some (Export.Obj [ ("k", Export.Jstr s) ]) ->
              Alcotest.(check string) "truncated seq replaced" "\xef\xbf\xbd" s
          | _ -> Alcotest.fail "no args")
      | _ -> Alcotest.fail "no traceEvents")

let test_metrics_nonfinite_exposition () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "weird" in
  Metrics.set_gauge g Float.nan;
  let text = Metrics.expose reg in
  let mentions s =
    let rec go i =
      i + String.length s <= String.length text
      && (String.sub text i (String.length s) = s || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "NaN uses the Prometheus spelling" true
    (mentions "weird NaN");
  Metrics.set_gauge g Float.infinity;
  Alcotest.(check bool) "+Inf uses the Prometheus spelling" true
    (let text = Metrics.expose reg in
     let rec go i =
       i + 9 <= String.length text
       && (String.sub text i 9 = "weird +In" || go (i + 1))
     in
     go 0)

(* ------------------------------------------------------------------ *)
(* Domain safety                                                        *)
(* ------------------------------------------------------------------ *)

(* N domains hammer one registry and emit into their own per-domain
   rings; nothing is lost, and the canonical merged stream is identical
   across runs — the determinism oracle holds under parallelism *)
let test_domain_stress () =
  let domains = 4 and per_domain = 250 in
  let run () =
    with_trace @@ fun () ->
    let reg = Metrics.create () in
    let workers =
      Array.init domains (fun d ->
          Domain.spawn (fun () ->
              let c = Metrics.counter reg "hits_total" in
              let h = Metrics.histogram reg "lat" in
              for i = 0 to per_domain - 1 do
                Metrics.inc c;
                Metrics.observe h (float_of_int i);
                Trace.instant
                  ~cycles:(Int64.of_int ((d * 100_000) + i))
                  ~cat:"stress"
                  (Printf.sprintf "d%d_i%d" d i)
              done))
    in
    Array.iter Domain.join workers;
    ( Metrics.counter_value (Metrics.counter reg "hits_total"),
      Metrics.histogram_count (Metrics.histogram reg "lat"),
      Trace.length (),
      Trace.ring_count (),
      Trace.to_canonical_string () )
  in
  let hits1, lat1, len1, rings1, stream1 = run () in
  let hits2, _, _, _, stream2 = run () in
  Alcotest.(check int) "no lost counter increments" (domains * per_domain) hits1;
  Alcotest.(check int) "no lost observations" (domains * per_domain) lat1;
  Alcotest.(check int) "no lost trace events" (domains * per_domain) len1;
  Alcotest.(check bool) "one ring per emitting domain" true (rings1 >= domains);
  Alcotest.(check int) "same totals across runs" hits1 hits2;
  Alcotest.(check string) "deterministic merged stream" stream1 stream2

(* ------------------------------------------------------------------ *)
(* Engine integration                                                   *)
(* ------------------------------------------------------------------ *)

let run_traced ~invocations program =
  Trace.reset ();
  let engine = Engine.create program in
  let outcomes =
    List.init invocations (fun k ->
        Engine.invoke_entry engine (Helpers.entry_args k))
  in
  (outcomes, engine, Trace.to_canonical_string ())

let test_engine_trace_determinism () =
  with_trace @@ fun () ->
  let program = Helpers.gen_program 11L in
  let out1, _, trace1 = run_traced ~invocations:6 program in
  let out2, _, trace2 = run_traced ~invocations:6 program in
  Alcotest.(check (list Helpers.outcome_testable))
    "identical outcomes" out1 out2;
  Alcotest.(check bool) "trace is non-trivial" true
    (String.length trace1 > 0);
  Alcotest.(check string) "byte-identical canonical traces" trace1 trace2

let test_engine_trace_content () =
  with_trace @@ fun () ->
  let program = Helpers.gen_program 11L in
  let _, _, _ = run_traced ~invocations:6 program in
  let events = Trace.events () in
  let count ph name =
    List.length
      (List.filter
         (fun (e : Trace.event) -> e.Trace.ph = ph && e.Trace.name = name)
         events)
  in
  let begins = count Trace.Span_begin "compile" in
  Alcotest.(check bool) "compile spans present" true (begins > 0);
  Alcotest.(check int) "spans balanced" begins (count Trace.Span_end "compile");
  Alcotest.(check bool) "installs traced" true (count Trace.Instant "install" > 0);
  Alcotest.(check bool) "queue-depth track sampled" true
    (count Trace.Counter "compile_queue_depth" > 0);
  (* compile spans carry the method and level *)
  let has_key k (e : Trace.event) = List.mem_assoc k e.Trace.args in
  Alcotest.(check bool) "compile spans carry meth+level" true
    (List.for_all
       (fun (e : Trace.event) ->
         e.Trace.name <> "compile"
         || e.Trace.ph <> Trace.Span_begin
         || (has_key "meth" e && has_key "level" e))
       events)

let test_engine_metrics_view () =
  let program = Helpers.gen_program 11L in
  let engine = Engine.create program in
  for k = 0 to 5 do
    ignore (Engine.invoke_entry engine (Helpers.entry_args k))
  done;
  let reg = Engine.metrics engine in
  let value name = Metrics.counter_value (Metrics.counter reg name) in
  Alcotest.(check int) "compilations counter backs compile_count"
    (Engine.compile_count engine) (value "jit_compilations_total");
  Alcotest.(check int) "per-level counters sum to the total"
    (Engine.compile_count engine)
    (List.fold_left (fun acc (_, n) -> acc + n) 0
       (Engine.compiles_by_level engine));
  Alcotest.(check int) "histogram count equals compilations"
    (Engine.compile_count engine)
    (Metrics.histogram_count (Metrics.histogram reg "jit_compilation_cycles"));
  Alcotest.(check bool) "exposition mentions the JIT" true
    (String.length (Metrics.expose reg) > 0
    && value "jit_compilations_total" > 0)

(* ------------------------------------------------------------------ *)
(* Protocol stats                                                       *)
(* ------------------------------------------------------------------ *)

let test_server_stats () =
  let server_ch, client_ch = Channel.pipe_pair () in
  let server =
    Serve.create
      ~make_predictor:(fun _ ~level:_ rows ->
        Array.map (fun _ -> Modifier.null) rows)
      ()
  in
  let lockstep = Serve.lockstep server server_ch in
  let client = Client.connect ~model_name:"test" ~lockstep client_ch in
  ignore (Client.predict client ~level:Plan.Cold ~features:[| 1.0 |]);
  let stats, requests_traced =
    with_trace @@ fun () ->
    let stats = Client.stats client in
    ( stats,
      List.exists
        (fun (e : Trace.event) ->
          e.Trace.cat = "protocol" && e.Trace.name = "stats_request")
        (Trace.events ()) )
  in
  Alcotest.(check bool) "stats request traced" true requests_traced;
  match stats with
  | None -> Alcotest.fail "stats round trip failed"
  | Some text ->
      let mentions s =
        let rec go i =
          i + String.length s <= String.length text
          && (String.sub text i (String.length s) = s || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "server counts connections" true
        (mentions "serve_accepted_total");
      Alcotest.(check bool) "server counts predictions" true
        (mentions "serve_predictions_total")

(* ------------------------------------------------------------------ *)
(* Log                                                                  *)
(* ------------------------------------------------------------------ *)

let test_log_levels () =
  let seen = ref [] in
  Log.set_sink (fun level msg -> seen := (level, msg) :: !seen);
  Fun.protect
    ~finally:(fun () ->
      Log.reset_sink ();
      Log.set_level Log.Info)
    (fun () ->
      Log.set_level Log.Info;
      Log.debug "hidden";
      Log.info "shown";
      Log.warn "loud";
      Alcotest.(check int) "threshold filters debug" 2 (List.length !seen);
      Log.set_level Log.Debug;
      Log.debug "now visible";
      Alcotest.(check int) "debug passes at Debug" 3 (List.length !seen);
      (* mirroring puts log lines on the trace timeline *)
      with_trace @@ fun () ->
      Log.mirror_to_trace := true;
      Fun.protect
        ~finally:(fun () -> Log.mirror_to_trace := false)
        (fun () ->
          Log.warn "traced";
          let evs = Trace.events () in
          Alcotest.(check bool) "mirrored into trace" true
            (List.exists
               (fun (e : Trace.event) ->
                 e.Trace.cat = "log" && e.Trace.name = "traced")
               evs)))

(* ------------------------------------------------------------------ *)
(* Prometheus text-format escaping                                      *)
(* ------------------------------------------------------------------ *)

(* the inverse of the exposition escaping, written independently here:
   escape must round-trip any string and never leak a raw newline (which
   would split the exposition mid-line) or, for label values, a raw
   double quote (which would end the label early) *)
let unescape s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | '\\' -> Buffer.add_char buf '\\'
       | '"' -> Buffer.add_char buf '"'
       | c ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf c);
       i := !i + 2
     end
     else begin
       Buffer.add_char buf s.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

let test_metrics_escaping_roundtrip () =
  QCheck.Test.make ~count:300
    ~name:"exposition escaping round-trips and never leaks raw breaks"
    QCheck.(string_gen (QCheck.Gen.oneofl [ 'a'; 'z'; '\\'; '\n'; '"'; ' '; 'x' ]))
    (fun s ->
      let h = Metrics.escape_help s in
      let l = Metrics.escape_label_value s in
      if String.contains h '\n' then
        QCheck.Test.fail_report "escaped HELP contains a raw newline";
      if String.contains l '\n' then
        QCheck.Test.fail_report "escaped label contains a raw newline";
      (* an unescaped quote in a label value ends the label early *)
      let rec quote_unescaped i =
        match String.index_from_opt l i '"' with
        | None -> false
        | Some j ->
            let rec backslashes k n =
              if k >= 0 && l.[k] = '\\' then backslashes (k - 1) (n + 1) else n
            in
            if backslashes (j - 1) 0 mod 2 = 0 then true
            else quote_unescaped (j + 1)
      in
      if quote_unescaped 0 then
        QCheck.Test.fail_report "escaped label leaks a raw double quote";
      String.equal (unescape h) s && String.equal (unescape l) s)

let test_metrics_escaped_exposition () =
  let r = Metrics.create () in
  let evil = "line one\nline two \\ \"quoted\"" in
  ignore (Metrics.counter r ~help:evil "evil_total");
  let text = Metrics.expose r in
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int) "one HELP, one TYPE, one sample" 3 (List.length lines);
  List.iter
    (fun line ->
      Alcotest.(check bool) "every line is a comment or a sample" true
        (String.length line > 0
        && (line.[0] = '#' || String.length line >= 4
            && String.sub line 0 4 = "evil")))
    lines

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      test_ring_bounds (); test_histogram_sums (); test_chrome_roundtrip ();
      test_chrome_args_roundtrip (); test_metrics_escaping_roundtrip ();
    ]
  @ [
      Alcotest.test_case "export: invalid UTF-8 becomes U+FFFD" `Quick
        test_export_invalid_utf8;
      Alcotest.test_case "metrics: non-finite exposition spellings" `Quick
        test_metrics_nonfinite_exposition;
      Alcotest.test_case "metrics: evil HELP text stays line-structured"
        `Quick test_metrics_escaped_exposition;
      Alcotest.test_case "domains: shared registry + merged rings" `Quick
        test_domain_stress;
      Alcotest.test_case "disabled tracing emits nothing" `Quick
        test_disabled_emits_nothing;
      Alcotest.test_case "registry: idempotent, kind-checked, exposed" `Quick
        test_registry_registration;
      Alcotest.test_case "engine: same seed, byte-identical trace" `Quick
        test_engine_trace_determinism;
      Alcotest.test_case "engine: trace carries spans, installs, queue depth"
        `Quick test_engine_trace_content;
      Alcotest.test_case "engine: accessors read the registry" `Quick
        test_engine_metrics_view;
      Alcotest.test_case "protocol: Stats_req answers with the exposition"
        `Quick test_server_stats;
      Alcotest.test_case "log: thresholds and trace mirroring" `Quick
        test_log_levels;
    ]

(* ------------------------------------------------------------------ *)
(* Exact quantiles                                                     *)
(* ------------------------------------------------------------------ *)

let test_metrics_quantile () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "q_seconds" in
  Alcotest.(check bool) "empty histogram quantile is nan" true
    (Float.is_nan (Metrics.quantile h 0.5));
  Alcotest.check_raises "q out of range rejected"
    (Invalid_argument "Metrics.quantile") (fun () ->
      ignore (Metrics.quantile h 1.5));
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 6.0 ];
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "p50 interpolates inside the second bucket" true
    (p50 >= 1.0 && p50 <= 2.0);
  Alcotest.(check bool) "quantile is monotone in q" true
    (Metrics.quantile h 0.25 <= Metrics.quantile h 0.75
    && Metrics.quantile h 0.75 <= Metrics.quantile h 1.0);
  Alcotest.(check (float 1e-9)) "p100 is the top bucket edge" 8.0
    (Metrics.quantile h 1.0);
  (* an observation past every finite bound lands in the +Inf bucket
     and reports the largest finite bound, never infinity *)
  Metrics.observe h 1000.0;
  Alcotest.(check (float 1e-9)) "overflow clamps to largest finite bound" 8.0
    (Metrics.quantile h 1.0);
  Alcotest.(check int) "count_le sees the finite buckets" 4
    (Metrics.count_le h 8.0);
  Alcotest.(check int) "count_le at an inner bound" 2 (Metrics.count_le h 2.0);
  Alcotest.(check int) "count_le below every bound" 0 (Metrics.count_le h 0.5);
  Alcotest.(check int) "count_le at infinity sees everything" 5
    (Metrics.count_le h infinity)

(* ------------------------------------------------------------------ *)
(* Sampling profiler                                                   *)
(* ------------------------------------------------------------------ *)

module Profile = Tessera_obs.Profile

let with_profile ?period ?max_sites f =
  Profile.enable ?period ?max_sites ();
  Fun.protect
    ~finally:(fun () ->
      Profile.disable ();
      Profile.reset ())
    f

let test_profile_weights () =
  with_profile ~period:100 (fun () ->
      (* one coarse cost crossing three period boundaries carries
         weight 3, so samples × period accounts for every cycle *)
      Profile.charge ~meth:"m" ~block:0 ~op:"add" 300;
      Alcotest.(check int) "weight k for k periods" 3
        (Profile.total_samples ());
      Profile.charge ~meth:"m" ~block:0 ~op:"add" 99;
      Alcotest.(check int) "no boundary, no sample" 3
        (Profile.total_samples ());
      Profile.charge ~meth:"m" ~block:1 ~op:"mul" 1;
      Alcotest.(check int) "boundary crossing fires once" 4
        (Profile.total_samples ());
      Alcotest.(check int) "two sites" 2 (Profile.site_count ());
      Alcotest.(check (list string)) "flame lines in canonical order"
        [ "m;block_0;add 3"; "m;block_1;mul 1" ]
        (Profile.flame_lines ());
      Alcotest.(check (list (pair string int))) "hot methods aggregate"
        [ ("m", 4) ]
        (Profile.hot_methods ());
      Alcotest.(check (list (pair string int))) "hot ops rank hottest first"
        [ ("add", 3); ("mul", 1) ]
        (Profile.hot_ops ()))

let test_profile_determinism_and_bounds () =
  let charge_sequence () =
    for i = 0 to 199 do
      Profile.charge
        ~meth:(Printf.sprintf "m%d" (i mod 5))
        ~block:(i mod 3)
        ~op:(if i mod 2 = 0 then "load" else "store")
        (17 + (i mod 7))
    done
  in
  let capture () =
    with_profile ~period:64 (fun () ->
        charge_sequence ();
        (match Export.parse_json (Profile.to_json ()) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "profile JSON unparseable: %s" e);
        Profile.to_canonical_string ())
  in
  let canon1 = capture () in
  let canon2 = capture () in
  Alcotest.(check string) "identical charges, byte-identical profile" canon1
    canon2;
  Alcotest.(check bool) "profile is non-empty" true (String.length canon1 > 0);
  (* bounded site table: overflow weight is counted, never silently lost *)
  with_profile ~period:1 ~max_sites:2 (fun () ->
      Profile.charge ~meth:"a" ~block:0 ~op:"x" 1;
      Profile.charge ~meth:"b" ~block:0 ~op:"x" 1;
      Profile.charge ~meth:"c" ~block:0 ~op:"x" 1;
      Alcotest.(check int) "site table bounded" 2 (Profile.site_count ());
      Alcotest.(check int) "overflow counted as dropped" 1
        (Profile.dropped_samples ());
      Alcotest.(check int) "retained weight" 2 (Profile.total_samples ()));
  Alcotest.check_raises "non-positive period rejected"
    (Invalid_argument "Profile.enable: period must be positive") (fun () ->
      Profile.enable ~period:0 ())

let suite =
  suite
  @ [
      Alcotest.test_case "metrics: exact quantiles and count_le" `Quick
        test_metrics_quantile;
      Alcotest.test_case "profile: period weights and rankings" `Quick
        test_profile_weights;
      Alcotest.test_case "profile: determinism and bounded table" `Quick
        test_profile_determinism_and_bounds;
    ]
