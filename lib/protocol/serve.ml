module Metrics = Tessera_obs.Metrics
module Trace = Tessera_obs.Trace
module Plan = Tessera_opt.Plan
module Modifier = Tessera_modifiers.Modifier

type batch_predictor =
  level:Plan.level -> float array array -> Modifier.t array

type config = {
  max_conns : int;
  per_conn_queue : int;
  queue_hwm : int;
  max_batch : int;
  max_protocol_errors : int;
  resync_budget : int;
  drain_deadline_s : float;
  workers : int;
  now : unit -> float;
  stats : unit -> string;
  slo_objective_s : float;
  slo_target : float;
  slo_window : int;
}

let default_config =
  {
    max_conns = 4096;
    per_conn_queue = 8;
    queue_hwm = 1024;
    max_batch = 64;
    max_protocol_errors = 16;
    resync_budget = 4096;
    drain_deadline_s = 5.0;
    now = Unix.gettimeofday;
    workers = 2;
    stats = (fun () -> Metrics.expose Metrics.default);
    slo_objective_s = 0.01;
    slo_target = 0.99;
    slo_window = 256;
  }

type counters = {
  mutable accepted : int;
  mutable refused : int;
  mutable conns_closed : int;
  mutable requests : int;
  mutable predictions : int;
  mutable shed : int;
  mutable errors : int;
  mutable strikes : int;
  mutable struck_out : int;
  mutable dropped : int;  (* queued requests whose connection died *)
  mutable worker_restarts : int;
}

let fresh_counters () =
  {
    accepted = 0;
    refused = 0;
    conns_closed = 0;
    requests = 0;
    predictions = 0;
    shed = 0;
    errors = 0;
    strikes = 0;
    struck_out = 0;
    dropped = 0;
    worker_restarts = 0;
  }

let pp_counters fmt c =
  Format.fprintf fmt
    "accepted=%d refused=%d closed=%d requests=%d predictions=%d shed=%d \
     errors=%d strikes=%d struck_out=%d dropped=%d worker_restarts=%d"
    c.accepted c.refused c.conns_closed c.requests c.predictions c.shed
    c.errors c.strikes c.struck_out c.dropped c.worker_restarts

type pending = {
  p_conn : Conn.t;
  p_level : Plan.level;
  p_features : float array;
  p_t : float;
  p_trace : Tracectx.t;  (* client trace context; none = untraced *)
}

type worker = { wid : int; mutable predict : batch_predictor }

(* process-wide serving metrics; idempotent registration means several
   engines in one process (tests, the in-process bench fleet) share
   them *)
let latency_buckets = [| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 |]

let m_conns =
  lazy
    (Metrics.gauge Metrics.default ~help:"open serving connections"
       "serve_connections")

let m_queue =
  lazy
    (Metrics.gauge Metrics.default ~help:"requests queued for prediction"
       "serve_queue_depth")

let m_counter =
  let make name help =
    lazy (Metrics.counter Metrics.default ~help name)
  in
  [|
    make "serve_accepted_total" "connections accepted";
    make "serve_shed_total" "requests answered Overloaded (load shed)";
    make "serve_predictions_total" "predictions answered by the serving engine";
    make "serve_strikes_total" "per-connection protocol errors";
    make "serve_struck_out_total" "connections closed over the error cap";
    make "serve_worker_restarts_total" "prediction workers restarted";
    make "serve_drains_total" "graceful drains started";
  |]

let bump i = Metrics.inc (Lazy.force m_counter.(i))

let m_latency =
  lazy
    (Metrics.histogram Metrics.default ~buckets:latency_buckets
       ~help:"request-to-reply latency in seconds" "serve_latency_seconds")

let m_slo_burn =
  lazy
    (Metrics.gauge Metrics.default
       ~help:
         "rolling SLO error-budget burn rate (1.0 = burning exactly the \
          declared budget)"
       "serve_slo_burn_rate")

let m_slo_objective =
  lazy
    (Metrics.gauge Metrics.default ~help:"declared latency objective in seconds"
       "serve_slo_objective_seconds")

let trace name =
  if !Trace.enabled then Trace.instant ~cat:"serve" name

type t = {
  cfg : config;
  make_predictor : int -> batch_predictor;
  workers : worker array;
  mutable rr : int;
  mutable conns : Conn.t list;  (* accept order *)
  mutable next_id : int;
  queue : pending Queue.t;
  mutable qlen : int;
  mutable draining : bool;
  c : counters;
  (* the engine's virtual clock: advanced once per tick and once per
     request-span emission, so span stamps are a pure function of the
     scheduling sequence — deterministic traces without wall time *)
  mutable vcycles : int64;
  (* SLO monitor: a ring of (count, count<=objective) latency-histogram
     snapshots, one per tick; burn rate is the windowed error fraction
     over the declared error budget *)
  slo_ring : (int * int) array;
  mutable slo_pos : int;
  mutable slo_len : int;
  mutable slo_burn : float;
}

let bump_clock t =
  t.vcycles <- Int64.add t.vcycles 1L;
  t.vcycles

(* one child span event of a traced request, stamped on the engine's
   virtual clock and parented under the client's root span; the trace id
   doubles as the Chrome/Perfetto [tid] so every request renders as its
   own track *)
let req_span t ph name (ctx : Tracectx.t) =
  if !Trace.enabled && not (Tracectx.is_none ctx) then
    Trace.emit ~cycles:(bump_clock t)
      ~args:
        [
          ("trace", Trace.Int (Int64.of_int ctx.trace_id));
          ("parent", Trace.Int (Int64.of_int ctx.span_id));
          ("tid", Trace.Int (Int64.of_int ctx.trace_id));
        ]
      ~cat:"serve" ph name

let create ?(config = default_config) ~make_predictor () =
  Metrics.set_gauge (Lazy.force m_slo_objective) config.slo_objective_s;
  {
    cfg = config;
    make_predictor;
    workers =
      Array.init (max 1 config.workers) (fun i ->
          { wid = i; predict = make_predictor i });
    rr = 0;
    conns = [];
    next_id = 0;
    queue = Queue.create ();
    qlen = 0;
    draining = false;
    c = fresh_counters ();
    vcycles = 0L;
    slo_ring = Array.make (max 2 config.slo_window) (0, 0);
    slo_pos = 0;
    slo_len = 0;
    slo_burn = 0.0;
  }

let counters t = t.c
let queue_depth t = t.qlen
let draining t = t.draining
let vcycles t = t.vcycles
let slo_burn_rate t = t.slo_burn

let update_slo t =
  let h = Lazy.force m_latency in
  let total = Metrics.histogram_count h in
  let ok = Metrics.count_le h t.cfg.slo_objective_s in
  let n = Array.length t.slo_ring in
  t.slo_ring.(t.slo_pos) <- (total, ok);
  t.slo_pos <- (t.slo_pos + 1) mod n;
  if t.slo_len < n then t.slo_len <- t.slo_len + 1;
  let o_total, o_ok = t.slo_ring.((t.slo_pos - t.slo_len + n) mod n) in
  let d_total = total - o_total and d_ok = ok - o_ok in
  let burn =
    if d_total <= 0 then 0.0
    else
      let err = float_of_int (d_total - d_ok) /. float_of_int d_total in
      err /. Float.max 1e-9 (1.0 -. t.cfg.slo_target)
  in
  t.slo_burn <- burn;
  Metrics.set_gauge (Lazy.force m_slo_burn) burn

let connections t =
  List.filter (fun c -> Conn.state c <> Conn.Closed) t.conns

let connection_count t = List.length (connections t)

let note_closed t =
  t.c.conns_closed <- t.c.conns_closed + 1;
  trace "conn_close"

let close_conn t conn =
  if Conn.state conn <> Conn.Closed then begin
    Conn.close conn;
    note_closed t
  end

let accept t ch =
  if t.draining || connection_count t >= t.cfg.max_conns then begin
    t.c.refused <- t.c.refused + 1;
    (* answer, don't vanish: the client's breaker sees a clean refusal *)
    (try Message.send ch Message.Overloaded with _ -> ());
    (try Channel.close ch with _ -> ());
    None
  end
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let conn = Conn.create ~resync_budget:t.cfg.resync_budget ~id ch in
    t.conns <- t.conns @ [ conn ];
    t.c.accepted <- t.c.accepted + 1;
    bump 0;
    trace "conn_open";
    Some conn
  end

let shed t conn =
  t.c.shed <- t.c.shed + 1;
  Conn.note_shed conn;
  bump 1;
  trace "shed";
  Conn.send conn Message.Overloaded

let strike t conn =
  t.c.strikes <- t.c.strikes + 1;
  bump 3;
  if Conn.strikes conn > t.cfg.max_protocol_errors then begin
    t.c.struck_out <- t.c.struck_out + 1;
    bump 4;
    trace "struck_out";
    Conn.send conn (Message.Error_msg "protocol error budget exhausted");
    close_conn t conn
  end

let note_semantic_strike t conn =
  (* a well-formed but contextually wrong frame costs a strike, exactly
     like a malformed one: answering Error_msg forever to a looping
     byzantine peer is an unbounded obligation *)
  Conn.note_strike conn;
  Conn.send conn (Message.Error_msg "unexpected client->server message");
  strike t conn

let handle_msg t conn (m : Message.t) =
  t.c.requests <- t.c.requests + 1;
  match m with
  | Message.Init _ -> Conn.send conn Message.Init_ok
  | Message.Ping -> Conn.send conn Message.Pong
  | Message.Stats_req -> (
      if !Trace.enabled then Trace.instant ~cat:"protocol" "stats_request";
      match t.cfg.stats () with
      | s -> Conn.send conn (Message.Stats_text s)
      | exception e ->
          t.c.errors <- t.c.errors + 1;
          Conn.send conn (Message.Error_msg (Printexc.to_string e)))
  | Message.Shutdown ->
      (* per-connection goodbye: queued requests still get answers, then
         the connection closes; other clients are unaffected *)
      Conn.start_draining conn;
      if Conn.queued conn = 0 then close_conn t conn
  | Message.Predict { level; features; trace } ->
      if Conn.state conn = Conn.Draining then note_semantic_strike t conn
      else if t.draining || t.qlen >= t.cfg.queue_hwm
              || Conn.queued conn >= t.cfg.per_conn_queue then shed t conn
      else begin
        Queue.add
          { p_conn = conn; p_level = level; p_features = features;
            p_t = t.cfg.now (); p_trace = trace }
          t.queue;
        t.qlen <- t.qlen + 1;
        Conn.set_queued conn (Conn.queued conn + 1);
        req_span t Trace.Span_begin "queue_wait" trace
      end
  | Message.Init_ok | Message.Pong | Message.Prediction _
  | Message.Error_msg _ | Message.Stats_text _ | Message.Overloaded ->
      note_semantic_strike t conn

(* supervised batch prediction: a worker that throws is restarted from
   the factory and the batch retried once on the fresh instance; only a
   second failure turns into per-request error replies.  Other
   connections never notice. *)
let supervised t worker ~level feats =
  match worker.predict ~level feats with
  | r -> Ok r
  | exception _ ->
      t.c.worker_restarts <- t.c.worker_restarts + 1;
      bump 5;
      trace "worker_restart";
      worker.predict <- t.make_predictor worker.wid;
      (match worker.predict ~level feats with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e))

let dispatch_batch t =
  (* pull up to max_batch live requests off the global queue *)
  let batch = ref [] in
  while List.length !batch < t.cfg.max_batch && not (Queue.is_empty t.queue) do
    let p = Queue.pop t.queue in
    t.qlen <- t.qlen - 1;
    Conn.set_queued p.p_conn (Conn.queued p.p_conn - 1);
    req_span t Trace.Span_end "queue_wait" p.p_trace;
    if Conn.state p.p_conn = Conn.Closed then begin
      t.c.dropped <- t.c.dropped + 1;
      req_span t Trace.Instant "request_dropped" p.p_trace
    end
    else begin
      batch := p :: !batch;
      (* batch_wait: from leaving the queue to the worker call of the
         request's level group *)
      req_span t Trace.Span_begin "batch_wait" p.p_trace
    end
  done;
  let batch = List.rev !batch in
  if batch = [] then 0
  else begin
    let worker = t.workers.(t.rr mod Array.length t.workers) in
    t.rr <- t.rr + 1;
    (* group by level so each SVM model is looked up once per batch *)
    List.iter
      (fun level ->
        let group =
          List.filter (fun p -> p.p_level = level) batch
        in
        if group <> [] then begin
          let feats =
            Array.of_list (List.map (fun p -> p.p_features) group)
          in
          List.iter
            (fun p ->
              req_span t Trace.Span_end "batch_wait" p.p_trace;
              req_span t Trace.Span_begin "predict" p.p_trace)
            group;
          match supervised t worker ~level feats with
          | Ok modifiers ->
              List.iteri
                (fun i p ->
                  t.c.predictions <- t.c.predictions + 1;
                  bump 2;
                  Conn.note_served p.p_conn;
                  Metrics.observe (Lazy.force m_latency)
                    (t.cfg.now () -. p.p_t);
                  req_span t Trace.Span_end "predict" p.p_trace;
                  req_span t Trace.Span_begin "reply" p.p_trace;
                  Conn.send p.p_conn
                    (Message.Prediction
                       { modifier = modifiers.(i); trace = p.p_trace });
                  req_span t Trace.Span_end "reply" p.p_trace)
                group
          | Error why ->
              List.iter
                (fun p ->
                  t.c.errors <- t.c.errors + 1;
                  req_span t Trace.Span_end "predict" p.p_trace;
                  req_span t Trace.Span_begin "reply" p.p_trace;
                  Conn.send p.p_conn (Message.Error_msg why);
                  req_span t Trace.Span_end "reply" p.p_trace)
                group
        end)
      (Array.to_list Plan.levels);
    List.length batch
  end

let finalize_conns t =
  List.iter
    (fun conn ->
      if Conn.state conn = Conn.Draining && Conn.queued conn = 0 then
        close_conn t conn)
    t.conns;
  (* compact the roster once closed connections pile up *)
  if List.exists (fun c -> Conn.state c = Conn.Closed) t.conns then
    t.conns <- List.filter (fun c -> Conn.state c <> Conn.Closed) t.conns

let tick t =
  t.vcycles <- Int64.add t.vcycles 1L;
  let progress = ref 0 in
  (* 1. pump: read and decode from every connection that has queue room.
     A connection at its per-connection bound is simply not read — true
     backpressure; its bytes wait in the transport. *)
  if not t.draining then
    List.iter
      (fun conn ->
        if Conn.state conn = Conn.Active
           && Conn.queued conn < t.cfg.per_conn_queue then
          (* the frame cap is the connection's queue room: frames past
             it stay buffered rather than decoded-and-shed, so a peer
             that batches its sends is backpressured, not punished *)
          List.iter
            (fun ev ->
              incr progress;
              match ev with
              | Conn.Msg m -> handle_msg t conn m
              | Conn.Strike _ -> strike t conn
              | Conn.Eof ->
                  (* pump closes the Conn itself before emitting Eof, so
                     close_conn's idempotence check would skip the
                     bookkeeping — count the retirement here *)
                  if Conn.state conn = Conn.Closed then note_closed t
                  else close_conn t conn)
            (Conn.pump
               ~max_frames:(t.cfg.per_conn_queue - Conn.queued conn)
               conn))
      t.conns;
  (* 2. dispatch one batch per worker per tick: bounded work, so the
     loop stays responsive and the queue length is a real signal *)
  let batches = ref 0 in
  while !batches < Array.length t.workers && t.qlen > 0 do
    progress := !progress + dispatch_batch t;
    incr batches
  done;
  finalize_conns t;
  Metrics.set_gauge (Lazy.force m_conns) (float_of_int (connection_count t));
  Metrics.set_gauge (Lazy.force m_queue) (float_of_int t.qlen);
  update_slo t;
  !progress

let drain t =
  if not t.draining then begin
    t.draining <- true;
    bump 6;
    trace "drain_begin"
  end

let drained t = t.qlen = 0

let finish_drain ?deadline_s t =
  let deadline_s =
    match deadline_s with Some d -> d | None -> t.cfg.drain_deadline_s
  in
  drain t;
  let t0 = t.cfg.now () in
  while (not (drained t)) && t.cfg.now () -. t0 < deadline_s do
    ignore (tick t)
  done;
  let clean = drained t in
  List.iter (fun conn -> close_conn t conn) t.conns;
  t.conns <- [];
  trace (if clean then "drain_end" else "drain_deadline_exceeded");
  clean

(* ------------------------------------------------------------------ *)
(* In-process lockstep: one tick per client exchange                   *)
(* ------------------------------------------------------------------ *)

let lockstep t ch =
  (* the engine may close its connection (shutdown, strike-out, or a
     simulated crash), but the pipe stays open: a revived server picks
     the conversation back up on the same channel by re-accepting it *)
  let ch = Channel.wrap ~on_close:ignore ch in
  fun () ->
    if connection_count t = 0 then ignore (accept t ch);
    ignore (tick t)

(* ------------------------------------------------------------------ *)
(* Descriptor-backed serving: the select loop of tessera_server        *)
(* ------------------------------------------------------------------ *)

(* Select on the open connections, plus an optional listening descriptor
   and its accept handler, and tick until [stop ()]; then drain. *)
let select_loop ~select_timeout_s t ~listen ~stop =
  while not (stop ()) do
    let fds =
      Option.to_list (Option.map fst listen)
      @ List.filter_map
          (fun conn ->
            (* a connection at its queue bound is left unpolled: its
               bytes wait in the kernel buffer — backpressure *)
            if Conn.state conn = Conn.Active
               && Conn.queued conn < t.cfg.per_conn_queue then
              Conn.read_fd conn
            else None)
          t.conns
    in
    (* wake immediately on input, or on the timeout while the queue is
       non-empty (dispatch continues even when no new bytes arrive) *)
    let timeout = if t.qlen > 0 then 0.0 else select_timeout_s in
    (match Unix.select fds [] [] timeout with
    | readable, _, _ -> (
        match listen with
        | Some (fd, accept_pending) when List.memq fd readable ->
            accept_pending ()
        | _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) ->
        (* a peer closed between roster snapshot and select: the next
           tick retires the connection *)
        ());
    ignore (tick t)
  done;
  finish_drain t

let default_select_timeout_s = 0.05

let serve_fds ?(select_timeout_s = default_select_timeout_s) t ~listen ~wrap
    ~stop =
  Unix.set_nonblock listen;
  let accept_pending () =
    let continue = ref true in
    while !continue do
      match Unix.accept listen with
      | fd, _ -> ignore (accept t (wrap (Channel.of_fds fd fd)))
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  select_loop ~select_timeout_s t ~listen:(Some (listen, accept_pending)) ~stop

let serve_channel t ch ~stop =
  match accept t ch with
  | None -> finish_drain t
  | Some conn ->
      select_loop ~select_timeout_s:default_select_timeout_s t ~listen:None
        ~stop:(fun () -> stop () || Conn.state conn = Conn.Closed)
