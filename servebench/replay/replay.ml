(* In-process replay of a generated workload through the public functions
   of each service layer, with spans recorded around those calls.

     replay.exe WARMUP ROUNDS SPANS RESPONSES

   WARMUP and ROUNDS are NDJSON request files (the warm-up pass, then the
   counted lines).  Each file is replayed, warm-up first, in three passes
   against a fresh registry and session table each time: untraced,
   traced, untraced.  The traced pass keeps its spans in memory and writes
   them to SPANS when the replay ends (one line per span: request, span,
   parent, name, start and end in ns); its response lines go to RESPONSES
   for the caller's oracles.  A fourth pass submits every line to a
   one-domain scheduler, one at a time, to time the handoff.  The last line
   of stdout is a JSON object of per-layer figures over the counted lines. *)

module Sv = Lambekd_service
module T = Lambekd_telemetry
module Protocol = Sv.Protocol
module Registry = Sv.Registry

let now = T.Clock.now_ns

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let read_lines file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> Array.of_list

(* --- spans ------------------------------------------------------------- *)

let span_names =
  [| "request"; "protocol.decode"; "exec.run"; "session.op"; "protocol.encode" |]

let s_request = 0
let s_decode = 1
let s_exec = 2
let s_session = 3
let s_encode = 4

type spans = {
  mutable n : int;
  mutable req : int array;
  mutable name : int array;
  mutable parent : int array;
  mutable t0 : float array;
  mutable t1 : float array;
}

let spans_create () =
  { n = 0; req = [||]; name = [||]; parent = [||]; t0 = [||]; t1 = [||] }

let grow a n x = Array.append a (Array.make (max 1024 n) x)

(* Record a span and return its index (the parent of later spans of the
   same request). *)
let record sp ~req ~name ~parent t0 t1 =
  if sp.n = Array.length sp.req then begin
    let k = sp.n in
    sp.req <- grow sp.req k 0;
    sp.name <- grow sp.name k 0;
    sp.parent <- grow sp.parent k 0;
    sp.t0 <- grow sp.t0 k 0.;
    sp.t1 <- grow sp.t1 k 0.
  end;
  let i = sp.n in
  sp.req.(i) <- req;
  sp.name.(i) <- name;
  sp.parent.(i) <- parent;
  sp.t0.(i) <- t0;
  sp.t1.(i) <- t1;
  sp.n <- i + 1;
  i

let write_spans sp file =
  Out_channel.with_open_bin file (fun oc ->
      for i = 0 to sp.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.0f\t%.0f\n" sp.req.(i) i
          sp.parent.(i) span_names.(sp.name.(i)) sp.t0.(i) sp.t1.(i)
      done)

(* --- per-layer accumulators -------------------------------------------- *)

type acc = {
  mutable lines : int;
  mutable requests : int;
  mutable sops : int;
  mutable decode_ns : float;
  mutable decode_words : float;
  mutable encode_ns : float;
  mutable encode_bytes : float;
  mutable get_ns : float;
  mutable gets : int;
  mutable artifact_hits : int;
  mutable artifact_misses : int;
  mutable compiles : int;
  mutable compile_ns : float;
  mutable result_hits : int;
  mutable result_misses : int;
  mutable exec_ns : float;
  mutable exec_words : float;
  mutable session_ns : float;
  mutable heap_ratio_sum : float;
  mutable heap_samples : int;
}

let acc_create () =
  { lines = 0; requests = 0; sops = 0; decode_ns = 0.; decode_words = 0.;
    encode_ns = 0.; encode_bytes = 0.; get_ns = 0.; gets = 0; artifact_hits = 0;
    artifact_misses = 0; compiles = 0; compile_ns = 0.; result_hits = 0; result_misses = 0;
    exec_ns = 0.; exec_words = 0.; session_ns = 0.; heap_ratio_sum = 0.;
    heap_samples = 0 }

let engine_counters =
  [ ("engine.ll1_steps", "ll1.steps"); ("engine.slr_steps", "slr.steps");
    ("engine.earley_items", "earley.items"); ("engine.cyk_cells", "cyk.cells");
    ("engine.forest_nodes", "forest.nodes");
    ("engine.weighted_nodes", "weighted.nodes");
    ("engine.kbest_derivs", "kbest.derivs");
    ("session.reused_sets", "session.reused_sets") ]
  |> List.map (fun (metric, c) -> (metric, T.Probe.counter c))

let counter_values () =
  List.map (fun (_, c) -> T.Probe.value c) engine_counters

(* --- one pass ----------------------------------------------------------- *)

type pass = {
  acc : acc;
  wall_ns : float;  (** counted lines only, heap probes excluded *)
  counters : int list;  (** engine counter deltas over the counted lines *)
  out : string list;  (** response lines, warm-up included, in order *)
}

let live_words () =
  Gc.full_major ();
  float_of_int (Gc.stat ()).Gc.live_words

let run_pass ~traced ~spans warmup rounds =
  let reg = Registry.create () in
  let sessions = Sv.Session.create ~registry:reg () in
  let acc = acc_create () in
  let out = ref [] in
  let buffered = Hashtbl.create 16 in
  let heap_base = ref 0. in
  let last_close = ref true in
  let paused = ref 0. in
  let counting = ref false in
  (* The lookup (and any compile) happens inside Exec.run or
     Session.exec, where the server pays it.  The traced pass hands each
     request a Trace, on which a miss records its compile cost, and reads
     the hit or miss off the response.  Compiles are counted from the
     warm-up on: they are what set-up pays. *)
  let with_trace () = if traced then Some (Sv.Trace.create ()) else None in
  let artifact_seen (resp : Protocol.response) tr =
    Option.iter
      (fun (tr : Sv.Trace.t) ->
        if not (Float.is_nan tr.Sv.Trace.compile_ns) then begin
          acc.compiles <- acc.compiles + 1;
          acc.compile_ns <- acc.compile_ns +. tr.Sv.Trace.compile_ns
        end)
      tr;
    if traced && !counting then
      match resp.Protocol.artifact_cache with
      | `Hit -> acc.artifact_hits <- acc.artifact_hits + 1
      | `Miss -> acc.artifact_misses <- acc.artifact_misses + 1
      | `None -> ()
  in
  (* The cost of a warm lookup: a second Registry.get of the grammar,
     made after the layer call (so the artifact is in the cache) and kept
     off the pass clock. *)
  let warm_get cfg =
    if traced && !counting then begin
      let t0 = now () in
      ignore (Registry.get reg cfg);
      let t1 = now () in
      acc.gets <- acc.gets + 1;
      acc.get_ns <- acc.get_ns +. (t1 -. t0);
      paused := !paused +. (now () -. t0)
    end
  in
  (* the buffers' retained heap, sampled when every session of a round is
     at its longest (just before the first close) against the heap after
     the previous round's closes *)
  let heap_probe (sq : Protocol.session_req) =
    let is_close =
      match sq.Protocol.sq_op with Protocol.S_close -> true | _ -> false
    in
    let t0 = now () in
    (if is_close && not !last_close then begin
       let bytes = Hashtbl.fold (fun _ n s -> s + n) buffered 0 in
       if bytes > 0 then begin
         acc.heap_ratio_sum <-
           acc.heap_ratio_sum +. ((live_words () -. !heap_base) /. float_of_int bytes);
         acc.heap_samples <- acc.heap_samples + 1
       end
     end
     else if (not is_close) && !last_close then heap_base := live_words ());
    last_close := is_close;
    paused := !paused +. (now () -. t0)
  in
  let handle req_id line =
    let t_start = now () in
    let w0 = words () in
    let decoded = Protocol.parse_line line in
    let t_dec = now () in
    let w1 = words () in
    (* the request span; its end is filled in once the response is encoded *)
    let parent =
      if traced && !counting then begin
        acc.decode_ns <- acc.decode_ns +. (t_dec -. t_start);
        acc.decode_words <- acc.decode_words +. (w1 -. w0);
        let root = record spans ~req:req_id ~name:s_request ~parent:(-1) t_start nan in
        ignore (record spans ~req:req_id ~name:s_decode ~parent:root t_start t_dec);
        root
      end
      else -1
    in
    let resp =
      match decoded with
      | Error msg -> Protocol.bad_request msg
      | Ok (Protocol.Admin { aid; _ }) ->
        Protocol.bad_request ?id:aid "admin lines are not replayed"
      | Ok (Protocol.Request req) ->
        let tr = with_trace () in
        let req = if traced then { req with Protocol.trace = tr } else req in
        let w0 = words () in
        let t0 = now () in
        let resp = Sv.Exec.run reg req in
        let t1 = now () in
        let w1 = words () in
        artifact_seen resp tr;
        warm_get req.Protocol.cfg;
        if traced && !counting then begin
          acc.requests <- acc.requests + 1;
          acc.exec_ns <- acc.exec_ns +. (t1 -. t0);
          acc.exec_words <- acc.exec_words +. (w1 -. w0);
          (match resp.Protocol.result_cache with
           | `Hit -> acc.result_hits <- acc.result_hits + 1
           | `Miss -> acc.result_misses <- acc.result_misses + 1
           | `None -> ());
          ignore (record spans ~req:req_id ~name:s_exec ~parent t0 t1)
        end;
        resp
      | Ok (Protocol.Session sq) ->
        (* every pass takes the heap samples, so that the forced
           collections fall alike on the traced and untraced passes *)
        if !counting then heap_probe sq;
        let tr = with_trace () in
        let sq = if traced then { sq with Protocol.sq_trace = tr } else sq in
        let t0 = now () in
        let resp = Sv.Session.exec (Sv.Session.route sessions sq) in
        let t1 = now () in
        (match sq.Protocol.sq_op with
         | Protocol.S_open { cfg; _ } ->
           artifact_seen resp tr;
           warm_get cfg
         | _ -> ());
        (match resp.Protocol.outcome with
         | Ok (Protocol.Session_opened { sid }) -> Hashtbl.replace buffered sid 0
         | Ok (Protocol.Session_closed { sid }) -> Hashtbl.remove buffered sid
         | Ok (Protocol.Session_state { len; _ }) ->
           Hashtbl.replace buffered sq.Protocol.sq_sid len
         | _ -> ());
        if traced && !counting then begin
          acc.sops <- acc.sops + 1;
          acc.session_ns <- acc.session_ns +. (t1 -. t0);
          ignore (record spans ~req:req_id ~name:s_session ~parent t0 t1)
        end;
        resp
    in
    let t0 = now () in
    let s = Protocol.response_to_json ~times:true resp in
    let t1 = now () in
    if traced && !counting then begin
      acc.lines <- acc.lines + 1;
      acc.encode_ns <- acc.encode_ns +. (t1 -. t0);
      acc.encode_bytes <- acc.encode_bytes +. float_of_int (String.length s);
      ignore (record spans ~req:req_id ~name:s_encode ~parent t0 t1);
      spans.t1.(parent) <- t1
    end;
    if traced then out := s :: !out
  in
  Array.iteri (fun i l -> handle (-1 - i) l) warmup;
  counting := true;
  let c0 = counter_values () in
  let t0 = now () in
  Array.iteri handle rounds;
  let wall = now () -. t0 -. !paused in
  let c1 = counter_values () in
  Sv.Session.close_all sessions;
  { acc; wall_ns = wall; counters = List.map2 ( - ) c1 c0; out = List.rev !out }

(* Submit each counted line alone to a one-domain scheduler and time the
   stretch from submission to the completion callback that the engine did
   not spend (the response's own duration). *)
let handoff_pass warmup rounds =
  let reg = Registry.create () in
  let sessions = Sv.Session.create ~registry:reg () in
  let sched = Sv.Scheduler.create ~domains:1 ~queue_cap:64 ~registry:reg () in
  let total = ref 0. and n = ref 0 in
  let slot = Atomic.make None in
  let callback (r : Protocol.response) = Atomic.set slot (Some (now (), r.Protocol.dur_ns)) in
  let one counted line =
    Atomic.set slot None;
    let t0 = ref 0. in
    let submitted =
      match Protocol.parse_line line with
      | Ok (Protocol.Request req) ->
        t0 := now ();
        Sv.Scheduler.try_submit sched req callback
      | Ok (Protocol.Session sq) ->
        let routed = Sv.Session.route sessions sq in
        t0 := now ();
        let r = Sv.Scheduler.try_submit_session sched routed callback in
        if Result.is_error r then Sv.Session.cancel routed;
        r
      | Ok (Protocol.Admin _) | Error _ -> Error 0
    in
    if Result.is_ok submitted then begin
      let rec wait () =
        match Atomic.get slot with
        | Some x -> x
        | None -> Domain.cpu_relax (); wait ()
      in
      let t1, dur = wait () in
      if counted then begin
        total := !total +. (t1 -. !t0 -. dur);
        incr n
      end
    end
  in
  Array.iter (one false) warmup;
  Array.iter (one true) rounds;
  Sv.Session.close_all sessions;
  Sv.Scheduler.shutdown sched;
  if !n = 0 then 0. else !total /. float_of_int !n

let () =
  match Sys.argv with
  | [| _; warm_file; rounds_file; spans_file; responses_file |] ->
    let warmup = read_lines warm_file and rounds = read_lines rounds_file in
    (* the serve front end runs with the probes and metrics on *)
    T.Probe.enable ();
    T.Metrics.enable ();
    let spans = spans_create () in
    let untraced1 = run_pass ~traced:false ~spans warmup rounds in
    let traced = run_pass ~traced:true ~spans warmup rounds in
    let untraced2 = run_pass ~traced:false ~spans warmup rounds in
    let handoff_ns = handoff_pass warmup rounds in
    write_spans spans spans_file;
    Out_channel.with_open_bin responses_file (fun oc ->
        List.iter (fun s -> output_string oc s; output_char oc '\n') traced.out);
    let a = traced.acc in
    let per n x = if n = 0 then 0. else x /. float_of_int n in
    let ratio h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m) in
    let untraced_ns = (untraced1.wall_ns +. untraced2.wall_ns) /. 2. in
    let figures =
      [ ("lines", float_of_int a.lines);
        ("requests", float_of_int a.requests);
        ("session_ops", float_of_int a.sops);
        ("protocol.decode_ns", per a.lines a.decode_ns);
        ("protocol.decode_words", per a.lines a.decode_words);
        ("protocol.encode_ns", per a.lines a.encode_ns);
        ("protocol.encode_bytes", per a.lines a.encode_bytes);
        ("registry.get_ns", per a.gets a.get_ns);
        ("registry.artifact_hit_ratio", ratio a.artifact_hits a.artifact_misses);
        ("registry.compile_us", per a.compiles a.compile_ns /. 1e3);
        ("registry.result_hit_ratio", ratio a.result_hits a.result_misses);
        ("scheduler.handoff_us", handoff_ns /. 1e3);
        ("exec.run_ns", per a.requests a.exec_ns);
        ("exec.run_words", per a.requests a.exec_words);
        ("session.op_ns", per a.sops a.session_ns);
        ("session.heap_words_per_buffered_byte", per a.heap_samples a.heap_ratio_sum);
        ("traced_line_ns", per a.lines traced.wall_ns);
        ("untraced_line_ns", per a.lines untraced_ns);
        ("trace.overhead_ratio", traced.wall_ns /. untraced_ns) ]
      @ List.map2
          (fun (metric, _) d -> (metric, per a.lines (float_of_int d)))
          engine_counters traced.counters
    in
    print_string "{";
    List.iteri
      (fun i (k, v) -> Printf.printf "%s\"%s\":%.17g" (if i = 0 then "" else ",") k v)
      figures;
    print_string "}\n"
  | _ ->
    prerr_endline "usage: replay.exe WARMUP ROUNDS SPANS RESPONSES";
    exit 2
