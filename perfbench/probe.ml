(* In-process helper of the benchmark, linked against the wet libraries.

     probe ref DIR SPEC...            reference builds
     probe answers REQUESTS           reference answers
     probe ledger-build DIR SPEC...   traced build ledger
     probe ledger-query REQUESTS      traced query ledger

   A SPEC is NAME:SCALE, a bundled program at a scale. REQUESTS is a
   file of wet-serve/1 request lines, the very lines run.py sends to the
   daemon. Each command prints one JSON object per line on stdout.

   The ledgers time calls into each layer's public functions from
   outside the program: a span (name, start, end, parent, request id)
   around every call, kept in memory and written out at the end.
   Allocation is the [Gc.minor_words] delta over the same interval. *)

module Spec = Wet_workloads.Spec
module PA = Wet_cfg.Program_analysis
module Interp = Wet_interp.Interp
module Builder = Wet_core.Builder
module Checkpoint = Builder.Checkpoint
module Store = Wet_core.Store
module W = Wet_core.Wet
module Query = Wet_core.Query
module Slice = Wet_core.Slice
module Telemetry = Wet_bistream.Telemetry
module Render = Wet_serve.Render
module Protocol = Wet_serve.Protocol
module Json = Wet_insight.Json
module Clock = Wet_obs.Clock

let print_obj fields = print_endline (Json.to_string (Json.Obj fields))

let num x = Json.Num x

let numi i = Json.Num (float_of_int i)

let md5_file path = Digest.to_hex (Digest.file path)

let md5_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let file_size path = (Unix.stat path).Unix.st_size

let ms_between t0 t1 = float_of_int (t1 - t0) /. 1e6

let ms_since t0 = ms_between t0 (Clock.now_ns ())

let parse_spec s =
  match String.rindex_opt s ':' with
  | Some i ->
    ( Spec.find (String.sub s 0 i),
      int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
  | None -> failwith ("program spec is not NAME:SCALE: " ^ s)

let container_path dir (w, scale) =
  Filename.concat dir (Printf.sprintf "%s-%d.wet" w.Spec.name scale)

(* ---------------- spans ---------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  rid : int;  (** the build or request the span belongs to *)
  t0 : int;
  t1 : int;
  words : float;  (** minor words allocated inside the span *)
}

let spans = ref []

let next_id = ref 0

let open_spans = ref []

let span ~rid name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let close () =
    let t1 = Clock.now_ns () in
    let words = Gc.minor_words () -. w0 in
    open_spans := List.tl !open_spans;
    spans := { id; name; parent; rid; t0; t1; words } :: !spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let dur_ms s = ms_between s.t0 s.t1

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", numi s.id);
                ("name", Json.Str s.name);
                ("parent", numi s.parent);
                ("rid", numi s.rid);
                ("start_ns", numi s.t0);
                ("end_ns", numi s.t1);
                ("minor_words", num s.words);
              ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

let find_span ~rid name =
  List.find (fun s -> s.rid = rid && s.name = name) !spans

(* A span's self time: its duration minus what its children cover
   (children never overlap: spans nest on one thread). *)
let self_ms s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. dur_ms c else acc)
    (dur_ms s) !spans

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* ---------------- builds ---------------- *)

(* What [wet build P --scale N --tier2 -o PATH] does, in-process.
   Returns the tier-1 WET and the milliseconds [run_streaming] took. *)
let reference_build (w, scale) path =
  let program = Spec.compile w in
  let t0 = Clock.now_ns () in
  let wet = Builder.run_streaming ~program ~input:(Spec.input w ~scale) () in
  let stream_ms = ms_since t0 in
  Store.save (Builder.pack wet) path;
  (wet, stream_ms)

let reference dir specs =
  List.iter
    (fun spec ->
      let ws = parse_spec spec in
      let path = container_path dir ws in
      let wet, _ = reference_build ws path in
      print_obj
        [
          ("spec", Json.Str spec);
          ("stmts", numi wet.W.stats.W.stmts_executed);
          ("bytes", numi (file_size path));
          ("md5", Json.Str (md5_file path));
        ];
      Sys.remove path)
    specs

(* An interpreter event sink wrapper counting every delivered event. *)
let counting count (s : Interp.event_sink) =
  {
    Interp.es_block = (fun x -> incr count; s.Interp.es_block x);
    es_dep = (fun x -> incr count; s.Interp.es_dep x);
    es_stmt = (fun x -> incr count; s.Interp.es_stmt x);
    es_path = (fun x -> incr count; s.Interp.es_path x);
    es_call = (fun () -> incr count; s.Interp.es_call ());
    es_ret = (fun v p -> incr count; s.Interp.es_ret v p);
    es_live = s.Interp.es_live;
  }

let noop_sink =
  {
    Interp.es_block = ignore;
    es_dep = ignore;
    es_stmt = ignore;
    es_path = ignore;
    es_call = ignore;
    es_ret = (fun _ _ -> ());
    es_live = ignore;
  }

type build = {
  b_spec : string;
  b_path : string;
  b_stmts : int;
  b_path_execs : int;
  b_bytes : int;
  b_same : bool;  (** traced container = untraced reference, byte for byte *)
  b_untraced_ms : float;
  b_stream_ms : float;  (** the run_streaming part of the untraced build *)
  b_events : int;
  b_shards : int;
  b_peak_words : int;
  b_journal_bytes : int;
  b_journal_records : int;
}

let ledger_build_one dir rid spec =
  let ((w, scale) as ws) = parse_spec spec in
  let input = Spec.input w ~scale in
  let path = container_path dir ws in
  (* untraced: the reference op, timed as a whole *)
  let untraced () =
    let reference = path ^ ".untraced" in
    let t0 = Clock.now_ns () in
    let _, stream_ms = reference_build ws reference in
    let untraced_ms = ms_since t0 in
    let md5 = md5_file reference in
    Sys.remove reference;
    (untraced_ms, stream_ms, md5)
  in
  (* traced: the same pipeline with a span around each layer call *)
  let events = ref 0 in
  let traced () =
    span ~rid "build" (fun () ->
        let program = span ~rid "minic.compile" (fun () -> Spec.compile w) in
        let analysis =
          span ~rid "cfg.analysis" (fun () -> PA.of_program program)
        in
        let sink =
          span ~rid "sink.run" (fun () ->
              let sink = Builder.Sink.create analysis in
              ignore
                (Interp.run_with_sink ~analysis
                   ~sink:(counting events (Builder.Sink.events sink))
                   program ~input);
              sink)
        in
        let tier1 = span ~rid "sink.finish" (fun () -> Builder.Sink.finish sink) in
        let packed = span ~rid "pack" (fun () -> Builder.pack tier1) in
        span ~rid "store.save" (fun () -> Store.save packed path);
        (program, analysis, sink, packed))
  in
  (* alternate which goes first, so that what the first build of a
     program pays (a colder heap and caches) cancels out *)
  let (untraced_ms, stream_ms, reference_md5), (program, analysis, sink, wet) =
    if rid mod 2 = 0 then
      let u = untraced () in
      (u, traced ())
    else
      let t = traced () in
      (untraced (), t)
  in
  (* calibration runs splitting sink.run into exec, emit and feed *)
  span ~rid "interp.exec" (fun () -> ignore (Interp.outputs_only program ~input));
  let noop_events = ref 0 in
  span ~rid "interp.noop" (fun () ->
      ignore
        (Interp.run_with_sink ~analysis ~sink:(counting noop_events noop_sink)
           program ~input));
  (* [track_peak] walks the heap at every shard boundary, so the peak is
     sampled in a run of its own rather than inside sink.run *)
  let peak_words =
    span ~rid "sink.peak" (fun () ->
        let sink = Builder.Sink.create ~track_peak:true analysis in
        ignore
          (Interp.run_with_sink ~analysis ~sink:(Builder.Sink.events sink)
             program ~input);
        Builder.Sink.peak_live_words sink)
  in
  (* a durable build of the same program, as [wet build --checkpoint] *)
  let journal = path ^ ".journal" in
  span ~rid "journal.build" (fun () ->
      ignore
        (Checkpoint.build ~tier2:true ~label:w.Spec.name ~journal ~program
           ~input ()));
  let journal_bytes = file_size journal in
  let journal_records =
    match Checkpoint.describe journal with
    | Ok (_, Some c, _) -> c.Checkpoint.c_shards + 1
    | Ok (_, None, _) -> 1
    | Error m -> failwith m
  in
  Sys.remove journal;
  let loaded = span ~rid "store.load" (fun () -> Store.load path) in
  ignore (span ~rid "session.open" (fun () -> W.open_session loaded));
  {
    b_spec = spec;
    b_path = path;
    b_stmts = wet.W.stats.W.stmts_executed;
    b_path_execs = wet.W.stats.W.path_execs;
    b_bytes = file_size path;
    b_same = md5_file path = reference_md5 && !noop_events = !events;
    b_untraced_ms = untraced_ms;
    b_stream_ms = stream_ms;
    b_events = !events;
    b_shards = Builder.Sink.shard_count sink;
    b_peak_words = peak_words;
    b_journal_bytes = journal_bytes;
    b_journal_records = journal_records;
  }

let ledger_build dir specs =
  let builds = List.mapi (ledger_build_one dir) specs in
  let per_build name = List.mapi (fun rid _ -> dur_ms (find_span ~rid name)) builds in
  let avg name = mean (per_build name) in
  let diff a b = mean (List.map2 ( -. ) (per_build a) (per_build b)) in
  let sum_i f = float_of_int (List.fold_left (fun acc b -> acc + f b) 0 builds) in
  let avg_i f = sum_i f /. float_of_int (List.length builds) in
  let stmts = sum_i (fun b -> b.b_stmts) in
  let roots = List.filter (fun s -> s.name = "build") !spans in
  let root_wall = List.fold_left (fun a s -> a +. dur_ms s) 0. roots in
  let root_self = List.fold_left (fun a s -> a +. self_ms s) 0. roots in
  let untraced = mean (List.map (fun b -> b.b_untraced_ms) builds) in
  let journal_ms =
    mean
      (List.mapi
         (fun rid b -> dur_ms (find_span ~rid "journal.build") -. b.b_stream_ms)
         builds)
  in
  let words name = mean (List.mapi (fun rid _ -> (find_span ~rid name).words) builds) in
  let metrics =
    [
      ("minic.compile_ms", avg "minic.compile");
      ("cfg.analysis_ms", avg "cfg.analysis");
      ("interp.exec_ms", avg "interp.exec");
      ("interp.emit_ms", diff "interp.noop" "interp.exec");
      ("interp.events", avg_i (fun b -> b.b_events));
      ("sink.feed_ms", diff "sink.run" "interp.noop");
      ("sink.finish_ms", avg "sink.finish");
      ("sink.shards", avg_i (fun b -> b.b_shards));
      ( "sink.peak_mwords",
        float_of_int
          (List.fold_left (fun a b -> max a b.b_peak_words) 0 builds)
        /. 1e6 );
      ("pack.ms", avg "pack");
      ("pack.alloc_mwords", words "pack" /. 1e6);
      ("store.save_ms", avg "store.save");
      ("store.bytes_per_stmt", sum_i (fun b -> b.b_bytes) /. stmts);
      ("journal.ms", journal_ms);
      ("journal.bytes_per_stmt", sum_i (fun b -> b.b_journal_bytes) /. stmts);
      ("journal.records", avg_i (fun b -> b.b_journal_records));
      ("store.load_ms", avg "store.load");
      ("store.load_alloc_mwords", words "store.load" /. 1e6);
      ("session.open_ms", avg "session.open");
      ("build.traced_ms", mean (List.map dur_ms roots));
      ("build.untraced_ms", untraced);
      ("build.unaccounted_frac", ratio root_self root_wall);
      ("build.trace_overhead_ms", mean (List.map dur_ms roots) -. untraced);
    ]
  in
  write_spans (Filename.concat dir "build-spans.jsonl");
  print_obj
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
      ( "containers",
        Json.Arr
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("spec", Json.Str b.b_spec);
                   ("path", Json.Str b.b_path);
                   ("stmts", numi b.b_stmts);
                   ("path_execs", numi b.b_path_execs);
                   ("same_as_reference", Json.Bool b.b_same);
                 ])
             builds) );
    ]

(* ---------------- queries ---------------- *)

let param req name = List.assoc_opt name req.Protocol.rq_params

let int_param req name = Option.map int_of_string (param req name)

let trace_kind req =
  match Render.trace_kind_of_string (Option.value (param req "kind") ~default:"cf") with
  | Ok k -> k
  | Error m -> failwith m

(* The ledger's name for a request's query kind. *)
let kind_name req =
  match req.Protocol.rq_verb with
  | Protocol.Trace ->
    "trace_" ^ Option.value (param req "kind") ~default:"cf"
  | Protocol.Slice -> "slice"
  | Protocol.At -> "at"
  | v -> failwith ("no ledger for verb " ^ Protocol.verb_name v)

(* The daemon's answer to [req], rendered in-process exactly as
   [Wet_serve.Server] renders it (same defaults). *)
let answer s req =
  match req.Protocol.rq_verb with
  | Protocol.Trace ->
    Render.trace s ~kind:(trace_kind req)
      ~limit:(Option.value (int_param req "limit") ~default:50)
  | Protocol.Slice -> Render.slice s ~output:(int_param req "output")
  | Protocol.At -> Render.at s ~ts:(int_param req "ts")
  | v -> failwith ("no renderer for verb " ^ Protocol.verb_name v)

let noop2 _ _ = ()

(* The decode work of [answer] without its formatting: the same
   Query.Session traversal with a no-op callback. *)
let fold s req =
  let wet = W.Session.wet s in
  match req.Protocol.rq_verb with
  | Protocol.Trace -> (
    match trace_kind req with
    | Render.Cf ->
      Query.Session.park s Query.Forward;
      ignore (Query.Session.control_flow s Query.Forward ~f:noop2)
    | Render.Values -> ignore (Query.Session.load_values s ~f:noop2)
    | Render.Addresses -> ignore (Query.Session.addresses s ~f:noop2))
  | Protocol.At -> (
    let total = wet.W.stats.W.path_execs in
    let ts = Option.value (int_param req "ts") ~default:(max 1 (total / 2)) in
    match Query.Session.locate_time s ts with
    | None -> ()
    | Some _ ->
      ignore
        (Query.Session.control_flow_from s ~start_ts:(max 1 (ts - 2)) ~steps:4
           ~f:noop2);
      ignore (Wet_analyses.State_reconstruct.at_session s ~ts))
  | Protocol.Slice -> (
    let outs =
      Query.copies_matching wet (function
        | Wet_ir.Instr.Output _ -> true
        | _ -> false)
    in
    let instances =
      List.concat_map
        (fun c ->
          List.init (W.node_of_copy wet c).W.n_nexec (fun i ->
              (W.Session.timestamp s c i, c, i)))
        outs
      |> List.sort compare
    in
    let total = List.length instances in
    let k = Option.value (int_param req "output") ~default:(total - 1) in
    if k >= 0 && k < total then
      let _, c, i = List.nth instances k in
      ignore (Slice.Session.backward s c i))
  | _ -> ()

let read_requests path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
      match Protocol.decode_request line with
      | Ok r -> go (r :: acc)
      | Error m -> failwith m)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* One session per container, reused across requests the way a daemon
   connection reuses its session. *)
let session_cache () =
  let tbl = Hashtbl.create 16 in
  fun req ->
    let path = Option.get req.Protocol.rq_wet in
    match Hashtbl.find_opt tbl path with
    | Some s -> s
    | None ->
      let s = W.open_session (Store.load path) in
      Hashtbl.add tbl path s;
      s

let answers path =
  let session = session_cache () in
  List.iter
    (fun req -> print_endline (md5_lines (answer (session req) req)))
    (read_requests path)

type query = {
  q_kind : string;
  q_md5 : string;
  q_same : bool;  (** traced answer = untraced answer *)
  q_untraced_ms : float;
  q_lines : int;
  q_delta : Telemetry.snapshot;
}

let ledger_query path =
  let session = session_cache () in
  let queries =
    List.mapi
      (fun rid req ->
        let s = session req in
        let kind = kind_name req in
        let untraced () =
          let t0 = Clock.now_ns () in
          let lines = answer s req in
          (lines, ms_since t0)
        in
        let traced () =
          let tally = W.Session.tally s in
          let before = Telemetry.snapshot ~tally () in
          let lines = span ~rid ("query." ^ kind) (fun () -> answer s req) in
          (lines, Telemetry.delta ~before ~after:(Telemetry.snapshot ~tally ()))
        in
        let fold () = span ~rid ("fold." ^ kind) (fun () -> fold s req) in
        (* the three calls run in alternating order, so that what the
           first call of a request pays (a colder heap and caches) does
           not land on one side of the comparisons *)
        let (plain, untraced_ms), (traced, delta) =
          if rid mod 2 = 0 then begin
            let u = untraced () in
            let t = traced () in
            fold ();
            (u, t)
          end
          else begin
            fold ();
            let t = traced () in
            (untraced (), t)
          end
        in
        {
          q_kind = kind;
          q_md5 = md5_lines plain;
          q_same = plain = traced;
          q_untraced_ms = untraced_ms;
          q_lines = List.length plain;
          q_delta = delta;
        })
      (read_requests path)
  in
  let of_kind k = List.filter (fun q -> q.q_kind = k) queries in
  let spans_named name = List.filter (fun s -> s.name = name) !spans in
  let kinds = [ "trace_cf"; "trace_values"; "trace_addresses"; "at"; "slice" ] in
  let per_kind k =
    let qs = of_kind k in
    let total f = float_of_int (List.fold_left (fun a q -> a + f q) 0 qs) in
    let steps = total (fun q -> Telemetry.steps q.q_delta) in
    let hits = total (fun q -> q.q_delta.Telemetry.g_hits) in
    let misses = total (fun q -> q.q_delta.Telemetry.g_misses) in
    let traced = spans_named ("query." ^ k) in
    let p = "query." ^ k ^ "." in
    [
      (p ^ "requests", float_of_int (List.length qs));
      (p ^ "ms", mean (List.map dur_ms traced));
      (p ^ "alloc_mwords", mean (List.map (fun s -> s.words /. 1e6) traced));
      (p ^ "decode_steps", ratio steps (float_of_int (List.length qs)));
      (p ^ "lines", total (fun q -> q.q_lines));
      (p ^ "steps_per_line", ratio steps (total (fun q -> q.q_lines)));
      (p ^ "dict_entries", hits +. misses);
      (p ^ "dict_hit_ratio", ratio hits (hits +. misses));
    ]
  in
  let rendered = List.filter (fun s -> String.starts_with ~prefix:"query." s.name) !spans in
  let format =
    List.map
      (fun s ->
        let kind = String.sub s.name 6 (String.length s.name - 6) in
        dur_ms s -. dur_ms (find_span ~rid:s.rid ("fold." ^ kind)))
      rendered
  in
  let traced_total = List.fold_left (fun a s -> a +. dur_ms s) 0. rendered in
  let untraced_total =
    List.fold_left (fun a q -> a +. q.q_untraced_ms) 0. queries
  in
  let n = float_of_int (List.length queries) in
  let metrics =
    List.concat_map per_kind kinds
    @ [
        ("render.format_ms", mean format);
        ("query.trace_overhead_ms", ratio (traced_total -. untraced_total) n);
      ]
  in
  write_spans (Filename.remove_extension path ^ "-spans.jsonl");
  print_obj
    [
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
      ("answers", Json.Arr (List.map (fun q -> Json.Str q.q_md5) queries));
      ( "untraced_ms",
        Json.Arr (List.map (fun q -> num q.q_untraced_ms) queries) );
      ("same", Json.Bool (List.for_all (fun q -> q.q_same) queries));
    ]

let () =
  match Array.to_list Sys.argv with
  | _ :: "ref" :: dir :: specs -> reference dir specs
  | [ _; "answers"; path ] -> answers path
  | _ :: "ledger-build" :: dir :: specs -> ledger_build dir specs
  | [ _; "ledger-query"; path ] -> ledger_query path
  | _ ->
    prerr_endline
      "usage: probe (ref DIR SPEC... | answers REQUESTS | ledger-build DIR \
       SPEC... | ledger-query REQUESTS)";
    exit 2
