(* The serve workloads.  One closed-loop client writes request lines to
   [Serve.Daemon.serve_channel] over in-process pipes and waits for each
   response line before sending the next; the daemon's loop runs on a
   second domain.  Single-request lines never fan out inside the daemon,
   so the load keeps at most two domains busy.

   A round is the workload's whole frozen request stream against a fresh
   daemon ([Daemon.create] with the default cache sizes), so every round
   sees the same hits and misses and must answer byte-identically. *)

module Daemon = Serve.Daemon
module Packed = Skeleton.Packed

type loop = {
  to_server : out_channel;
  from_server : in_channel;
  server : unit Domain.t;
}

let start ?(serve = fun d ic oc -> Daemon.serve_channel d ic oc) () =
  let daemon = Daemon.create ~jobs:Workload.jobs () in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r
        and oc = Unix.out_channel_of_descr resp_w in
        Fun.protect
          ~finally:(fun () ->
            close_out_noerr oc;
            close_in_noerr ic)
          (fun () -> serve daemon ic oc))
  in
  {
    to_server = Unix.out_channel_of_descr req_w;
    from_server = Unix.in_channel_of_descr resp_r;
    server;
  }

let ask l line =
  output_string l.to_server line;
  output_char l.to_server '\n';
  flush l.to_server;
  match In_channel.input_line l.from_server with
  | Some r -> r
  | None -> failwith "the serve loop closed its output"

(* EOF ends the daemon's loop; joining its domain before the round's GC
   counters are read makes them count its allocation too. *)
let stop l =
  close_out l.to_server;
  Domain.join l.server;
  close_in l.from_server

let ok_response line =
  match Lidjson.parse line with
  | Ok j -> Lidjson.member "ok" j = Some (Lidjson.Bool true)
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Set-up: generate the stream, start a daemon and its loop, answer the
   warm-up request.  The first set-up is timed from process start. *)

let setup_once w ~seed t0 =
  let requests = Array.of_list (Workload.serve_stream w ~seed) in
  let l = start () in
  let warm = ask l Workload.warmup_request.line in
  let ns = Clock.now_ns () - t0 in
  stop l;
  (requests, ns, ok_response warm)

(* ------------------------------------------------------------------ *)
(* Timed rounds.                                                        *)

type round = {
  responses : string array;
  latencies : int array;
  gc : (string * float) list;
}

let timed_round requests =
  let gc0 = Gc.quick_stat () in
  let l = start () in
  let n = Array.length requests in
  let responses = Array.make n "" and latencies = Array.make n 0 in
  Array.iteri
    (fun i (r : Workload.request) ->
      let t0 = Clock.now_ns () in
      responses.(i) <- ask l r.line;
      latencies.(i) <- Clock.now_ns () - t0)
    requests;
  stop l;
  let gc = Outcome.gc_delta gc0 (Gc.quick_stat ()) ~ops:n in
  { responses; latencies; gc }

let blank_id = function
  | Lidjson.Obj ms ->
      Lidjson.Obj
        (List.map (function "id", _ -> ("id", Lidjson.Null) | m -> m) ms)
  | j -> j

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

(* Correctness of round 1, untimed: every response parses, echoes its
   id and says ok; every repeat of a key answers byte-identically to the
   key's first answer (ids blanked); a seeded 5% sample answered again
   by a fresh daemon matches byte for byte. *)
let check_round ~seed (requests : Workload.request array) responses =
  let n = Array.length requests in
  let failed = Array.make n None in
  let fail i msg =
    if failed.(i) = None then
      failed.(i) <- Some (Printf.sprintf "request %d: %s" requests.(i).id msg)
  in
  let first = Hashtbl.create 256 in
  Array.iteri
    (fun i (r : Workload.request) ->
      match Lidjson.parse responses.(i) with
      | Error m -> fail i ("unparsable response: " ^ m)
      | Ok j -> (
          if Lidjson.member "id" j <> Some (Lidjson.Int r.id) then
            fail i "id not echoed";
          if Lidjson.member "ok" j <> Some (Lidjson.Bool true) then
            fail i ("not ok: " ^ clip responses.(i));
          let blanked = Lidjson.to_string (blank_id j) in
          match Hashtbl.find_opt first r.key with
          | None -> Hashtbl.add first r.key blanked
          | Some b ->
              if b <> blanked then fail i "repeat differs from its key's first answer"))
    requests;
  let sample =
    Workload.shuffle (Random.State.make [| 0x5eed; 5; seed |]) (List.init n Fun.id)
  in
  List.iteri
    (fun k i ->
      if k < max 1 (n / 20) then begin
        let fresh = Daemon.create ~jobs:Workload.jobs () in
        let resp, _ = Daemon.process fresh [ Lidjson.parse_exn requests.(i).line ] in
        if Lidjson.to_string (List.hd resp) <> responses.(i) then
          fail i "a fresh daemon answers differently"
      end)
    sample;
  failed

let run w ~seed ~seconds =
  let requests, ns0, warm_ok = setup_once w ~seed Clock.process_start_ns in
  let setup_failures = ref [] in
  let fail_setup ok msg = if not ok then setup_failures := msg :: !setup_failures in
  fail_setup warm_ok "set-up: the warm-up request failed";
  let setup () =
    let again, ns, ok = setup_once w ~seed (Clock.now_ns ()) in
    fail_setup ok "set-up: the warm-up request failed";
    fail_setup
      (Array.map (fun (r : Workload.request) -> r.line) again
      = Array.map (fun (r : Workload.request) -> r.line) requests)
      "set-up: the same seed generated a different stream";
    ns
  in
  let setup_ns, rounds =
    Outcome.rounds_with_setups w ~seconds ~setup ~round:(fun () ->
        timed_round requests)
  in
  let r1 = List.hd rounds in
  let failed = check_round ~seed requests r1.responses in
  let later_failures =
    List.concat
      (List.mapi
         (fun k r ->
           List.filter_map Fun.id
             (Array.to_list
                (Array.mapi
                   (fun i line ->
                     if line = r1.responses.(i) then None
                     else
                       Some
                         (Printf.sprintf "round %d, request %d: differs from round 1"
                            (k + 2) requests.(i).id))
                   r.responses)))
         (List.tl rounds))
  in
  let n = Array.length requests in
  let outcome =
    {
      Outcome.round_ns = List.map (fun r -> r.latencies) rounds;
      round_work = n;
      (* the timed requests and the set-up warm-ups *)
      attempted = (n * List.length rounds) + Workload.setups;
      failures =
        List.rev !setup_failures
        @ List.filter_map Fun.id (Array.to_list failed)
        @ later_failures;
      digest = Array.fold_left Outcome.digest_fold Outcome.digest_init r1.responses;
      gc = r1.gc;
    }
  in
  (requests, ns0 :: setup_ns, outcome)

(* ------------------------------------------------------------------ *)
(* The traced round.  The daemon's loop is replaced by a copy of
   [Daemon.serve_channel] with spans around the JSON parse, the batch and
   the JSON print; the client spans each request.  After each response,
   and outside the request's timing, the client replays the request
   through the layers [Daemon.process] hides: [Handler.prepare] (which
   hits also pay), the spec parse and canonicalization it contains, and,
   for a request the daemon computed, the analysis layer by layer. *)

let traced_serve tr ~lock ~stats daemon ic oc =
  let req = ref 0 in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        let trimmed = String.trim line in
        if trimmed <> "" then begin
          let i = !req in
          incr req;
          Trace.span tr ~req:i "serve.request" (fun () ->
              let out =
                match
                  Trace.span tr ~req:i "json.parse" (fun () ->
                      Lidjson.parse trimmed)
                with
                | Error m ->
                    Lidjson.to_string
                      (Lidjson.Obj
                         [
                           ("id", Lidjson.Null);
                           ("ok", Lidjson.Bool false);
                           ("error", Lidjson.String ("bad request line: " ^ m));
                         ])
                | Ok j ->
                    let items, single =
                      match j with
                      | Lidjson.List items -> (items, false)
                      | j -> ([ j ], true)
                    in
                    let responses, s =
                      Trace.span tr ~req:i "serve.process" (fun () ->
                          Daemon.process daemon items)
                    in
                    Mutex.protect lock (fun () -> Hashtbl.replace stats i s);
                    Trace.span tr ~req:i "json.print" (fun () ->
                        Lidjson.to_string
                          (if single then List.hd responses
                           else Lidjson.List responses))
              in
              output_string oc out;
              output_char oc '\n';
              flush oc)
        end;
        loop ()
  in
  loop ()

type acc = {
  mutable hits : int;
  mutable misses : int;
  mutable resumes : int;
  mutable analyses : int;
  mutable cycles : int;
  mutable gated : int;
  mutable gate_extra_ns : int;
}

let replay_layers tr ~req (r : Workload.request) (s : Daemon.batch_stats) acc =
  acc.hits <- acc.hits + s.hits;
  acc.misses <- acc.misses + s.misses;
  if s.cone_reuse then acc.resumes <- acc.resumes + 1;
  let span name f = Trace.span tr ~req name f in
  let q =
    match Serve.Request.of_json (Lidjson.parse_exn r.line) with
    | Ok q -> q
    | Error m -> failwith m
  in
  match span "serve.prepare" (fun () -> Serve.Handler.prepare q) with
  | Error m -> failwith m
  | Ok p ->
      let allow_direct =
        match q.analysis with
        | Serve.Request.Lint _ | Serve.Request.Verify -> true
        | _ -> false
      in
      let base =
        span "topology.parse" (fun () ->
            Topology.Spec.parse_exn ~allow_direct q.spec)
      in
      ignore (span "serve.canonical" (fun () -> Serve.Topo_hash.canonical p.net));
      let flavour = q.flavour in
      let engine () =
        if s.cone_reuse && p.edits <> [] then begin
          let b = Packed.create ~flavour base in
          span "skeleton.resume" (fun () -> Packed.resume b ~edits:p.edits)
        end
        else span "skeleton.compile" (fun () -> Packed.create ~flavour p.net)
      in
      if s.misses > 0 then
        match q.analysis with
        | Serve.Request.Lint { gate } ->
            let lint name gate =
              snd
                (Clock.time (fun () ->
                     span name (fun () ->
                         Lint.Checks.run ~flavour ~data_width:16 ~gate p.net)))
            in
            let off = lint "lint.checks" false in
            if gate then begin
              acc.gate_extra_ns <-
                acc.gate_extra_ns + lint "lint.checks_gated" true - off;
              acc.gated <- acc.gated + 1
            end
        | Serve.Request.Verify ->
            ignore (span "lint.compose" (fun () -> Lint.Compose.run ~flavour p.net))
        | Serve.Request.Equalize ->
            ignore
              (span "topology.equalize" (fun () ->
                   try Some (Topology.Equalize.optimize p.net)
                   with Invalid_argument _ -> None))
        | Serve.Request.Throughput { max_cycles; signature_capacity } ->
            let e = engine () in
            ignore
              (span "skeleton.analyze" (fun () ->
                   Skeleton.Measure.analyze_packed ?max_cycles ?signature_capacity e));
            acc.analyses <- acc.analyses + 1;
            acc.cycles <- acc.cycles + Packed.cycle e
        | Serve.Request.Inject _ -> ignore (engine ())

(* The first [k] distinct topologies of the stream, unedited. *)
let stream_nets ?(k = 8) (requests : Workload.request array) =
  let seen = Hashtbl.create 16 in
  Array.fold_left
    (fun acc (r : Workload.request) ->
      if List.length acc >= k then acc
      else
        match Serve.Request.of_json (Lidjson.parse_exn r.line) with
        | Ok q when not (Hashtbl.mem seen q.spec) ->
            Hashtbl.add seen q.spec ();
            Topology.Spec.parse_exn ~allow_direct:true q.spec :: acc
        | _ -> acc)
    [] requests
  |> List.rev

let traced tr requests =
  let lock = Mutex.create () and stats = Hashtbl.create 1024 in
  let l = start ~serve:(traced_serve tr ~lock ~stats) () in
  let n = Array.length requests in
  let latencies = Array.make n 0 in
  let acc =
    {
      hits = 0;
      misses = 0;
      resumes = 0;
      analyses = 0;
      cycles = 0;
      gated = 0;
      gate_extra_ns = 0;
    }
  in
  Array.iteri
    (fun i (r : Workload.request) ->
      let t0 = Clock.now_ns () in
      ignore (Trace.span tr ~req:i "client.request" (fun () -> ask l r.line));
      latencies.(i) <- Clock.now_ns () - t0;
      let s = Mutex.protect lock (fun () -> Hashtbl.find stats i) in
      replay_layers tr ~req:i r s acc)
    requests;
  stop l;
  let by_name = Trace.by_name (Trace.spans tr) in
  let calls name =
    match Hashtbl.find_opt by_name name with Some (c, _) -> c | None -> 0
  in
  let us span = (span ^ "_us", Outcome.mean_self by_name span ~scale:1e3, calls span)
  and ms span = (span ^ "_ms", Outcome.mean_self by_name span ~scale:1e6, calls span) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  ( latencies,
    [
      us "json.parse";
      us "json.print";
      us "serve.prepare";
      us "topology.parse";
      us "serve.canonical";
      us "serve.process";
      ms "skeleton.compile";
      ms "skeleton.resume";
      ms "skeleton.analyze";
      ms "lint.checks";
      ms "lint.compose";
      ms "topology.equalize";
    ]
    @ [
        ("serve.hit_ratio", ratio acc.hits (acc.hits + acc.misses), acc.hits + acc.misses);
        ("serve.resumes", float_of_int acc.resumes, n);
        ( "skeleton.cycles_stepped",
          ratio acc.cycles acc.analyses,
          acc.analyses );
        ( "lint.gate_ms",
          ratio acc.gate_extra_ns acc.gated /. 1e6,
          acc.gated );
      ]
    @ Outcome.stepping (stream_nets requests) )
