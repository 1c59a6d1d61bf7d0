(* Spans for the traced run.  Each span is taken around one call into a
   layer's public function, from the benchmark's own code: nothing in the
   libraries is instrumented.  Spans are kept in memory and written as
   JSON lines when the run ends.  Parents are tracked per domain, so the
   serve loop (one domain) and the client (another) nest independently;
   [req] ties the spans of one request together. *)

type span = {
  id : int;
  name : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** id of the enclosing span on the same domain, or -1 *)
  req : int;  (** operation index, or -1 *)
}

type t = { lock : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { lock = Mutex.create (); next = 0; spans = [] }

let open_spans : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let span t ?(req = -1) name f =
  let id =
    Mutex.protect t.lock (fun () ->
        let id = t.next in
        t.next <- id + 1;
        id)
  in
  let stack = Domain.DLS.get open_spans in
  let parent = match stack with p :: _ -> p | [] -> -1 in
  Domain.DLS.set open_spans (id :: stack);
  let start_ns = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let end_ns = Clock.now_ns () in
      Domain.DLS.set open_spans stack;
      Mutex.protect t.lock (fun () ->
          t.spans <- { id; name; start_ns; end_ns; parent; req } :: t.spans))
    f

let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)

(* Self time: a span's duration minus the part of its interval that its
   children cover (children's intervals are merged first, so overlapping
   children are not subtracted twice). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.end_ns s.end_ns))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) kids
      in
      (s, s.end_ns - s.start_ns - covered))
    spans

(* Per span name: (calls, total self ns). *)
let by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let calls, total =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0)
      in
      Hashtbl.replace tbl s.name (calls + 1, total + self))
    (self_times spans);
  tbl

let to_json s =
  Lidjson.Obj
    [
      ("id", Lidjson.Int s.id);
      ("name", Lidjson.String s.name);
      ("start_ns", Lidjson.Int s.start_ns);
      ("end_ns", Lidjson.Int s.end_ns);
      ("parent", Lidjson.Int s.parent);
      ("req", Lidjson.Int s.req);
    ]

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write path spans =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc (Lidjson.to_string (to_json s));
          output_char oc '\n')
        spans)
