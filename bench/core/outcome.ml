(* What one pass over a workload yields, before it becomes records: every
   round's per-operation times, the work one round does, the correctness
   tally and the ordered output digest. *)

type t = {
  round_ns : int array list;  (** per round, each operation's time *)
  round_work : int;  (** requests answered, or injections classified *)
  attempted : int;
  failures : string list;  (** one line per failed operation *)
  digest : int;  (** ordered FNV-1a over round 1's responses or reports *)
  gc : (string * float) list;  (** round 1's [gc.*] per-layer values *)
}

(* Ordered FNV-1a over output strings, the same fold the packed engine
   interns signatures with. *)
let digest_fold h s = Skeleton.Packed.fnv1a_fold h (Skeleton.Packed.fnv1a_string s)
let digest_init = 0
let digest_hex d = Printf.sprintf "%016x" d

(* [Gc.quick_stat] counts every domain's allocation once the domains that
   did it are joined, which each round guarantees before reading it. *)
let gc_delta (before : Gc.stat) (after : Gc.stat) ~ops =
  [
    ( "gc.minor_collections",
      float_of_int (after.minor_collections - before.minor_collections) );
    ( "gc.major_collections",
      float_of_int (after.major_collections - before.major_collections) );
    ( "gc.minor_words_per_op",
      (after.minor_words -. before.minor_words) /. float_of_int (max 1 ops) );
  ]

(* The run's rounds, in order, with the set-ups after the first spread
   between them, so their median sees the machine at several moments:
   (set-up times, round results). *)
let rounds_with_setups w ~seconds ~setup ~round =
  let n = Workload.rounds w ~seconds and extra = Workload.setups - 1 in
  let setups = ref [] and rounds = ref [] in
  for r = 0 to n - 1 do
    for _ = 1 to (extra * (r + 1) / n) - (extra * r / n) do
      setups := setup () :: !setups
    done;
    rounds := round () :: !rounds
  done;
  (List.rev !setups, List.rev !rounds)

(* Each operation's fastest time over the rounds. *)
let best t =
  match t.round_ns with
  | [] -> invalid_arg "Outcome.best: no rounds"
  | r :: rest -> List.fold_left (Array.map2 min) r rest

(* Peak resident set of this process so far, in MB ([VmHWM]). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

(* Per-layer helper: mean self time of one span name, in [scale] ns. *)
let mean_self by_name name ~scale =
  match Hashtbl.find_opt by_name name with
  | Some (calls, total) when calls > 0 ->
      float_of_int total /. float_of_int calls /. scale
  | _ -> 0.

(* Host time per node-cycle and minor words per cycle of [Packed.run]
   on a workload's nets, after a short warm-up. *)
let stepping nets =
  let ns, node_cycles, words, cycles =
    List.fold_left
      (fun (ns, node_cycles, words, cycles) net ->
        let e = Skeleton.Packed.create net in
        let nodes = Topology.Network.n_nodes net in
        let c = max 256 (1_000_000 / nodes) in
        Skeleton.Packed.run e ~cycles:64;
        let w0 = Gc.minor_words () in
        let (), dt = Clock.time (fun () -> Skeleton.Packed.run e ~cycles:c) in
        let w = Gc.minor_words () -. w0 in
        (ns + dt, node_cycles + (c * nodes), words +. w, cycles + c))
      (0, 0, 0., 0) nets
  in
  [
    ( "skeleton.ns_per_node_cycle",
      float_of_int ns /. float_of_int (max 1 node_cycles),
      List.length nets );
    ( "skeleton.minor_words_per_cycle",
      words /. float_of_int (max 1 cycles),
      List.length nets );
  ]
