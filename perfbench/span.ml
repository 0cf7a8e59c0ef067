(** Host-cost spans recorded by the benchmark around its own calls into
    a layer's public functions: host milliseconds and GC words
    (minor + major - promoted).  Spans nest; a span's self cost is its
    total minus the spans opened inside it. *)

type stat = {
  mutable calls : int;
  mutable self_ms : float;
  mutable self_words : float;
}

type t = {
  stats : (string, stat) Hashtbl.t;
  mutable open_spans : (float ref * float ref) list;
      (** per open span: cost of the spans nested in it so far *)
  mutable top_ms : float;  (** total of the outermost spans *)
}

let create () = { stats = Hashtbl.create 32; open_spans = []; top_ms = 0.0 }

(* Host time is the CPU time of the process (user + system).  The
   benchmark runs one domain and no other thread, so this is its wall
   time minus the time the machine gave to other tenants. *)
let now_ms () = Sys.time () *. 1000.0

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(** [record t name f] runs [f ()] inside a span named [name]. *)
let record t name f =
  let child_ms = ref 0.0 and child_words = ref 0.0 in
  t.open_spans <- (child_ms, child_words) :: t.open_spans;
  let w0 = words () in
  let t0 = now_ms () in
  let x = f () in
  let ms = now_ms () -. t0 in
  let w = words () -. w0 in
  t.open_spans <- List.tl t.open_spans;
  (match t.open_spans with
  | (pm, pw) :: _ ->
      pm := !pm +. ms;
      pw := !pw +. w
  | [] -> t.top_ms <- t.top_ms +. ms);
  let s =
    match Hashtbl.find_opt t.stats name with
    | Some s -> s
    | None ->
        let s = { calls = 0; self_ms = 0.0; self_words = 0.0 } in
        Hashtbl.add t.stats name s;
        s
  in
  s.calls <- s.calls + 1;
  s.self_ms <- s.self_ms +. (ms -. !child_ms);
  s.self_words <- s.self_words +. (w -. !child_words);
  x

(** [self_per_call t name] is the mean self (ms, words) of one call. *)
let self_per_call t name =
  match Hashtbl.find_opt t.stats name with
  | Some s ->
      let c = float_of_int s.calls in
      (s.self_ms /. c, s.self_words /. c)
  | None -> failwith ("Span: no span recorded for " ^ name)

(** [metrics t ~scale ~workload layer] is the layer's per-call self
    cost as the metrics [<workload>.<layer>_ms] (host ms times [scale])
    and [<workload>.<layer>_words]. *)
let metrics t ~scale ~workload layer =
  let ms, words = self_per_call t layer in
  let ms = ms *. scale in
  let name suffix = workload ^ "." ^ layer ^ suffix in
  [ (name "_ms", ms, "ms"); (name "_words", words, "words") ]

(** [ratios t ~workload ~plain_ms ~traced_ms] closes a profile:
    coverage is the time under the outermost spans over the untraced
    ops' time, trace overhead the traced ops' time over it. *)
let ratios t ~workload ~plain_ms ~traced_ms =
  [
    ("coverage." ^ workload, t.top_ms /. plain_ms, "1");
    ("trace_overhead." ^ workload, traced_ms /. plain_ms, "1");
  ]
