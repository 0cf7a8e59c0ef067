(** One workload run: what its ops cost on the host and whether their
    simulated outputs held. *)

type t = {
  workload : string;
  mutable setups : (float * float) list;
      (** (host s, reference s) of each set-up *)
  mutable samples : (string * float * float) list;
      (** (op kind, host ms, reference ms) per op; md-dynamics books one
          per-step sample per checkpoint segment *)
  mutable cal : float list;  (** host ms of each calibration loop *)
  mutable ops : int;  (** ops attempted *)
  mutable failed : int;  (** ops with at least one failed check *)
  mutable words : float;  (** GC words allocated inside the ops *)
  mutable layers : (string * float * string) list;
      (** traced run: per-layer metrics (name, value, unit) *)
  seen : (string, string) Hashtbl.t;  (** first digest of each op key *)
  digests : Buffer.t;  (** first digests in op order *)
}

let create workload =
  {
    workload;
    setups = [];
    samples = [];
    cal = [];
    ops = 0;
    failed = 0;
    words = 0.0;
    layers = [];
    seen = Hashtbl.create 32;
    digests = Buffer.create 256;
  }

(** [problem r fmt] reports a failed check on standard error. *)
let problem r fmt = Printf.eprintf ("%s: check failed: " ^^ fmt ^^ "\n%!") r.workload

(* Host speed.  On a shared host the speed of this process swings by up
   to 2x for spells of seconds to minutes, as co-tenants load the cores
   and the memory system; no statistic of one run's samples removes
   that.  The simulator's ops are dominated by allocation and memory
   traffic, so a fixed loop of both runs on both sides of every op,
   set-up and md-dynamics segment, and times are reported in reference
   milliseconds: measured ms x [cal_ref_ms] / the mean time of the two
   loops.  A run at the reference speed reads its raw milliseconds.

   The loop must not depend on the program's heap, or one op's garbage
   would change the next op's reference time: its blocks die young, so
   it promotes nothing and leaves the major heap no work, and its
   memory walk is over a buffer outside the OCaml heap. *)

(** Time of {!calibration} on a quiet 2-core Xeon VM. *)
let cal_ref_ms = 22.0

(* 32 MB outside the OCaml heap: no GC work, not in [top_heap_words] *)
let walk_buffer =
  let b = Bigarray.(Array1.create float64 c_layout (4 * 1024 * 1024)) in
  Bigarray.Array1.fill b 0.0;
  b

(* short-lived small float blocks, then a walk of one store per cache
   line over [walk_buffer], twice *)
let calibration () =
  for i = 0 to 1_000_000 do
    ignore (Sys.opaque_identity (Array.make 10 (float_of_int i)))
  done;
  let b = walk_buffer in
  let n = Bigarray.Array1.dim b in
  for _ = 1 to 2 do
    let j = ref 0 in
    while !j < n do
      Bigarray.Array1.unsafe_set b !j (Bigarray.Array1.unsafe_get b !j +. 1.0);
      j := !j + 8
    done
  done

(** [calibrate r] times one calibration loop. *)
let calibrate r =
  let t0 = Span.now_ms () in
  calibration ();
  r.cal <- (Span.now_ms () -. t0) :: r.cal

(** [scale r] converts this run's host ms to reference ms by the
    median loop time of the run (for spans, which have no loop of
    their own). *)
let scale r =
  match r.cal with
  | [] -> 1.0
  | l -> cal_ref_ms /. Stats.median (Array.of_list l)

(** [to_reference r ms] converts host ms measured between the last two
    calibration loops to reference ms, by their mean time: the host's
    speed can change while an op runs. *)
let to_reference r ms =
  match r.cal with
  | after :: before :: _ -> ms *. cal_ref_ms *. 2.0 /. (after +. before)
  | _ -> invalid_arg "Report.to_reference: fewer than two loops"

(** [setups r n f] runs the set-up [f ()] [n] times, each between two
    calibration loops that convert its time to reference seconds, and
    returns the last result.  It ends with a loop, so the first {!op}
    has one right before it. *)
let setups r n f =
  let rec go n =
    let t0 = Span.now_ms () in
    let x = f () in
    let ms = Span.now_ms () -. t0 in
    calibrate r;
    r.setups <- (ms /. 1000.0, to_reference r ms /. 1000.0) :: r.setups;
    if n <= 1 then x else go (n - 1)
  in
  calibrate r;
  go n

(** [account r ~ops ~words ~ok] books [ops] ops that allocated
    [words]; they all fail when [ok] is false. *)
let account r ~ops ~words ~ok =
  r.ops <- r.ops + ops;
  r.words <- r.words +. words;
  if not ok then r.failed <- r.failed + ops

(** [repeat ~seconds f] runs [f ()] until [seconds] of host time have
    passed, at least once. *)
let repeat ~seconds f =
  let t0 = Span.now_ms () in
  f ();
  while Span.now_ms () -. t0 < seconds *. 1000.0 do
    f ()
  done

(** [timed f] is [(f (), host ms, GC words)]. *)
let timed f =
  let w0 = Span.words () in
  let t0 = Span.now_ms () in
  let x = f () in
  let ms = Span.now_ms () -. t0 in
  (x, ms, Span.words () -. w0)

(** [op r ~kind f] runs one op [f ()] of kind [kind], then a
    calibration loop, books its time as one sample and returns its
    result.  The op runs between that loop and the one that ended the
    set-ups or the op before it. *)
let op r ~kind f =
  let x, ms, words = timed f in
  calibrate r;
  r.samples <- (kind, ms, to_reference r ms) :: r.samples;
  account r ~ops:1 ~words ~ok:true;
  x

(** [fail_op r] marks the last booked op failed (once per op). *)
let fail_op r = r.failed <- r.failed + 1

(** [check_digest r ~pins key d] compares the digest [d] of op [key]
    with its pin, or, for an unpinned key, with the first digest the
    key produced in this run: simulated outputs are deterministic, so
    every repeat must match bit for bit. *)
let check_digest r ~pins key d =
  let expected =
    match pins key with
    | Some p -> Some p
    | None -> Hashtbl.find_opt r.seen key
  in
  if not (Hashtbl.mem r.seen key) then begin
    Hashtbl.add r.seen key d;
    Buffer.add_string r.digests d;
    Printf.eprintf "digest %s %s%s\n%!" key d
      (if pins key = None then " (unpinned)" else "")
  end;
  match expected with
  | Some e when e <> d ->
      problem r "%s: digest %s, expected %s" key d e;
      false
  | _ -> true

(** [digest r] folds the first digest of every op key, in op order. *)
let digest r = Digest.to_hex (Digest.string (Buffer.contents r.digests))

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(** [fail_ratio r] is failed ops / ops attempted. *)
let fail_ratio r = float_of_int r.failed /. float_of_int (max 1 r.ops)

(* the op times of the run, in reference ms *)
let sample_ms r = Array.of_list (List.map (fun (_, _, x) -> x) r.samples)

(* the median time of each op kind, in reference ms or, with
   [~host:true], in host ms *)
let kind_medians ?(host = false) r =
  let kinds = Hashtbl.create 16 in
  List.iter
    (fun (k, h, x) ->
      Hashtbl.replace kinds k
        ((if host then h else x)
        :: Option.value ~default:[] (Hashtbl.find_opt kinds k)))
    r.samples;
  Array.of_seq
    (Seq.map (fun l -> Stats.median (Array.of_list l)) (Hashtbl.to_seq_values kinds))

(** [ops_per_s ?host r] is the throughput of a typical cycle: the
    number of op kinds in a cycle over the sum of each kind's median
    time.  On a shared host, co-tenants slow single ops by up to 60 %
    for spells of seconds; a median per kind keeps such spells out of
    the figure, where a total over the run would not. *)
let ops_per_s ?host r =
  let m = kind_medians ?host r in
  float_of_int (Array.length m) /. (Array.fold_left ( +. ) 0.0 m /. 1000.0)

(** [op_ms_p50 ?host r] is the median op time of a typical cycle: the
    median over the op kinds of each kind's median time.  A cycle runs
    every kind once, so the median over all samples would fall on the
    edge between two kinds' times and move with the extremes of
    both. *)
let op_ms_p50 ?host r = Stats.median (kind_medians ?host r)

(** [end_to_end r] is the untraced run's metrics (name, value, unit).
    [pass_ratio] is [1 - fail_ratio]: the gated form of the failure
    count, since a metric gated as a share of its median cannot be 0. *)
let end_to_end r =
  let ops = float_of_int r.ops in
  [
    ("ops_per_s", ops_per_s r, "op/s");
    ("op_ms_p50", op_ms_p50 r, "ms");
    ("words_per_op", r.words /. ops, "words");
    ("heap_peak_mb", heap_peak_mb (), "MB");
    ("setup_s", Stats.median (Array.of_list (List.map snd r.setups)), "s");
    ("pass_ratio", 1.0 -. fail_ratio r, "1");
  ]

(** [host_times r] is the untraced run's time metrics in host time,
    before the conversion to reference time: what the run measured. *)
let host_times r =
  [
    ("ops_per_s", ops_per_s ~host:true r, "op/s");
    ("op_ms_p50", op_ms_p50 ~host:true r, "ms");
    ("setup_s", Stats.median (Array.of_list (List.map fst r.setups)), "s");
  ]
