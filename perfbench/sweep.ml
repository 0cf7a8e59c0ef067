(** [kernel-sweep]: one op is one [Kernel.run] on a single prepared
    water system, cycling through every variant, each run once serial
    and once pipelined (Fig 8 and Fig 9).  The pipelined half is where
    swsched recording and replay get load. *)

module K = Swgmx.Kernel_common
module V = Swgmx.Variant
module Md = Mdcore

let name = "kernel-sweep"

(** 3,000 particles, the Fig 8 system. *)
let particles = 3_000

let vname v = String.lowercase_ascii (V.name v)

let key ~seed v pipelined =
  Printf.sprintf "%s/seed%d/%s/%s" name seed (V.name v)
    (if pipelined then "pipelined" else "serial")

type state = {
  p : Swbench.Common.prepared;
  ref_force : float array;  (** double-precision Mdcore.Nonbonded forces *)
  envelope : Swverify.Tol.t;
  cg : Swarch.Core_group.t;
}

(* The mixed-precision envelope the kernel tests hold every variant to:
   2e-4 of the reference force scale. *)
let setup ~seed ~particles =
  let p = Swbench.Common.prepare ~seed ~particles () in
  let st = p.Swbench.Common.st and sys = p.Swbench.Common.sys in
  Md.Md_state.clear_forces st;
  ignore
    (Md.Nonbonded.compute st sys.K.cl p.Swbench.Common.pairs sys.K.params
       (Md.Energy.create ()));
  let ref_force = Md.Fbuf.to_array st.Md.Md_state.force in
  let scale =
    Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 ref_force
  in
  {
    p;
    ref_force;
    envelope = Swverify.Tol.rel_abs ~rel:0.0 ~abs:(2e-4 *. scale);
    cg = Swarch.Core_group.create sys.K.cfg;
  }

(* bit pattern of the physics: forces, energies, pair count *)
let physics_digest (res : K.result) =
  let b = Buffer.create ((8 * Array.length res.K.force) + 32) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) res.K.force;
  Printf.bprintf b "%h %h %d" (K.e_lj res) (K.e_coul res) res.K.pairs_in_cutoff;
  Digest.string (Buffer.contents b)

let stats_line b (s : Swcache.Stats.t) =
  Printf.bprintf b " %d %d %d %d" s.Swcache.Stats.hits s.Swcache.Stats.misses
    s.Swcache.Stats.evictions s.Swcache.Stats.writebacks

(* simulated outputs of one kernel run: elapsed time, DMA bytes, cache
   statistics and the physics *)
let outcome_digest cg (o : Swgmx.Kernel.outcome) =
  let b = Buffer.create 128 in
  Printf.bprintf b "%h %h" o.Swgmx.Kernel.elapsed
    (Swarch.Core_group.total_cost cg).Swarch.Cost.dma_bytes;
  (match o.Swgmx.Kernel.stats with
  | Some s ->
      Option.iter (stats_line b) s.Swgmx.Kernel_cpe.read_stats;
      Option.iter (stats_line b) s.Swgmx.Kernel_cpe.write_stats;
      Printf.bprintf b " %d %d" s.Swgmx.Kernel_cpe.marked_lines
        s.Swgmx.Kernel_cpe.total_lines
  | None -> ());
  Buffer.add_string b (Digest.to_hex (physics_digest o.Swgmx.Kernel.result));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Checks of one op beyond its digest: a serial run's forces sit in the
   envelope of the reference; a pipelined run's physics is bit-identical
   to the serial run of the same variant. *)
let check_physics r s ~serial v pipelined (o : Swgmx.Kernel.outcome) =
  let res = o.Swgmx.Kernel.result in
  if pipelined then begin
    let same = Hashtbl.find_opt serial v = Some (physics_digest res) in
    if not same then
      Report.problem r "%s: pipelined physics differs from serial" (V.name v);
    same
  end
  else begin
    Hashtbl.replace serial v (physics_digest res);
    let f = Md.Fbuf.create (Array.length s.ref_force) in
    K.scatter_forces s.p.Swbench.Common.sys res f;
    match Swverify.Buf.compare_arrays s.envelope s.ref_force (Md.Fbuf.to_array f) with
    | Ok _ -> true
    | Error _ ->
        Report.problem r "%s: forces outside %s of Mdcore.Nonbonded" (V.name v)
          (Swverify.Tol.to_string s.envelope);
        false
  end

let cases = List.concat_map (fun v -> [ (v, false); (v, true) ]) V.all

let check r ~pins ~seed s ~serial v pipelined o =
  let physics = check_physics r s ~serial v pipelined o in
  Report.check_digest r ~pins (key ~seed v pipelined) (outcome_digest s.cg o)
  && physics

(** [run ?particles ~pins ~seed ~seconds r] measures whole sweeps until
    [seconds] have passed.  Set-up (system, pair list, reference
    forces) runs five times. *)
let run ?(particles = particles) ~pins ~seed ~seconds r =
  let s = Report.setups r 5 (fun () -> setup ~seed ~particles) in
  let sys = s.p.Swbench.Common.sys and pairs = s.p.Swbench.Common.pairs in
  let serial = Hashtbl.create 8 in
  Report.repeat ~seconds (fun () ->
      List.iter
        (fun (v, pipelined) ->
          let o =
            Report.op r ~kind:(key ~seed v pipelined) (fun () ->
                Swgmx.Kernel.run ~pipelined sys pairs s.cg v)
          in
          if not (check r ~pins ~seed s ~serial v pipelined o) then
            Report.fail_op r)
        cases)

(* [Kernel.run ~pipelined:true] rebuilt from its public parts, with
   spans around the recording run and the replay. *)
let traced_pipelined spans s v =
  let cg = s.cg and cfg = s.cg.Swarch.Core_group.cfg in
  let sys = s.p.Swbench.Common.sys in
  Swarch.Core_group.reset cg;
  let recorder = Swsched.Recorder.create cfg in
  let result, stats =
    Span.record spans ("swsched.record." ^ vname v) (fun () ->
        let pairs =
          if v = V.Rca then Md.Pair_list.to_full s.p.Swbench.Common.pairs
          else s.p.Swbench.Common.pairs
        in
        Swgmx.Kernel_cpe.run ~sched:recorder sys pairs cg
          (Swgmx.Kernel_cpe.spec_of_variant v))
  in
  let sched =
    Span.record spans ("swsched.replay." ^ vname v) (fun () ->
        Swsched.Schedule.run cfg recorder)
  in
  {
    Swgmx.Kernel.result;
    elapsed =
      sched.Swsched.Schedule.elapsed
      +. Swarch.Mpe.time cfg cg.Swarch.Core_group.mpe;
    stats = Some stats;
    sched = Some sched;
  }

(* simulated counts of one op: DMA bytes and cache hit ratios of a
   serial run, replay events of a pipelined run *)
let counts s v pipelined (o : Swgmx.Kernel.outcome) =
  let metric m value unit_ = (name ^ "." ^ m ^ "." ^ vname v, value, unit_) in
  let hit_ratio m = Option.map (fun c -> metric m (Swcache.Stats.hit_ratio c) "1") in
  match (pipelined, o.Swgmx.Kernel.stats, o.Swgmx.Kernel.sched) with
  | false, stats, _ ->
      (if v = V.Ori then []
       else
         [
           metric "swarch.dma_bytes"
             (Swarch.Core_group.total_cost s.cg).Swarch.Cost.dma_bytes "bytes";
         ])
      @ (match stats with
        | Some st ->
            List.filter_map Fun.id
              [
                hit_ratio "swcache.read_hit_ratio" st.Swgmx.Kernel_cpe.read_stats;
                hit_ratio "swcache.write_hit_ratio" st.Swgmx.Kernel_cpe.write_stats;
              ]
        | None -> [])
  | true, _, Some sched ->
      [ metric "swsched.events" (float_of_int sched.Swsched.Schedule.events) "count" ]
  | true, _, None -> []

(** [profile ?particles ~pins ~seed ~seconds r] is the traced run: each
    sweep runs every case once untraced and once with spans.  The
    serial runs are spanned whole ([swgmx.kernel.<v>]); the pipelined
    runs of the CPE variants are split into the recording run and the
    replay.  [swsched.record.<v>] is reported as the recording run
    minus the serial run of the same variant. *)
let profile ?(particles = particles) ~pins ~seed ~seconds r =
  let s = setup ~seed ~particles in
  let sys = s.p.Swbench.Common.sys and pairs = s.p.Swbench.Common.pairs in
  let spans = Span.create () in
  let serial = Hashtbl.create 8 in
  let sweep_counts = ref [] in
  let plain_ms = ref 0.0 and traced_ms = ref 0.0 in
  let book v pipelined (o, ms, words) total =
    total := !total +. ms;
    let ok = check r ~pins ~seed s ~serial v pipelined o in
    Report.account r ~ops:1 ~words ~ok;
    o
  in
  Report.repeat ~seconds (fun () ->
      Report.calibrate r;
      sweep_counts :=
        List.concat_map
          (fun (v, pipelined) ->
            ignore
              (book v pipelined
                 (Report.timed (fun () ->
                      Swgmx.Kernel.run ~pipelined sys pairs s.cg v))
                 plain_ms);
            let o =
              book v pipelined
                (Report.timed (fun () ->
                     if pipelined && v <> V.Ori then traced_pipelined spans s v
                     else
                       Span.record spans ("swgmx.kernel." ^ vname v) (fun () ->
                           Swgmx.Kernel.run ~pipelined sys pairs s.cg v)))
                traced_ms
            in
            counts s v pipelined o)
          cases);
  let scale = Report.scale r in
  let per_call l = Span.metrics spans ~scale ~workload:name l in
  let kernels = List.concat_map (fun v -> per_call ("swgmx.kernel." ^ vname v)) V.all in
  let sched =
    List.concat_map
      (fun v ->
        let rec_ms, rec_words = Span.self_per_call spans ("swsched.record." ^ vname v) in
        let ser_ms, ser_words = Span.self_per_call spans ("swgmx.kernel." ^ vname v) in
        [
          (name ^ ".swsched.record." ^ vname v ^ "_ms", (rec_ms -. ser_ms) *. scale, "ms");
          (name ^ ".swsched.record." ^ vname v ^ "_words", rec_words -. ser_words, "words");
        ]
        @ per_call ("swsched.replay." ^ vname v))
      (List.filter (fun v -> v <> V.Ori) V.all)
  in
  r.Report.layers <-
    kernels @ sched @ !sweep_counts
    @ Span.ratios spans ~workload:name ~plain_ms:!plain_ms ~traced_ms:!traced_ms
