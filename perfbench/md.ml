(** [md-dynamics]: one op is one MD step of [Engine.simulate_protected]
    on a small water box with the Mark kernel (the Fig 13 path).  Each
    round restarts from the checkpoint made in set-up, checkpoints
    every 10 steps into a memory swstore through
    [Swstore.Objects.put_checkpoint] and reads the last checkpoint back
    with [get_checkpoint]; every round is the same trajectory, so every
    round must end in the same checkpoint bytes. *)

module E = Swgmx.Engine
module K = Swgmx.Kernel_common
module Md = Mdcore
module Ck = Swio.Checkpoint

let name = "md-dynamics"

type size = { molecules : int; round_steps : int }

(** 216 waters (648 atoms); rounds of 30 steps. *)
let size = { molecules = 216; round_steps = 30 }

(* checkpoint cadence; also the engine's pair-list interval *)
let every = 10

let key ~seed = Printf.sprintf "%s/seed%d" name seed

type state = { store : Swstore.Cache.t; start : Ck.t }

(** Set-up: minimisation plus [every] steps, checkpointed into a fresh
    memory store; the round restarts from that checkpoint. *)
let setup ~seed size =
  let store = Swstore.Cache.create (Swstore.Store.open_memory ()) in
  ignore
    (E.simulate_protected ~molecules:size.molecules ~seed ~steps:every
       ~sample_every:every ~checkpoint_every:every
       ~on_checkpoint:(Swstore.Objects.put_checkpoint store ~name:"setup")
       ());
  { store; start = Swstore.Objects.get_checkpoint store ~name:"setup" }

let samples_digest samples =
  String.concat ";"
    (List.map
       (fun (x : E.sample) ->
         Printf.sprintf "%d %h %h" x.E.step x.E.total_energy x.E.temperature)
       samples)

(* the round's simulated outputs: last checkpoint's bytes and samples *)
let digest ~bytes samples =
  Digest.to_hex (Digest.string (bytes ^ "\n" ^ samples_digest samples))

(* The store round-trip must give back the bytes that went in. *)
let check_round r ~pins ~seed ~put ~got samples =
  let bytes = Ck.to_string got in
  let round_trip = Ck.to_string put = bytes in
  if not round_trip then Report.problem r "store round-trip changed the checkpoint";
  Report.check_digest r ~pins (key ~seed) (digest ~bytes samples) && round_trip

(* One round through the engine.  A calibration loop runs before the
   round and at each checkpoint, so each segment runs between two
   loops; returns the (kind, host ms, reference ms) per step of each
   segment, the round's outputs and the (host ms, words) the loops
   took.  The first segment runs from the start of the round, so it
   carries the restart (water build, workflow set-up) too: the segments
   cover the whole round, as [words_per_op] does.  A segment's kind is
   its place in the round, as an op's kind is its place in a cycle. *)
let round r ~seed size s =
  let segs = ref [] and seg_start = ref 0.0 and last = ref None in
  let cal_ms = ref 0.0 and cal_words = ref 0.0 in
  let calibrate () =
    let (), ms, words = Report.timed (fun () -> Report.calibrate r) in
    cal_ms := !cal_ms +. ms;
    cal_words := !cal_words +. words;
    seg_start := Span.now_ms ()
  in
  let on_checkpoint ck =
    Swstore.Objects.put_checkpoint s.store ~name:"run" ck;
    last := Some ck;
    let ms = (Span.now_ms () -. !seg_start) /. float_of_int every in
    calibrate ();
    let kind = Printf.sprintf "to-step-%d" ck.Ck.step in
    segs := (kind, ms, Report.to_reference r ms) :: !segs
  in
  calibrate ();
  let samples, _, _ =
    E.simulate_protected ~molecules:size.molecules ~seed
      ~steps:(s.start.Ck.step + size.round_steps)
      ~sample_every:every ~checkpoint_every:every ~restart:s.start
      ~on_checkpoint ()
  in
  let got = Swstore.Objects.get_checkpoint s.store ~name:"run" in
  ((!segs, Option.get !last, got, samples), (!cal_ms, !cal_words))

let book_round r ~pins ~seed size ((segs, put, got, samples), words) =
  r.Report.samples <- segs @ r.Report.samples;
  let ok = check_round r ~pins ~seed ~put ~got samples in
  Report.account r ~ops:size.round_steps ~words ~ok

(* [round] timed, less its calibration loops: (outputs, host ms, words) *)
let timed_round r ~seed size s =
  let (outputs, (cal_ms, cal_words)), ms, words =
    Report.timed (fun () -> round r ~seed size s)
  in
  (outputs, ms -. cal_ms, words -. cal_words)

(** [run ?size ~pins ~seed ~seconds r] runs whole rounds until
    [seconds] have passed.  Set-up runs three times (it is the costly
    one). *)
let run ?(size = size) ~pins ~seed ~seconds r =
  let s = Report.setups r 3 (fun () -> setup ~seed size) in
  Report.repeat ~seconds (fun () ->
      let outputs, _, words = timed_round r ~seed size s in
      book_round r ~pins ~seed size (outputs, words))

(* The round rebuilt from the engine's public parts: the restart path
   of [Engine.simulate_protected] with Mark, no faults and a checkpoint
   every [every] steps, with a span around each layer call.  The digest
   check proves it computes the engine's trajectory. *)
let traced_round spans ~seed size s =
  let cfg = Swarch.Config.default in
  let st = Md.Water.build ~molecules:size.molecules ~seed () in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 0.9 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let dt = 0.001 in
  let config =
    {
      Md.Workflow.dt;
      nstlist = every;
      rlist = rcut;
      nb = params;
      pme_grid = Some 32;
      thermostat = Some (Md.Thermostat.create ~t_ref:300.0 ~tau:0.5 ());
    }
  in
  let n = Md.Md_state.n_atoms st in
  ignore (Ck.restore s.start ~pos:st.Md.Md_state.pos ~vel:st.Md.Md_state.vel);
  let w = Md.Workflow.create ~config st in
  let cg = Swarch.Core_group.create cfg in
  let energy = w.Md.Workflow.energy and charge = st.Md.Md_state.topo.Md.Topology.charge in
  let samples = ref [] and last = ref None in
  for step = s.start.Ck.step + 1 to s.start.Ck.step + size.round_steps do
    if (step - 1) mod every = 0 then
      Span.record spans "mdcore.pairlist" (fun () -> Md.Workflow.neighbour_search w);
    Md.Md_state.clear_forces st;
    let kin = energy.Md.Energy.kinetic in
    Md.Energy.reset energy;
    energy.Md.Energy.kinetic <- kin;
    let sys =
      Span.record spans "swgmx.package" (fun () ->
          K.make cfg ~box ~params ~cl:w.Md.Workflow.cluster
            ~topo:st.Md.Md_state.topo ~ff:st.Md.Md_state.ff
            ~pos:st.Md.Md_state.pos)
    in
    let o =
      Span.record spans "swgmx.kernel.mark" (fun () ->
          Swgmx.Kernel.run sys w.Md.Workflow.pairs cg Swgmx.Variant.Mark)
    in
    K.scatter_forces sys o.Swgmx.Kernel.result st.Md.Md_state.force;
    energy.Md.Energy.lj <- K.e_lj o.Swgmx.Kernel.result;
    energy.Md.Energy.coulomb_sr <- K.e_coul o.Swgmx.Kernel.result;
    Md.Nonbonded.excluded_corrections st params energy;
    Span.record spans "mdcore.pme" (fun () ->
        let pme = Option.get w.Md.Workflow.pme in
        Md.Pme.spread pme ~pos:st.Md.Md_state.pos ~charge ~n;
        let e_recip = Md.Pme.solve pme in
        Md.Pme.gather_forces pme ~pos:st.Md.Md_state.pos ~charge ~n
          ~force:st.Md.Md_state.force;
        energy.Md.Energy.coulomb_recip <-
          energy.Md.Energy.coulomb_recip +. e_recip
          +. Md.Coulomb.self_energy ~beta charge);
    Span.record spans "mdcore.update" (fun () ->
        let pos = st.Md.Md_state.pos and vel = st.Md.Md_state.vel in
        let ref_pos = w.Md.Workflow.ref_pos in
        Md.Fbuf.blit pos 0 ref_pos 0 (3 * n);
        Md.Integrator.step st ~dt;
        ignore (Md.Constraints.apply w.Md.Workflow.shake ~ref_pos ~pos);
        let inv_dt = 1.0 /. dt in
        for k = 0 to (3 * n) - 1 do
          Md.Fbuf.unsafe_set vel k
            ((Md.Fbuf.unsafe_get pos k -. Md.Fbuf.unsafe_get ref_pos k) *. inv_dt)
        done;
        Option.iter (fun th -> Md.Thermostat.apply th st ~dt) config.Md.Workflow.thermostat;
        energy.Md.Energy.kinetic <- Md.Md_state.kinetic_energy st);
    if step mod every = 0 then begin
      samples :=
        {
          E.step;
          total_energy = Md.Energy.total energy;
          temperature = Md.Md_state.temperature st;
        }
        :: !samples;
      let ck =
        Span.record spans "swio.ckpt_encode" (fun () ->
            let ck =
              Ck.capture ~platform:cfg.Swarch.Config.name ~step
                ~pos:st.Md.Md_state.pos ~vel:st.Md.Md_state.vel ~n_atoms:n ()
            in
            ignore (Ck.to_string ck);
            ck)
      in
      Span.record spans "swstore.put" (fun () ->
          Swstore.Objects.put_checkpoint s.store ~name:"run" ck);
      last := Some ck
    end
  done;
  let got =
    Span.record spans "swstore.get" (fun () ->
        Swstore.Objects.get_checkpoint s.store ~name:"run")
  in
  ([], Option.get !last, got, List.rev !samples)

(** [profile ?size ~pins ~seed ~seconds r] is the traced run: each
    round runs once through the engine and once through
    {!traced_round}.  Layer metrics are per call; [mdcore.pairlist]
    is called every [every] steps, the rest every step or every
    checkpoint.  [swstore.put] includes the encoding [put_checkpoint]
    does itself. *)
let profile ?(size = size) ~pins ~seed ~seconds r =
  let s = setup ~seed size in
  let spans = Span.create () in
  let plain_ms = ref 0.0 and traced_ms = ref 0.0 in
  Report.repeat ~seconds (fun () ->
      let outputs, ms, words = timed_round r ~seed size s in
      plain_ms := !plain_ms +. ms;
      book_round r ~pins ~seed size (outputs, words);
      let outputs, ms, words =
        Report.timed (fun () -> traced_round spans ~seed size s)
      in
      traced_ms := !traced_ms +. ms;
      book_round r ~pins ~seed size (outputs, words));
  r.Report.layers <-
    List.concat_map (Span.metrics spans ~scale:(Report.scale r) ~workload:name)
      [
        "mdcore.pairlist";
        "swgmx.package";
        "swgmx.kernel.mark";
        "mdcore.pme";
        "mdcore.update";
        "swio.ckpt_encode";
        "swstore.put";
        "swstore.get";
      ]
    @ Span.ratios spans ~workload:name ~plain_ms:!plain_ms ~traced_ms:!traced_ms
