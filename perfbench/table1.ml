(** [table1-step]: one op is one [Engine.measure] of the Table-1
    system (Serial plan, not pipelined), cycling V_ori -> V_cal ->
    V_list -> V_other.  [Engine.measure] is called directly: the
    [Swbench.Common.measure] memo or store would serve repeats.  The
    engine builds its water from a fixed seed (2019), so the bench
    seed does not reach this workload. *)

module E = Swgmx.Engine
module K = Swgmx.Kernel_common
module Md = Mdcore
module P = Swstep.Phase

let name = "table1-step"

type size = { total_atoms : int; n_cg : int }

(** Table 1: 24,000 atoms over 8 core groups. *)
let size = { total_atoms = 24_000; n_cg = 8 }

let key v = name ^ "/" ^ E.version_name v

let measure size v =
  E.measure ~plan:Swstep.Plan.Serial ~pipelined:false ~version:v
    ~total_atoms:size.total_atoms ~n_cg:size.n_cg ()

let digest m = Digest.to_hex (Digest.string (E.measurement_to_string m))

let kernel_layer (v : Swgmx.Variant.t) =
  "swgmx.kernel." ^ String.lowercase_ascii (Swgmx.Variant.name v)

(* The measure op rebuilt from the engine's public parts, with a span
   around each layer call: system build, package, and the swstep
   pricing, whose neighbour-search and force executors are wrapped so
   the pricing's self time is what is left.  Returns the measurement
   [Engine.measure] returns; the digest check proves it. *)
let traced_measure spans size v =
  let cfg = Swarch.Config.default in
  Swarch.Config.validate cfg;
  let step_t0 = Swtrace.Trace.now Swtrace.Track.Mpe in
  let f = E.features_of_version v in
  let atoms_per_cg = max 12 ((size.total_atoms + (size.n_cg / 2)) / size.n_cg) in
  let molecules = max 4 (atoms_per_cg / 3) in
  let st, cl =
    Span.record spans "mdcore.build" (fun () ->
        let st = Md.Water.build ~molecules ~seed:2019 () in
        let n = Md.Md_state.n_atoms st in
        (st, Md.Cluster.build st.Md.Md_state.box st.Md.Md_state.pos n))
  in
  let n = Md.Md_state.n_atoms st in
  let box = st.Md.Md_state.box in
  let rcut = Float.min 1.0 (0.45 *. Md.Box.min_edge box) in
  let beta = Md.Coulomb.ewald_beta ~rc:rcut ~tolerance:1e-5 in
  let params = { Md.Nonbonded.rcut; elec = Md.Nonbonded.Ewald_real beta } in
  let sys =
    Span.record spans "swgmx.package" (fun () ->
        K.make cfg ~box ~params ~cl ~topo:st.Md.Md_state.topo
          ~ff:st.Md.Md_state.ff ~pos:st.Md.Md_state.pos)
  in
  let cg = Swarch.Core_group.create cfg in
  let pairs = ref None and ns_stats = ref None and outcome = ref None in
  let rec wrap (p : P.t) =
    let layer =
      match p.P.name with
      | "nsearch-pass" -> Some "swgmx.nsearch"
      | "force" -> Some (kernel_layer f.E.force)
      | _ -> None
    in
    match (p.P.exec, layer) with
    | P.Simulated exec, Some layer ->
        let exec cg = Span.record spans layer (fun () -> exec cg) in
        { p with P.exec = P.Simulated exec }
    | P.Amortized (k, inner), _ ->
        { p with P.exec = P.Amortized (k, wrap inner) }
    | _ -> p
  in
  let phases =
    E.phases_of_features cfg f ~sys ~n ~box ~rcut
      ~total_atoms:size.total_atoms ~n_cg:size.n_cg ~nstlist:10
      ~steps_per_frame:100 ~pipelined:false ~faults:None ~pairs ~ns_stats
      ~outcome
  in
  let step =
    P.make ~label:(E.version_name v) ~rows:E.table1_rows (List.map wrap phases)
  in
  let result =
    Span.record spans "swstep.price" (fun () ->
        Swstep.Plan.run ~mode:Swstep.Plan.Serial ~cfg ~cg ~t0:step_t0 step)
  in
  let read_miss =
    match !outcome with
    | Some
        {
          Swgmx.Kernel.stats =
            Some { Swgmx.Kernel_cpe.read_stats = Some s; _ };
          _;
        } ->
        Swcache.Stats.miss_ratio s
    | _ -> 0.0
  in
  let nsearch_miss =
    match !ns_stats with Some s -> s.Swgmx.Nsearch_cpe.miss_ratio | None -> 0.0
  in
  {
    E.step = result;
    step_time = result.Swstep.Plan.total;
    atoms_per_cg = n;
    global_atoms = n * size.n_cg;
    read_miss;
    nsearch_miss;
  }

(** [run ?size ~pins ~seconds r] measures whole cycles until [seconds]
    have passed.  Set-up is the warm-up op (V_ori), five times. *)
let run ?(size = size) ~pins ~seconds r =
  ignore (Report.setups r 5 (fun () -> measure size E.V_ori));
  Report.repeat ~seconds (fun () ->
      List.iter
        (fun v ->
          let m = Report.op r ~kind:(key v) (fun () -> measure size v) in
          if not (Report.check_digest r ~pins (key v) (digest m)) then
            Report.fail_op r)
        E.versions)

(** [profile ?size ~pins ~seconds r] is the traced run: each cycle
    prices every version once untraced and once through
    {!traced_measure}, until [seconds] have passed. *)
let profile ?(size = size) ~pins ~seconds r =
  let spans = Span.create () in
  let plain_ms = ref 0.0 and traced_ms = ref 0.0 in
  Report.repeat ~seconds (fun () ->
      Report.calibrate r;
      List.iter
        (fun v ->
          let m, ms, words = Report.timed (fun () -> measure size v) in
          plain_ms := !plain_ms +. ms;
          let ok = Report.check_digest r ~pins (key v) (digest m) in
          Report.account r ~ops:1 ~words ~ok;
          let m, ms, words =
            Report.timed (fun () -> traced_measure spans size v)
          in
          traced_ms := !traced_ms +. ms;
          let ok = Report.check_digest r ~pins (key v) (digest m) in
          Report.account r ~ops:1 ~words ~ok)
        E.versions);
  let layers =
    [
      "mdcore.build";
      "swgmx.package";
      "swgmx.nsearch";
      "swgmx.kernel.ori";
      "swgmx.kernel.mark";
      "swstep.price";
    ]
  in
  r.Report.layers <-
    List.concat_map (Span.metrics spans ~scale:(Report.scale r) ~workload:name)
      layers
    @ Span.ratios spans ~workload:name ~plain_ms:!plain_ms ~traced_ms:!traced_ms
