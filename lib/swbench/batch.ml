(** The multi-run batch service: a manifest of N jobs scheduled
    sequentially over one persistent store, with repeats served from
    the store instead of re-simulated.

    Manifest syntax — one job per non-comment line, whitespace-
    separated [key=value] tokens::

      # water scaling sweep
      kind=measure  name=step-a platform=sw26010 version=Other plan=serial atoms=3000 n_cg=4
      kind=measure  name=step-b platform=sw26010 version=Ori   plan=serial atoms=3000 n_cg=4
      kind=simulate name=traj-a molecules=16 steps=20 seed=7 sample_every=5

    [kind] is required; everything else has a default.  [faults] takes
    the swfault plan spec syntax (comma-separated, no spaces) and
    [fault_seed] its RNG seed, so a degraded-machine job is one line.

    Every job's result is written through the store keyed by
    (platform, plan, workload, fault plan); a later job with the same
    key — in this batch or a past one, when the store directory
    persists — is reassembled from chunks and reported as served
    [store]. *)

type params = {
  version : Swgmx.Engine.version;
  plan : Swstep.Plan.mode;
  atoms : int;
  n_cg : int;
}

type dynamics = {
  molecules : int;
  steps : int;
  seed : int;
  sample_every : int;
}

type kind = Measure of params | Simulate of dynamics

type job = {
  name : string;
  kind : kind;
  platform : string option;  (** platform name; [None] = harness default *)
  faults : string;  (** swfault plan spec; [""] = healthy machine *)
  fault_seed : int;
}

(* --- manifest parsing ------------------------------------------------ *)

let fail_line ln fmt =
  Printf.ksprintf (fun m -> invalid_arg (Printf.sprintf "batch manifest line %d: %s" ln m)) fmt

(* the machine a job runs on: its named platform, or the active one *)
let platform_cfg = function
  | Some name -> Swarch.Platform.resolve name
  | None -> Common.cfg ()

let parse_line ln line : job option =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let tokens =
    List.filter (fun t -> t <> "")
      (String.split_on_char ' '
         (String.map (function '\t' -> ' ' | c -> c) line))
  in
  if tokens = [] then None
  else begin
    let fields =
      List.map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i ->
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
          | None -> fail_line ln "expected key=value, got %S" tok)
        tokens
    in
    let lookup k = List.assoc_opt k fields in
    let known =
      [ "kind"; "name"; "platform"; "version"; "plan"; "atoms"; "n_cg";
        "molecules"; "steps"; "seed"; "sample_every"; "faults"; "fault_seed" ]
    in
    List.iter
      (fun (k, _) ->
        if not (List.mem k known) then fail_line ln "unknown key %S" k)
      fields;
    let int_field k default =
      match lookup k with
      | None -> default
      | Some v -> (
          match int_of_string_opt v with
          | Some n when n > 0 -> n
          | _ -> fail_line ln "bad %s value %S" k v)
    in
    let kind =
      match lookup "kind" with
      | Some "measure" ->
          let version =
            match Option.value ~default:"Other" (lookup "version") with
            | "Ori" -> Swgmx.Engine.V_ori
            | "Cal" -> Swgmx.Engine.V_cal
            | "List" -> Swgmx.Engine.V_list
            | "Other" -> Swgmx.Engine.V_other
            | v -> fail_line ln "unknown version %S (Ori|Cal|List|Other)" v
          in
          let plan =
            let v = Option.value ~default:"serial" (lookup "plan") in
            match Swstep.Plan.mode_of_name v with
            | Some m -> m
            | None -> fail_line ln "unknown plan %S (serial|overlap)" v
          in
          Measure
            {
              version;
              plan;
              atoms = int_field "atoms" 3000;
              n_cg = int_field "n_cg" 4;
            }
      | Some "simulate" ->
          Simulate
            {
              molecules = int_field "molecules" 16;
              steps = int_field "steps" 20;
              seed = int_field "seed" 2019;
              sample_every = int_field "sample_every" 5;
            }
      | Some k -> fail_line ln "unknown kind %S (measure|simulate)" k
      | None -> fail_line ln "missing kind="
    in
    let platform = lookup "platform" in
    let faults = Option.value ~default:"" (lookup "faults") in
    (* resolve the platform and validate the fault spec against its CPE
       count here, so a bad manifest fails before any job runs *)
    (try
       ignore
         (Swfault.Plan.of_string
            ~cpes:(platform_cfg platform).Swarch.Platform.cpe_count faults)
     with Invalid_argument m -> fail_line ln "%s" m);
    Some
      {
        name = Option.value ~default:(Printf.sprintf "job%d" ln) (lookup "name");
        kind;
        platform;
        faults;
        fault_seed = int_field "fault_seed" 2027;
      }
  end

(** [parse_manifest text] parses a job manifest; malformed lines raise
    [Invalid_argument] with the line number. *)
let parse_manifest text =
  let jobs =
    List.filteri (fun _ j -> j <> None)
      (List.mapi (fun i l -> parse_line (i + 1) l) (String.split_on_char '\n' text))
  in
  List.map Option.get jobs

(* --- running ---------------------------------------------------------- *)

type outcome = {
  job : job;
  served : Common.source;
  headline : float;
      (** step time (measure, seconds) or final total energy (simulate) *)
  detail : (string * float) list;
  wall_s : float;  (** real wall-clock seconds this job took *)
}

let cfg_of job = platform_cfg job.platform

let injector_of job =
  let plan =
    Swfault.Plan.of_string ~cpes:(cfg_of job).Swarch.Platform.cpe_count job.faults
  in
  if Swfault.Plan.is_zero plan then None
  else Some (Swfault.Injector.create ~seed:job.fault_seed plan)

(* simulate results persist as sample lines; hex floats keep the
   stored trajectory bit-identical to the computed one *)
let samples_to_string samples =
  String.concat ""
    (List.map
       (fun (s : Swgmx.Engine.sample) ->
         Printf.sprintf "%d %h %h\n" s.Swgmx.Engine.step
           s.Swgmx.Engine.total_energy s.Swgmx.Engine.temperature)
       samples)

let samples_of_string text : (Swgmx.Engine.sample list, string) result =
  let parse line =
    match String.split_on_char ' ' line with
    | [ s; e; t ] -> (
        match (int_of_string_opt s, float_of_string_opt e, float_of_string_opt t)
        with
        | Some step, Some total_energy, Some temperature ->
            Some { Swgmx.Engine.step; total_energy; temperature }
        | _ -> None)
    | _ -> None
  in
  let rec go acc = function
    | [] | [ "" ] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse line with
        | Some s -> go (s :: acc) rest
        | None -> Error (Printf.sprintf "bad sample line %S" line))
  in
  go [] (String.split_on_char '\n' text)

let run_measure ~kv:_ job p =
  let cfg = cfg_of job in
  let faults = injector_of job in
  let m, served =
    Common.measure_via ~cfg ~plan:p.plan ?faults ~version:p.version
      ~total_atoms:p.atoms ~n_cg:p.n_cg ()
  in
  {
    job;
    served;
    headline = m.Swgmx.Engine.step_time;
    detail =
      ("atoms_per_cg", float_of_int m.Swgmx.Engine.atoms_per_cg)
      :: ("comm_hidden_s", m.Swgmx.Engine.step.Swstep.Plan.comm_hidden)
      :: List.map
           (fun (row, t) -> ("row:" ^ row, t))
           (Swgmx.Engine.rows m);
    wall_s = 0.0;
  }

let simulate_key job d =
  let cfg = cfg_of job in
  [
    "simulate";
    cfg.Swarch.Config.name;
    string_of_int d.molecules;
    string_of_int d.steps;
    string_of_int d.seed;
    string_of_int d.sample_every;
    (if job.faults = "" then "-"
     else Printf.sprintf "%s#%d" job.faults job.fault_seed);
    Common.exec_key ();
  ]

let run_simulate ~kv job d =
  let cfg = cfg_of job in
  let key = simulate_key job d in
  let samples, served =
    match Swstore.Kv.get kv ~key with
    | Some payload -> (
        match samples_of_string payload with
        | Ok samples -> (samples, Common.Stored)
        | Error msg ->
            Swstore.Error.raise_corrupt (Swstore.Error.Bad_header msg))
    | None ->
        let samples, _st, _stats =
          Swgmx.Engine.simulate_protected ~cfg ?faults:(injector_of job)
            ~molecules:d.molecules ~seed:d.seed ~steps:d.steps
            ~sample_every:d.sample_every ()
        in
        Swstore.Kv.put kv ~key (samples_to_string samples);
        (samples, Common.Computed)
  in
  let last =
    match List.rev samples with
    | s :: _ -> s
    | [] -> { Swgmx.Engine.step = 0; total_energy = 0.0; temperature = 0.0 }
  in
  {
    job;
    served;
    headline = last.Swgmx.Engine.total_energy;
    detail =
      [
        ("samples", float_of_int (List.length samples));
        ("final_step", float_of_int last.Swgmx.Engine.step);
        ("final_temperature", last.Swgmx.Engine.temperature);
      ];
    wall_s = 0.0;
  }

(* the store key a job will read/write — wave scheduling groups jobs
   by it so a repeat never races its first occurrence *)
let job_key job =
  match job.kind with
  | Measure p ->
      Common.store_key (cfg_of job) ~version:p.version ~plan:p.plan
        ~total_atoms:p.atoms ~n_cg:p.n_cg ~faults:(injector_of job)
  | Simulate d -> simulate_key job d

(** [run ~kv jobs] executes the jobs over the shared store and returns
    the outcomes in manifest order plus the batch's wall-clock seconds.
    The caller is expected to have installed [kv] as the measure store
    ({!Common.set_measure_store}) so measure repeats resolve through
    it.

    With [--domains 1] — or while tracing, whose simulated clocks
    assume one job at a time — jobs run sequentially in manifest
    order.  Otherwise they run in two deterministic waves over the
    domain pool: wave one computes the first occurrence of every store
    key (distinct keys, so concurrent jobs never contend for a
    result), wave two serves the repeats from the now-warm store.
    Which jobs land in which wave depends only on the manifest, so
    each job's [served] classification — and everything else except
    the [wall_s] fields — is identical at every domain count. *)
let run ~kv jobs =
  let t0 = Unix.gettimeofday () in
  let timed job =
    let t1 = Unix.gettimeofday () in
    let o =
      match job.kind with
      | Measure p -> run_measure ~kv job p
      | Simulate d -> run_simulate ~kv job d
    in
    { o with wall_s = Unix.gettimeofday () -. t1 }
  in
  let outcomes =
    if Swtrace.Trace.enabled () || Swpar.Domains.get () = 1 then
      List.map timed jobs
    else begin
      let jobs = Array.of_list jobs in
      let seen = Hashtbl.create 8 in
      let first =
        Array.map
          (fun job ->
            let k = job_key job in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          jobs
      in
      let results = Array.make (Array.length jobs) None in
      let wave want =
        let idxs = ref [] in
        Array.iteri (fun i f -> if f = want then idxs := i :: !idxs) first;
        let idxs = Array.of_list (List.rev !idxs) in
        let outs = Swpar.Pool.map_array (fun i -> timed jobs.(i)) idxs in
        Array.iteri (fun k i -> results.(i) <- Some outs.(k)) idxs
      in
      wave true;
      wave false;
      Array.to_list (Array.map Option.get results)
    end
  in
  (outcomes, Unix.gettimeofday () -. t0)

(* --- reporting -------------------------------------------------------- *)

let kind_name job =
  match job.kind with Measure _ -> "measure" | Simulate _ -> "simulate"

(* the batch-level speedup: what the jobs took end to end, against
   what they would have taken back to back *)
let speedup ~wall_s outcomes =
  let serial = List.fold_left (fun acc o -> acc +. o.wall_s) 0.0 outcomes in
  (serial, if wall_s > 0.0 then serial /. wall_s else 1.0)

(** [report ppf ~kv ~cache ~wall_s outcomes] prints the combined batch
    report: one line per job (with its wall-clock), the store's traffic
    counters, and the batch-level wall-clock/speedup summary. *)
let report ppf ~kv ~cache ~wall_s outcomes =
  Fmt.pf ppf "%-20s %-9s %-9s %14s %10s@." "job" "kind" "served" "headline"
    "wall_ms";
  List.iter
    (fun o ->
      Fmt.pf ppf "%-20s %-9s %-9s %14.6e %10.1f@." o.job.name (kind_name o.job)
        (Common.source_name o.served)
        o.headline (o.wall_s *. 1e3))
    outcomes;
  let ks = Swstore.Kv.stats kv and cs = Swstore.Cache.stats cache in
  Fmt.pf ppf "store: %d of %d jobs served from store@."
    (List.length (List.filter (fun o -> o.served = Common.Stored) outcomes))
    (List.length outcomes);
  let serial, sp = speedup ~wall_s outcomes in
  Fmt.pf ppf "batch wall: %.1f ms over %d domains (jobs sum %.1f ms, speedup %.2fx)@."
    (wall_s *. 1e3) (Swpar.Domains.get ()) (serial *. 1e3) sp;
  Fmt.pf ppf "store keys: %d hits, %d misses@." ks.Swcache.Stats.hits
    ks.Swcache.Stats.misses;
  Fmt.pf ppf "store chunks: %d hits, %d misses, %d evictions, %d writes, %d stored@."
    cs.Swcache.Stats.hits cs.Swcache.Stats.misses cs.Swcache.Stats.evictions
    cs.Swcache.Stats.writebacks
    (Swstore.Store.chunk_count (Swstore.Cache.store cache))

(** [json_report ~kv ~cache ~wall_s outcomes] is the machine-readable
    combined report (the CI artifact).  The [wall_*] keys and per-job
    [wall_ms] are real wall-clock and legitimately vary run to run;
    everything else is deterministic across domain counts. *)
let json_report ~kv ~cache ~wall_s outcomes =
  let module J = Swtrace.Json in
  let ks = Swstore.Kv.stats kv and cs = Swstore.Cache.stats cache in
  let serial, sp = speedup ~wall_s outcomes in
  J.Obj
    [
      ( "jobs",
        J.Arr
          (List.map
             (fun o ->
               J.Obj
                 [
                   ("name", J.Str o.job.name);
                   ("kind", J.Str (kind_name o.job));
                   ("platform",
                    J.Str (cfg_of o.job).Swarch.Config.name);
                   ("faults", J.Str o.job.faults);
                   ("served", J.Str (Common.source_name o.served));
                   ("headline", J.Num o.headline);
                   ("detail",
                    J.Obj (List.map (fun (k, v) -> (k, J.Num v)) o.detail));
                   ("wall_ms", J.Num (o.wall_s *. 1e3));
                 ])
             outcomes) );
      ( "batch",
        J.Obj
          [
            ("domains", J.Num (float_of_int (Swpar.Domains.get ())));
            ("wall_batch_ms", J.Num (wall_s *. 1e3));
            ("wall_jobs_ms", J.Num (serial *. 1e3));
            ("wall_speedup", J.Num sp);
          ] );
      ( "store",
        J.Obj
          [
            ("key_hits", J.Num (float_of_int ks.Swcache.Stats.hits));
            ("key_misses", J.Num (float_of_int ks.Swcache.Stats.misses));
            ("chunk_hits", J.Num (float_of_int cs.Swcache.Stats.hits));
            ("chunk_misses", J.Num (float_of_int cs.Swcache.Stats.misses));
            ("chunk_evictions", J.Num (float_of_int cs.Swcache.Stats.evictions));
            ("chunk_writebacks", J.Num (float_of_int cs.Swcache.Stats.writebacks));
            ("chunks_stored",
             J.Num (float_of_int (Swstore.Store.chunk_count (Swstore.Cache.store cache))));
            ("cache_bytes", J.Num (float_of_int (Swstore.Cache.used_bytes cache)));
          ] );
    ]
