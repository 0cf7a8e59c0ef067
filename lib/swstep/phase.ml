(** Declarative description of one MD step: the phase.

    A phase is a first-class value — a name, the Table-1 row it is
    accounted under, an executor saying how the planner prices it, and
    explicit dependency edges.  A step is an ordered list of phases
    plus the canonical row order; {!Plan} prices the phases through
    the single appropriate cost path, schedules them serially (the
    classic tiled timeline) or with communication overlapped behind
    independent compute (the paper's RDMA-hides-halo behaviour), and
    derives the Table-1 rows and the swtrace timeline from the graph
    instead of hand-tiling them. *)

type work = { flops : float; bytes : float }
(** Total work of an analytic phase (already multiplied out, not
    per-atom). *)

(** [per_atom ~flops ~bytes n] is the total work of [n] atoms at the
    given per-atom cost. *)
let per_atom ~flops ~bytes n =
  { flops = float_of_int n *. flops; bytes = float_of_int n *. bytes }

(** [add_work a b] combines two work loads. *)
let add_work a b = { flops = a.flops +. b.flops; bytes = a.bytes +. b.bytes }

(** [mpe_time cfg w] prices serial execution on the MPE (the original
    code paths): scalar issue width plus cache-side memory traffic. *)
let mpe_time (cfg : Swarch.Config.t) w =
  (w.flops /. cfg.Swarch.Config.mpe_flops_per_cycle
  /. cfg.Swarch.Config.mpe_freq_hz)
  +. (w.bytes /. cfg.Swarch.Config.mpe_mem_bw)

(** [cpe_time cfg w] prices the same work striped over the CPEs with
    DMA streaming at plateau bandwidth. *)
let cpe_time (cfg : Swarch.Config.t) w =
  let cpes = float_of_int cfg.Swarch.Config.cpe_count in
  (w.flops /. cpes /. cfg.Swarch.Config.cpe_freq_hz)
  +. (w.bytes /. Swarch.Config.peak_dma_bw cfg)

(** Which component of a {!Swcomm.Step_comm.breakdown} a [Comm] phase
    represents. *)
type comm_part = Halo | Pme_transpose | Energies | Domain_decomp

type executor =
  | Mpe_analytic of work  (** closed-form serial MPE path *)
  | Cpe_streamed of work  (** closed-form CPE + DMA streaming path *)
  | Simulated of (Swarch.Core_group.t -> float)
      (** real work on the simulated core group; returns elapsed
          simulated seconds.  The planner parks the MPE trace cursor at
          the phase's chip offset before calling, so spans the executor
          emits land inside the phase. *)
  | Comm of { request : Swcomm.Step_comm.params; part : comm_part }
      (** one component of the step's communication, priced through
          {!Swcomm.Step_comm.compute}; the request's [compute_time] is
          overwritten by the planner with the step's on-chip sync
          window (the summed durations of [sync] phases). *)
  | Amortized of int * t
      (** the inner phase's cost divided by an interval (neighbour
          search every [nstlist] steps, trajectory output every
          [steps_per_frame] steps). *)

and t = {
  name : string;  (** unique within the step; also the trace span name *)
  row : string;  (** Table-1 row label this phase is accounted under *)
  exec : executor;
  deps : string list;  (** names of phases that must finish first *)
  sync : bool;
      (** whether this phase's time counts toward the on-chip compute
          window that communication sync waits scale with; only
          meaningful on chip-side phases *)
}

(** [v ?deps ?sync ~row name exec] builds a phase. *)
let v ?(deps = []) ?(sync = false) ~row name exec =
  { name; row; exec; deps; sync }

(** The two resources a phase occupies: the core group (MPE + CPEs +
    I/O) or the interconnect. *)
type resource = Chip | Net

(** [resource_of exec] is the lane the executor runs on. *)
let rec resource_of = function
  | Comm _ -> Net
  | Amortized (_, inner) -> resource_of inner.exec
  | Mpe_analytic _ | Cpe_streamed _ | Simulated _ -> Chip

type step = {
  label : string;  (** step label, e.g. the Figure-10 version name *)
  rows : string list;  (** canonical row order of the derived table *)
  phases : t list;  (** serial tiling order *)
}

(** [validate step] checks the graph is well-formed: unique phase
    names, dependency edges pointing at existing phases, no cycles,
    [sync] only on chip phases, and every phase's row listed in
    [step.rows].  Raises [Invalid_argument] otherwise. *)
let validate step =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if Hashtbl.mem tbl p.name then
        invalid_arg (Printf.sprintf "Swstep: duplicate phase %S" p.name);
      Hashtbl.add tbl p.name p)
    step.phases;
  List.iter
    (fun p ->
      if p.sync && resource_of p.exec = Net then
        invalid_arg
          (Printf.sprintf "Swstep: comm phase %S cannot be in the sync window"
             p.name);
      if not (List.mem p.row step.rows) then
        invalid_arg
          (Printf.sprintf "Swstep: phase %S has unlisted row %S" p.name p.row);
      List.iter
        (fun d ->
          if d = p.name then
            invalid_arg (Printf.sprintf "Swstep: phase %S depends on itself" d);
          if not (Hashtbl.mem tbl d) then
            invalid_arg
              (Printf.sprintf "Swstep: phase %S depends on unknown %S" p.name d))
        p.deps)
    step.phases;
  (* cycle detection: DFS with colors *)
  let color = Hashtbl.create 16 in
  let rec visit name =
    match Hashtbl.find_opt color name with
    | Some `Done -> ()
    | Some `Active -> invalid_arg "Swstep: dependency cycle"
    | None ->
        Hashtbl.replace color name `Active;
        List.iter visit (Hashtbl.find tbl name).deps;
        Hashtbl.replace color name `Done
  in
  List.iter (fun p -> visit p.name) step.phases

(** [make ~label ~rows phases] assembles and validates a step. *)
let make ~label ~rows phases =
  let step = { label; rows; phases } in
  validate step;
  step
