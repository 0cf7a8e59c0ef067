(* The injector answers "does fault X strike here?" deterministically
   (counter-based RNG, see Rng) and owns the fault track of the trace:
   every injection gets a numeric id that the matching recovery event
   repeats, which is what swtrace_lint pairs up. *)

type t = {
  plan : Plan.t;
  seed : int;
  mutable next_fault : int;  (** next injection id *)
  mutable link_seq : int;  (** per-message counter for the link stream *)
  consumed_flips : (int, unit) Hashtbl.t;
      (** steps whose LDM flip already fired — a flip strikes a step at
          most once, so the rollback-and-replay loop terminates *)
  mutable injected : int;
  mutable recovered : int;
  mutable dma_errors : int;
  mutable link_drops : int;
  mutable flips : int;
}

(* [plan] comes validated for its platform ({!Plan.of_string}). *)
let create ?(seed = 2027) plan =
  {
    plan;
    seed;
    next_fault = 0;
    link_seq = 0;
    consumed_flips = Hashtbl.create 7;
    injected = 0;
    recovered = 0;
    dma_errors = 0;
    link_drops = 0;
    flips = 0;
  }

let plan t = t.plan
let seed t = t.seed

(* RNG stream ids: one per fault kind so decisions never alias. *)
let stream_dma = 1
let stream_link = 2
let stream_flip = 3

(* -- decisions ----------------------------------------------------- *)

(* Per (transfer id, attempt): retries of the same transfer redraw. *)
let dma_error t ~id ~attempt =
  t.plan.Plan.dma_error_rate > 0.0
  && Rng.uniform ~seed:t.seed ~stream:stream_dma ~index:((id * 64) + attempt)
     < t.plan.Plan.dma_error_rate
  && (t.dma_errors <- t.dma_errors + 1;
      true)

(* Consumes one point of the link stream per call — callers must ask
   once per message, in message order, for determinism. *)
let link_drop t =
  let i = t.link_seq in
  t.link_seq <- i + 1;
  t.plan.Plan.link_drop_rate > 0.0
  && Rng.uniform ~seed:t.seed ~stream:stream_link ~index:i
     < t.plan.Plan.link_drop_rate
  && (t.link_drops <- t.link_drops + 1;
      true)

(* A flip strikes a given step at most once ever (consumed set): after
   the rollback the replayed step is clean, so recovery terminates. *)
let ldm_flip t ~step =
  t.plan.Plan.ldm_flip_rate > 0.0
  && (not (Hashtbl.mem t.consumed_flips step))
  && Rng.uniform ~seed:t.seed ~stream:stream_flip ~index:step
     < t.plan.Plan.ldm_flip_rate
  && (Hashtbl.add t.consumed_flips step ();
      t.flips <- t.flips + 1;
      true)

(* -- static plan accessors ----------------------------------------- *)

let dead t = t.plan.Plan.cpe_dead
let cpe_slowdown t id = try List.assoc id t.plan.Plan.cpe_slowdown with Not_found -> 1.0
let cpe_stall t id = try List.assoc id t.plan.Plan.cpe_stall_s with Not_found -> 0.0
let dma_max_retries t = t.plan.Plan.dma_max_retries
let dma_backoff t ~attempt = t.plan.Plan.dma_backoff_s *. (2.0 ** float attempt)
let link_degrade t = t.plan.Plan.link_degrade
let link_timeout t = t.plan.Plan.link_timeout_s

let links_clean t =
  t.plan.Plan.link_degrade = 1.0 && t.plan.Plan.link_drop_rate = 0.0

(* -- trace events -------------------------------------------------- *)

(* Injection/recovery instants on the fault track, paired by the "id"
   arg.  [Trace.instant] is internally a no-op when tracing is off —
   fault bookkeeping never depends on whether a caller asked for a
   trace. *)

let fresh t =
  let id = t.next_fault in
  t.next_fault <- id + 1;
  t.injected <- t.injected + 1;
  id

let note_recovered t = t.recovered <- t.recovered + 1

let inject t ~kind ?(args = []) () =
  let id = fresh t in
  Swtrace.Trace.instant ~cat:"fault"
    ~args:(("id", float_of_int id) :: args)
    Swtrace.Track.Fault
    ("inject:" ^ kind);
  id

let recover t ~id ~kind ?(dur = 0.0) ?(args = []) () =
  note_recovered t;
  let args = ("id", float_of_int id) :: args in
  if dur > 0.0 then
    Swtrace.Trace.span_here ~cat:"fault" ~args Swtrace.Track.Fault
      ("recover:" ^ kind) ~dur
  else
    Swtrace.Trace.instant ~cat:"fault" ~args Swtrace.Track.Fault
      ("recover:" ^ kind)

(* -- stats --------------------------------------------------------- *)

type stats = {
  injections : int;
  recoveries : int;
  dma_error_count : int;
  link_drop_count : int;
  flip_count : int;
}

let stats t =
  {
    injections = t.injected;
    recoveries = t.recovered;
    dma_error_count = t.dma_errors;
    link_drop_count = t.link_drops;
    flip_count = t.flips;
  }

let pp_stats ppf s =
  Fmt.pf ppf "%d injected / %d recovered (dma %d, link %d, flip %d)"
    s.injections s.recoveries s.dma_error_count s.link_drop_count s.flip_count
