(* Declarative fault plan: what can go wrong, how often, and what the
   recovery knobs cost.  Parsed from the CLI as a comma-separated
   [key=value] spec; [zero] is the plan under which every output of the
   stack is bit-identical to a build without fault injection. *)

type t = {
  dma_error_rate : float;  (** per-transfer probability of a DMA error *)
  dma_backoff_s : float;  (** base backoff before the first retry *)
  dma_max_retries : int;  (** attempts before the fault is unrecoverable *)
  link_degrade : float;  (** multiplier (>= 1) on halo message cost *)
  link_drop_rate : float;  (** per-message probability of a dropped halo *)
  link_timeout_s : float;  (** detection timeout charged per dropped halo *)
  cpe_slowdown : (int * float) list;  (** (cpe id, compute multiplier > 0) *)
  cpe_stall_s : (int * float) list;  (** (cpe id, one-off stall per kernel) *)
  cpe_dead : int list;  (** permanently failed CPEs *)
  ldm_flip_rate : float;  (** per-step probability of an LDM bit flip *)
}

let zero =
  {
    dma_error_rate = 0.0;
    dma_backoff_s = 2e-6;
    dma_max_retries = 8;
    link_degrade = 1.0;
    link_drop_rate = 0.0;
    link_timeout_s = 1e-4;
    cpe_slowdown = [];
    cpe_stall_s = [];
    cpe_dead = [];
    ldm_flip_rate = 0.0;
  }

let is_zero p =
  p.dma_error_rate = 0.0 && p.link_degrade = 1.0 && p.link_drop_rate = 0.0
  && p.cpe_slowdown = [] && p.cpe_stall_s = [] && p.cpe_dead = []
  && p.ldm_flip_rate = 0.0

(* [validate ~cpes p] checks [p] against a core group of [cpes] CPEs:
   the platform the plan runs on, never a fixed machine. *)
let validate ~cpes p =
  let rate name r =
    if not (r >= 0.0 && r <= 1.0) then
      invalid_arg (Printf.sprintf "fault plan: %s=%g not in [0,1]" name r)
  in
  rate "dma_error" p.dma_error_rate;
  rate "link_drop" p.link_drop_rate;
  rate "ldm_flip" p.ldm_flip_rate;
  if not (p.link_degrade >= 1.0) then
    invalid_arg (Printf.sprintf "fault plan: link_degrade=%g < 1" p.link_degrade);
  if not (p.dma_backoff_s > 0.0) then
    invalid_arg "fault plan: dma_backoff must be > 0";
  if not (p.link_timeout_s > 0.0) then
    invalid_arg "fault plan: link_timeout must be > 0";
  if p.dma_max_retries < 1 then invalid_arg "fault plan: dma_retries must be >= 1";
  let cpe_id name id =
    if id < 0 || id >= cpes then
      invalid_arg (Printf.sprintf "fault plan: %s CPE id %d not in [0,%d)" name id cpes)
  in
  List.iter (fun id -> cpe_id "dead" id) p.cpe_dead;
  if List.length (List.sort_uniq compare p.cpe_dead) <> List.length p.cpe_dead
  then invalid_arg "fault plan: duplicate dead CPE ids";
  if List.length p.cpe_dead >= cpes then
    invalid_arg "fault plan: all CPEs dead — nothing left to re-stripe onto";
  List.iter
    (fun (id, f) ->
      cpe_id "slowdown" id;
      if not (f > 0.0) then
        invalid_arg (Printf.sprintf "fault plan: slowdown factor %g <= 0" f))
    p.cpe_slowdown;
  List.iter
    (fun (id, s) ->
      cpe_id "stall" id;
      if not (s >= 0.0) then
        invalid_arg (Printf.sprintf "fault plan: stall %g < 0" s))
    p.cpe_stall_s;
  p

(* Spec syntax: comma-separated [key=value]; [cpe_slow]/[cpe_stall]
   take [id:factor] and may repeat, [cpe_dead] takes an id and may
   repeat.  Empty string is the zero plan.  The result is validated
   against [cpes], the CPE count of the platform it will run on. *)
let of_string ~cpes s =
  let fail fmt = Printf.ksprintf invalid_arg ("fault plan: " ^^ fmt) in
  let float_of k v =
    match float_of_string_opt v with
    | Some f when Float.is_finite f -> f
    | _ -> fail "%s: bad float %S" k v
  in
  let int_of k v =
    match int_of_string_opt v with Some i -> i | None -> fail "%s: bad int %S" k v
  in
  let id_factor k v =
    match String.split_on_char ':' v with
    | [ id; f ] -> (int_of k id, float_of k f)
    | _ -> fail "%s: expected ID:FACTOR, got %S" k v
  in
  let p = ref zero in
  String.split_on_char ',' s
  |> List.iter (fun item ->
         let item = String.trim item in
         if item <> "" then
           match String.index_opt item '=' with
           | None -> fail "expected key=value, got %S" item
           | Some i ->
               let k = String.sub item 0 i
               and v = String.sub item (i + 1) (String.length item - i - 1) in
               let q = !p in
               p :=
                 (match k with
                 | "dma_error" -> { q with dma_error_rate = float_of k v }
                 | "dma_backoff" -> { q with dma_backoff_s = float_of k v }
                 | "dma_retries" -> { q with dma_max_retries = int_of k v }
                 | "link_degrade" -> { q with link_degrade = float_of k v }
                 | "link_drop" -> { q with link_drop_rate = float_of k v }
                 | "link_timeout" -> { q with link_timeout_s = float_of k v }
                 | "ldm_flip" -> { q with ldm_flip_rate = float_of k v }
                 | "cpe_dead" -> { q with cpe_dead = int_of k v :: q.cpe_dead }
                 | "cpe_slow" ->
                     { q with cpe_slowdown = id_factor k v :: q.cpe_slowdown }
                 | "cpe_stall" ->
                     { q with cpe_stall_s = id_factor k v :: q.cpe_stall_s }
                 | _ -> fail "unknown key %S" k));
  validate ~cpes !p

let to_string p =
  let b = Buffer.create 64 in
  let add fmt = Printf.ksprintf (fun s ->
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b s) fmt in
  if p.dma_error_rate <> 0.0 then add "dma_error=%g" p.dma_error_rate;
  if p.dma_backoff_s <> zero.dma_backoff_s then add "dma_backoff=%g" p.dma_backoff_s;
  if p.dma_max_retries <> zero.dma_max_retries then
    add "dma_retries=%d" p.dma_max_retries;
  if p.link_degrade <> 1.0 then add "link_degrade=%g" p.link_degrade;
  if p.link_drop_rate <> 0.0 then add "link_drop=%g" p.link_drop_rate;
  if p.link_timeout_s <> zero.link_timeout_s then add "link_timeout=%g" p.link_timeout_s;
  if p.ldm_flip_rate <> 0.0 then add "ldm_flip=%g" p.ldm_flip_rate;
  List.iter (fun id -> add "cpe_dead=%d" id) (List.rev p.cpe_dead);
  List.iter (fun (id, f) -> add "cpe_slow=%d:%g" id f) (List.rev p.cpe_slowdown);
  List.iter (fun (id, s) -> add "cpe_stall=%d:%g" id s) (List.rev p.cpe_stall_s);
  Buffer.contents b

let pp ppf p = Fmt.string ppf (to_string p)
