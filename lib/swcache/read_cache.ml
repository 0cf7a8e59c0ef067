(** Software read cache in LDM: direct-mapped (Figure 3 of the paper)
    or two-way set-associative with LRU (Section 3.5).

    An element index is decomposed into tag / set / offset by bit
    operations; on a tag mismatch the whole line is fetched from main
    memory by one DMA transfer, which is what turns many tiny accesses
    into few large ones.  The backing store is a flat [float array] of
    [elt_floats]-float elements; the LDM footprint counts 4-byte
    floats (data is single precision on the CPEs). *)

type t = {
  cfg : Swarch.Config.t;
  cost : Swarch.Cost.t;  (** CPE cost accumulator charged for DMA/tag math *)
  backing : float array;  (** main-memory array (read-only here) *)
  elt_floats : int;  (** floats per element *)
  line_elts : int;  (** elements per cache line; power of two *)
  n_lines : int;  (** number of lines over all ways; power of two *)
  ways : int;  (** associativity: 1 (direct-mapped) or 2 *)
  n_sets : int;  (** [n_lines / ways] *)
  tag_ops : float;  (** int ops charged per access: [3 + ways] *)
  tags : int array;  (** per-slot tag ([set * ways + way]), [-1] = invalid *)
  lru : int array;  (** two-way: per-set least recently used way, else [||] *)
  data : float array;  (** cached lines, [n_lines * line_elts * elt_floats] *)
  stats : Stats.t;
  line_bytes : int;  (** DMA transfer size of one line fill *)
  ldm : Swarch.Ldm.t option;  (** scratchpad the cache lives in, if tracked *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_ways ways =
  if ways <> 1 && ways <> 2 then
    invalid_arg (Printf.sprintf "Read_cache: ways must be 1 or 2 (got %d)" ways)

(** [footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines] is the LDM
    cost of such a cache: data lines (4-byte floats), the tag array
    and, with two ways, one LRU byte per set. *)
let footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines =
  check_ways ways;
  (n_lines * line_elts * elt_floats * 4)
  + (n_lines * 4)
  + if ways = 2 then n_lines / 2 else 0

(** [create cfg cost ?ldm ~backing ~ways ~elt_floats ~line_elts ~n_lines
    ()] builds an empty cache of [n_lines] lines in [n_lines / ways]
    sets in front of [backing], in [ldm] when given. *)
let create (cfg : Swarch.Config.t) cost ?ldm ~backing ~ways ~elt_floats
    ~line_elts ~n_lines () =
  check_ways ways;
  if elt_floats <= 0 then invalid_arg "Read_cache: elt_floats must be positive";
  if not (is_pow2 line_elts) then invalid_arg "Read_cache: line_elts must be a power of two";
  if not (is_pow2 n_lines) then invalid_arg "Read_cache: n_lines must be a power of two";
  if n_lines < ways then invalid_arg "Read_cache: n_lines must be at least ways";
  let line_bytes = line_elts * elt_floats * 4 in
  (match ldm with
  | Some l ->
      Swarch.Ldm.alloc l (footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines)
  | None -> ());
  {
    cfg;
    cost;
    backing;
    elt_floats;
    line_elts;
    n_lines;
    ways;
    n_sets = n_lines / ways;
    tag_ops = float_of_int (3 + ways);
    tags = Array.make n_lines (-1);
    lru = (if ways = 2 then Array.make (n_lines / 2) 0 else [||]);
    data = Array.make (n_lines * line_elts * elt_floats) 0.0;
    stats = Stats.create ();
    line_bytes;
    ldm;
  }

(** [release t] returns the cache's LDM allocation, if any. *)
let release t =
  match t.ldm with
  | Some l ->
      Swarch.Ldm.free l
        (footprint_bytes ~ways:t.ways ~elt_floats:t.elt_floats
           ~line_elts:t.line_elts ~n_lines:t.n_lines)
  | None -> ()

(** [stats t] is the cache's hit/miss record. *)
let stats t = t.stats

(** [data t] is the cache's line storage, where {!touch} offsets point. *)
let data t = t.data

let n_elements t = Array.length t.backing / t.elt_floats

let hit t slot =
  t.stats.Stats.hits <- t.stats.Stats.hits + 1;
  slot

(* Fig 3 step 3: evict the set's only way or (two-way) its least
   recently used one and fetch the line from MPE memory; partial tail
   lines still pay a full-line DMA. *)
let miss t base set mem_line tag =
  let slot = if t.ways = 2 then base + t.lru.(set) else base in
  t.stats.Stats.misses <- t.stats.Stats.misses + 1;
  if t.tags.(slot) >= 0 then t.stats.Stats.evictions <- t.stats.Stats.evictions + 1;
  let src = mem_line * t.line_elts * t.elt_floats in
  let len = min (t.line_elts * t.elt_floats) (Array.length t.backing - src) in
  if len > 0 then
    Array.blit t.backing src t.data (slot * t.line_elts * t.elt_floats) len;
  Swarch.Dma.get t.cfg t.cost ~bytes:t.line_bytes;
  t.tags.(slot) <- tag;
  slot

(** [touch t i] ensures element [i] is resident, charging tag
    arithmetic and, on a miss, one line-sized DMA fetch.  Returns the
    offset of the element's first float inside the cache [data]. *)
let touch t i =
  if i < 0 || i >= n_elements t then invalid_arg "Read_cache.touch: bad index";
  (* Fig 3 step 1: decompose address by bit operations. *)
  Swarch.Cost.int_ops t.cost t.tag_ops;
  let mem_line = i / t.line_elts in
  let set = mem_line land (t.n_sets - 1) in
  let tag = mem_line / t.n_sets in
  let base = set * t.ways in
  (* step 2: compare the tag with each way of the set. *)
  let slot =
    if t.tags.(base) = tag then hit t base
    else if t.ways = 2 && t.tags.(base + 1) = tag then hit t (base + 1)
    else miss t base set mem_line tag
  in
  if t.ways = 2 then t.lru.(set) <- (if slot = base then 1 else 0);
  (* step 4: read data — offset within the line. *)
  ((slot * t.line_elts) + (i land (t.line_elts - 1))) * t.elt_floats

(** [get t i j] is float [j] of element [i], through the cache. *)
let get t i j =
  if j < 0 || j >= t.elt_floats then invalid_arg "Read_cache.get: bad field";
  let off = touch t i in
  t.data.(off + j)
