(** Software read cache in LDM: direct-mapped (Figure 3 of the paper)
    or two-way set-associative (Section 3.5).

    CPEs have no hardware cache; instead the kernel keeps a small cache
    of main-memory "elements" (particle packages) in LDM.  An element
    index is decomposed into tag / set / offset by bit operations; on a
    tag mismatch the whole line is fetched from main memory by one DMA
    transfer.  The force kernels use one way; pair-list generation uses
    two, with LRU replacement, because its coordinate and metadata
    streams alias and thrash a direct-mapped cache. *)

type t

(** [footprint_bytes ~ways ~elt_floats ~line_elts ~n_lines] is the LDM
    cost of such a cache: lines, tags and, with two ways, one LRU byte
    per set. *)
val footprint_bytes :
  ways:int -> elt_floats:int -> line_elts:int -> n_lines:int -> int

(** [create cfg cost ?ldm ~backing ~ways ~elt_floats ~line_elts ~n_lines
    ()] builds an empty cache of [n_lines] lines in [n_lines / ways]
    sets in front of [backing].  [ways] must be 1 or 2 and [n_lines] a
    power of two no smaller than [ways]; anything else raises
    [Invalid_argument].  When [ldm] is given, the footprint is
    allocated from it (failing loudly past its capacity). *)
val create :
  Swarch.Config.t ->
  Swarch.Cost.t ->
  ?ldm:Swarch.Ldm.t ->
  backing:float array ->
  ways:int ->
  elt_floats:int ->
  line_elts:int ->
  n_lines:int ->
  unit ->
  t

(** [release t] returns the cache's LDM allocation, if any. *)
val release : t -> unit

(** [stats t] is the cache's hit/miss record. *)
val stats : t -> Stats.t

(** [data t] is the cache's line storage, where {!touch} offsets
    point. *)
val data : t -> float array

(** [touch t i] ensures element [i] is resident, charging [3 + ways]
    int ops of tag arithmetic and, on a miss, one line-sized DMA fetch
    (two-way: into the set's least recently used way).  Returns the
    float offset of the element inside {!data}. *)
val touch : t -> int -> int

(** [get t i j] is float [j] of element [i], through the cache. *)
val get : t -> int -> int -> float
