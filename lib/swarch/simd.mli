(** Emulation of the Sunway SIMD unit, lane-count parametric.

    A [vec] holds [w] single-precision lanes, where [w] comes from the
    platform record (4 for the SW26010's 256-bit [floatv4], 8 for the
    SW26010-Pro's 512-bit vectors).  Arithmetic charges exactly one
    vector instruction to the supplied {!Cost.t} regardless of lane
    count, which is what makes vectorization pay off in the
    performance model.  Lane values are rounded through IEEE single
    precision on every operation so that the optimized kernels really
    compute in mixed precision, as the paper's do.

    The API is destination-passing: every operation writes into a
    caller-owned vector, so the kernel inner loops run on a fixed set
    of scratch vectors and never touch the minor heap.  A destination
    may alias an operand unless stated otherwise. *)

type vec

(** [round32 x] is [x] rounded to the nearest representable IEEE-754
    single-precision value. *)
val round32 : float -> float

(** [width v] is the number of lanes in [v]. *)
val width : vec -> int

(** [zero w] is a fresh [w]-lane all-zero vector. *)
val zero : int -> vec

(** [lane v i] extracts lane [i]. *)
val lane : vec -> int -> float

(** [hsum cost v] is the horizontal sum of the lanes, charged as one
    shuffle-add per halving round (2 vector instructions at 4 lanes,
    3 at 8); the width must be a power of two. *)
val hsum : Cost.t -> vec -> float

(** [hsum_part cost v off len] is the horizontal sum of lanes
    [off .. off+len-1]; [len] must be a power of two. *)
val hsum_part : Cost.t -> vec -> int -> int -> float

(** [splat_into dst x] fills every lane of [dst] with [round32 x]; free
    (register broadcasts fold into the consuming instruction). *)
val splat_into : vec -> float -> unit

(** [init_into dst f] sets lane [i] of [dst] to [round32 (f i)] in
    ascending lane order; free (a register load/permute from LDM). *)
val init_into : vec -> (int -> float) -> unit

(** [add_into cost dst x y] is the lane-wise sum; one vector
    instruction. *)
val add_into : Cost.t -> vec -> vec -> vec -> unit

(** [sub_into cost dst x y] is the lane-wise difference; one vector
    instruction. *)
val sub_into : Cost.t -> vec -> vec -> vec -> unit

(** [mul_into cost dst x y] is the lane-wise product; one vector
    instruction. *)
val mul_into : Cost.t -> vec -> vec -> vec -> unit

(** [fma_into cost dst x y z] is [x*y + z]; one (fused) vector
    instruction. *)
val fma_into : Cost.t -> vec -> vec -> vec -> vec -> unit

(** [round_into cost dst x] is the lane-wise round-to-nearest; one
    vector instruction (the periodic minimum-image fold). *)
val round_into : Cost.t -> vec -> vec -> unit

(** [rsqrt_into cost dst x] is the lane-wise reciprocal square root;
    one vector instruction. *)
val rsqrt_into : Cost.t -> vec -> vec -> unit

(** [cmp_lt_into cost dst x y] is a lane mask: 1.0 where [x < y], else
    0.0; one vector instruction. *)
val cmp_lt_into : Cost.t -> vec -> vec -> vec -> unit

(** [select_into cost dst mask x y] is lane-wise [mask <> 0 ? x : y];
    one vector instruction. *)
val select_into : Cost.t -> vec -> vec -> vec -> vec -> unit

(** [narrow_into cost dst v] folds [v] down to [dst]'s width by adding
    the upper half onto the lower half: the widths must be equal (free
    copy) or [v] twice as wide (one halving add, [dst] must not alias
    [v]). *)
val narrow_into : Cost.t -> vec -> vec -> unit

(** [transpose3x4_into cost x y z dst] converts three 4-lane vectors
    holding [x1..x4], [y1..y4], [z1..z4] into the 12 floats
    [x1 y1 z1 ... x4 y4 z4] of [dst]: the six-[simd_vshuff] sequence
    of the paper's Figure 7, charged as six vector instructions.
    Requires width 4 (wider accumulators are first brought down with
    {!narrow_into}). *)
val transpose3x4_into : Cost.t -> vec -> vec -> vec -> float array -> unit
