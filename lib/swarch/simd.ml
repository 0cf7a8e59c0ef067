(** Emulation of the Sunway SIMD unit, lane-count parametric.

    A [vec] holds [w] single-precision lanes, where [w] comes from the
    platform record (4 for the SW26010's 256-bit [floatv4], 8 for the
    SW26010-Pro's 512-bit vectors).  Arithmetic charges exactly one
    vector instruction to the supplied {!Cost.t} regardless of lane
    count, which is what makes vectorization pay off in the
    performance model.  Lane values are rounded through IEEE single
    precision on every operation so that the optimized kernels really
    compute in mixed precision, as the paper's do.

    Every operation writes into a caller-owned vector instead of
    allocating one — this is what lets the kernel inner loops run
    without triggering the minor GC.  A destination may alias an
    operand: lanes are independent and each lane is read before it is
    written. *)

type vec = float array

(** [round32 x] is [x] rounded to the nearest representable IEEE-754
    single-precision value. *)
let round32 x = Int32.float_of_bits (Int32.bits_of_float x)

(** [width v] is the number of lanes in [v]. *)
let width (v : vec) = Array.length v

(** [zero w] is a fresh [w]-lane all-zero vector. *)
let zero w : vec =
  if w <= 0 then invalid_arg "Simd.zero: width must be positive";
  Array.make w 0.0

(** [lane v i] extracts lane [i]. *)
let lane (v : vec) i =
  if i < 0 || i >= Array.length v then
    invalid_arg
      (Printf.sprintf "Simd.lane: %d not in 0..%d" i (Array.length v - 1));
  v.(i)

let check_widths name (x : vec) (y : vec) =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Simd.%s: width mismatch (%d vs %d)" name
                   (Array.length x) (Array.length y))

let check_dst name (dst : vec) (x : vec) =
  if Array.length dst <> Array.length x then
    invalid_arg
      (Printf.sprintf "Simd.%s: width mismatch (dst %d vs %d)" name
         (Array.length dst) (Array.length x))

(* Tree sum over a power-of-two lane range: adjacent lane pairs are
   added and rounded through round32 at every internal node, so at 4
   lanes it is round32 (round32 (a+b) +. round32 (c+d)).  The recursion
   boxes its partial sums, so unlike the lane-wise ops it allocates. *)
let rec hsum_pow2 (v : vec) lo len =
  if len = 1 then v.(lo)
  else
    let h = len / 2 in
    round32 (hsum_pow2 v lo h +. hsum_pow2 v (lo + h) h)

(** [hsum_part cost v off len] is the horizontal sum of lanes
    [off .. off+len-1], charged one shuffle-add vector instruction per
    halving of [len], which must be a power of two. *)
let hsum_part cost (v : vec) off len =
  if off < 0 || len <= 0 || off + len > Array.length v then
    invalid_arg "Simd.hsum_part";
  if len land (len - 1) <> 0 then
    invalid_arg "Simd.hsum_part: len must be a power of two";
  let w = ref len in
  while !w > 1 do
    Cost.simd cost 1.0;
    w := !w / 2
  done;
  hsum_pow2 v off len

(** [hsum cost v] is the horizontal sum of all lanes (2 vector
    instructions at 4 lanes, 3 at 8). *)
let hsum cost (v : vec) = hsum_part cost v 0 (width v)

(** [splat_into dst x] fills every lane of [dst] with [round32 x].
    Free of charge: register broadcasts are folded into the consuming
    instruction. *)
let splat_into (dst : vec) x =
  let v = round32 x in
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- v
  done

(** [init_into dst f] sets lane [i] of [dst] to [round32 (f i)], in
    ascending lane order (free: models a register load/permute from
    LDM). *)
let init_into (dst : vec) f =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (f i)
  done

let check2 name (dst : vec) (x : vec) (y : vec) =
  check_widths name x y;
  check_dst name dst x

(** [add_into cost dst x y] is the lane-wise sum; one vector
    instruction. *)
let add_into cost (dst : vec) (x : vec) (y : vec) =
  check2 "add_into" dst x y;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (x.(i) +. y.(i))
  done

(** [sub_into cost dst x y] is the lane-wise difference; one vector
    instruction. *)
let sub_into cost (dst : vec) (x : vec) (y : vec) =
  check2 "sub_into" dst x y;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (x.(i) -. y.(i))
  done

(** [mul_into cost dst x y] is the lane-wise product; one vector
    instruction. *)
let mul_into cost (dst : vec) (x : vec) (y : vec) =
  check2 "mul_into" dst x y;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (x.(i) *. y.(i))
  done

(** [fma_into cost dst x y z] is [x*y + z]; one (fused) vector
    instruction. *)
let fma_into cost (dst : vec) (x : vec) (y : vec) (z : vec) =
  check2 "fma_into" dst x y;
  check_widths "fma_into" x z;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 ((x.(i) *. y.(i)) +. z.(i))
  done

(** [round_into cost dst x] is the lane-wise round-to-nearest; one
    vector instruction (used by the periodic minimum-image fold). *)
let round_into cost (dst : vec) (x : vec) =
  check_dst "round_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- Float.round x.(i)
  done

(** [rsqrt_into cost dst x] is the lane-wise reciprocal square root
    (charged as one vector instruction, matching the hardware
    estimate+refine sequence the paper's kernels use). *)
let rsqrt_into cost (dst : vec) (x : vec) =
  check_dst "rsqrt_into" dst x;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- round32 (1.0 /. sqrt x.(i))
  done

(** [cmp_lt_into cost dst x y] is a lane mask: 1.0 where [x < y], else
    0.0. *)
let cmp_lt_into cost (dst : vec) (x : vec) (y : vec) =
  check2 "cmp_lt_into" dst x y;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- (if x.(i) < y.(i) then 1.0 else 0.0)
  done

(** [select_into cost dst mask x y] is lane-wise [mask <> 0 ? x : y]. *)
let select_into cost (dst : vec) (mask : vec) (x : vec) (y : vec) =
  check2 "select_into" dst mask x;
  check_widths "select_into" mask y;
  Cost.simd cost 1.0;
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- (if mask.(i) <> 0.0 then x.(i) else y.(i))
  done

(** [narrow_into cost dst v] folds [v] down to [dst]'s width: a copy
    when the widths match (free), one halving-add instruction when [v]
    is twice as wide.  [dst] must not alias [v] when a halving runs.
    Those two shapes cover both real platforms (8 -> 4 and 4 -> 4);
    anything else raises. *)
let narrow_into cost (dst : vec) (v : vec) =
  let n = Array.length dst and w = Array.length v in
  if w = n then (if dst != v then Array.blit v 0 dst 0 n)
  else if w = 2 * n then begin
    Cost.simd cost 1.0;
    for i = 0 to n - 1 do
      dst.(i) <- round32 (v.(i) +. v.(i + n))
    done
  end
  else invalid_arg "Simd.narrow_into: width must equal or double dst"

(** [transpose3x4_into cost x y z dst] converts three 4-lane vectors
    into the 12 floats [x1 y1 z1 x2 y2 z2 x3 y3 z3 x4 y4 z4] of [dst].
    On the hardware this is the six-[simd_vshuff] sequence of Figure 7;
    the shuffles move lanes without arithmetic, so the values are a
    pure permutation of the inputs and the charge is six vector
    instructions. *)
let transpose3x4_into cost (x : vec) (y : vec) (z : vec) (dst : float array) =
  if width x <> 4 || width y <> 4 || width z <> 4 then
    invalid_arg "Simd.transpose3x4_into: width must be 4";
  if Array.length dst < 12 then invalid_arg "Simd.transpose3x4_into: dst < 12";
  Cost.simd cost 6.0;
  for i = 0 to 3 do
    dst.(3 * i) <- x.(i);
    dst.((3 * i) + 1) <- y.(i);
    dst.((3 * i) + 2) <- z.(i)
  done
