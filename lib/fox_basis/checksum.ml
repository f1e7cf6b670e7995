type alg = [ `Basic | `Optimized ]

(* [sum] is a partial one's-complement sum, possibly un-folded (carries
   pending above bit 15).  [odd] records that an odd number of bytes has
   been accumulated, so the next byte belongs to the low half of the
   current 16-bit word. *)
type acc = { sum : int; odd : bool }

let zero = { sum = 0; odd = false }

let fold16 s =
  let rec go s = if s > 0xFFFF then go ((s land 0xFFFF) + (s lsr 16)) else s in
  go s

(* The x-kernel-style loop: 16 bits at a time, folding the carry on every
   addition. *)
let sum_basic b off len init =
  let sum = ref init in
  let i = ref off in
  let stop = off + (len land lnot 1) in
  while !i < stop do
    let s = !sum + Wire.get_u16 b !i in
    sum := (s land 0xFFFF) + (s lsr 16);
    i := !i + 2
  done;
  if len land 1 = 1 then begin
    let s = !sum + (Wire.get_u8 b (off + len - 1) lsl 8) in
    sum := (s land 0xFFFF) + (s lsr 16)
  end;
  !sum

(* Unchecked 64-bit load, byte-swapped to big-endian on little-endian
   hosts; both compile inline to a [mov] and a [bswap].  [word_check]
   checks its whole range once, so every load it makes is in bounds. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_be64 b i = if Sys.big_endian then get64u b i else bswap64 (get64u b i)

(* The two 32-bit halves of a 64-bit load, added: since 2^16 = 1 (mod
   0xFFFF), so is 2^32, and the result is congruent to the sum of the
   load's four 16-bit words.  Both helpers must inline: an [int64] that
   crosses a call is boxed, which would allocate on every load. *)
let[@inline] halves w =
  Int64.to_int (Int64.shift_right_logical w 32) + (Int64.to_int w land 0xFFFFFFFF)

(* Figure 10 of the paper at the host's word width: 8-byte loads where the
   paper's 32-bit DECstation had 4-byte ones, two of them per step,
   carries accumulated in the top of the word, tail-recursive main loop.
   [limit - n] is a multiple of 4, so the range ends with at most one
   8-byte and one 4-byte load.  Each addition is below 2^32 and a
   [chunk_bytes] range makes at most 2^15 of them, so the sum stays below
   2^48, far inside a 63-bit int. *)
let word_check b n acc limit =
  if n < 0 || limit > Bytes.length b then invalid_arg "Checksum.word_check";
  let rec go n sum =
    if n + 16 <= limit then
      go (n + 16) (sum + halves (get_be64 b n) + halves (get_be64 b (n + 8)))
    else if n + 8 <= limit then go (n + 8) (sum + halves (get_be64 b n))
    else if n < limit then sum + Wire.get_u32 b n
    else sum
  in
  go n acc

let chunk_bytes = 2 * 65536

let sum_optimized b off len init =
  (* Head: 16-bit steps until the offset is 4-byte aligned relative to the
     start of the range, as in the figure; the 8-byte loads that follow may
     straddle an 8-byte boundary, which costs nothing measurable on hosts
     with cheap unaligned loads.  An odd offset never aligns and is summed
     entirely here. *)
  let sum = ref init and i = ref off and remaining = ref len in
  while !remaining >= 2 && !i land 3 <> 0 do
    sum := !sum + Wire.get_u16 b !i;
    i := !i + 2;
    remaining := !remaining - 2
  done;
  (* Main loop, renormalising every [chunk_bytes] so carries fit. *)
  while !remaining >= 4 do
    let n = min (!remaining land lnot 3) chunk_bytes in
    sum := fold16 (word_check b !i !sum (!i + n));
    i := !i + n;
    remaining := !remaining - n
  done;
  (* Tail: the odd 0..3 bytes. *)
  if !remaining >= 2 then begin
    sum := !sum + Wire.get_u16 b !i;
    i := !i + 2;
    remaining := !remaining - 2
  end;
  if !remaining = 1 then sum := !sum + (Wire.get_u8 b !i lsl 8);
  fold16 !sum

let sum_range alg b off len init =
  match alg with
  | `Basic -> sum_basic b off len init
  | `Optimized -> sum_optimized b off len init

let bytes_summed = ref 0

let add_bytes ?(alg = `Optimized) acc b off len =
  if len < 0 || off < 0 || off + len > Bytes.length b then
    invalid_arg "Checksum.add_bytes";
  bytes_summed := !bytes_summed + len;
  if len = 0 then acc
  else if not acc.odd then
    { sum = sum_range alg b off len acc.sum; odd = len land 1 = 1 }
  else
    (* First byte completes the pending word (low half); the remainder is
       summed at even parity. *)
    let sum = fold16 acc.sum + Wire.get_u8 b off in
    let rest = sum_range alg b (off + 1) (len - 1) 0 in
    { sum = fold16 sum + fold16 rest; odd = len land 1 = 0 }

let add_string ?alg acc s = add_bytes ?alg acc (Bytes.unsafe_of_string s) 0 (String.length s)

let add_u16 acc v =
  if acc.odd then invalid_arg "Checksum.add_u16: odd parity";
  { acc with sum = acc.sum + (v land 0xFFFF) }

let add_u32 acc v =
  let acc = add_u16 acc (v lsr 16 land 0xFFFF) in
  add_u16 acc (v land 0xFFFF)

let finish acc = fold16 acc.sum

let checksum_of acc = lnot (finish acc) land 0xFFFF

let checksum ?(alg = `Optimized) b off len =
  checksum_of (add_bytes ~alg zero b off len)

let valid acc = finish acc = 0xFFFF

let pseudo_ipv4 ~src ~dst ~proto ~len =
  let acc = add_u32 zero src in
  let acc = add_u32 acc dst in
  let acc = add_u16 acc (proto land 0xFF) in
  add_u16 acc (len land 0xFFFF)

let adjust ~checksum ~old_u16 ~new_u16 =
  (* RFC 1624: HC' = ~(~HC + ~m + m') using one's-complement arithmetic. *)
  let s =
    (lnot checksum land 0xFFFF) + (lnot old_u16 land 0xFFFF) + (new_u16 land 0xFFFF)
  in
  lnot (fold16 s) land 0xFFFF

let reference b off len =
  let sum = ref 0 in
  for i = 0 to len - 1 do
    let byte = Wire.get_u8 b (off + i) in
    sum := !sum + if i land 1 = 0 then byte lsl 8 else byte
  done;
  lnot (fold16 !sum) land 0xFFFF
