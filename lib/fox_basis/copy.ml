type impl = Byte | Unrolled | Word | Blit

let byte_copy src soff dst doff len =
  for i = 0 to len - 1 do
    Bytes.set dst (doff + i) (Bytes.get src (soff + i))
  done

let unrolled_copy src soff dst doff len =
  let i = ref 0 in
  let stop = len - 3 in
  while !i < stop do
    let i0 = !i in
    Bytes.set dst (doff + i0) (Bytes.get src (soff + i0));
    Bytes.set dst (doff + i0 + 1) (Bytes.get src (soff + i0 + 1));
    Bytes.set dst (doff + i0 + 2) (Bytes.get src (soff + i0 + 2));
    Bytes.set dst (doff + i0 + 3) (Bytes.get src (soff + i0 + 3));
    i := i0 + 4
  done;
  while !i < len do
    Bytes.set dst (doff + !i) (Bytes.get src (soff + !i));
    incr i
  done

let word_copy src soff dst doff len =
  let i = ref 0 in
  let stop = len - 7 in
  while !i < stop do
    Bytes.set_int64_ne dst (doff + !i) (Bytes.get_int64_ne src (soff + !i));
    i := !i + 8
  done;
  while !i < len do
    Bytes.set dst (doff + !i) (Bytes.get src (soff + !i));
    incr i
  done

let blit src soff dst doff len = Bytes.blit src soff dst doff len

let bytes_fused = ref 0

(* Unchecked 64-bit access for the fused loop; [blit_checksum] checks both
   whole ranges before its first load or store. *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let fused_chunk_bytes = 2 * 65536

(* Fused copy-and-checksum: one pass over the source copies it into the
   destination while accumulating the one's-complement sum of the bytes,
   interpreted as big-endian 16-bit words at even parity.  This is the
   Figure-10 accumulation at the host's word width: each 8-byte load is
   stored as loaded, byte-swapped to big-endian on little-endian hosts,
   and its two 32-bit halves are added (2^32 = 1 mod 0xFFFF), carries
   left to pile up above bit 15.  Each addition is below 2^32, and the sum
   is folded every [fused_chunk_bytes], so it stays below 2^48.  At most
   one 4-, one 2- and one 1-byte step finish the range.  Returns the
   folded 16-bit sum continuing [init]. *)
let blit_checksum src soff dst doff len ~init =
  if len < 0 || soff < 0 || doff < 0
     || soff + len > Bytes.length src
     || doff + len > Bytes.length dst
  then invalid_arg "Copy.blit_checksum";
  bytes_fused := !bytes_fused + len;
  let sum = ref init in
  let i = ref 0 in
  while len - !i >= 8 do
    let stop = min (len - 7) (!i + fused_chunk_bytes) in
    while !i < stop do
      let w = get64u src (soff + !i) in
      set64u dst (doff + !i) w;
      let w = if Sys.big_endian then w else bswap64 w in
      sum :=
        !sum
        + Int64.to_int (Int64.shift_right_logical w 32)
        + (Int64.to_int w land 0xFFFFFFFF);
      i := !i + 8
    done;
    sum := Checksum.fold16 !sum
  done;
  if len - !i >= 4 then begin
    let w = Wire.get_u32 src (soff + !i) in
    Wire.set_u32 dst (doff + !i) w;
    sum := !sum + w;
    i := !i + 4
  end;
  if len - !i >= 2 then begin
    let w = Wire.get_u16 src (soff + !i) in
    Wire.set_u16 dst (doff + !i) w;
    sum := !sum + w;
    i := !i + 2
  end;
  if !i < len then begin
    let b = Wire.get_u8 src (soff + !i) in
    Wire.set_u8 dst (doff + !i) b;
    sum := !sum + (b lsl 8)
  end;
  Checksum.fold16 !sum

let copy = function
  | Byte -> byte_copy
  | Unrolled -> unrolled_copy
  | Word -> word_copy
  | Blit -> blit

let all =
  [ ("byte", Byte); ("unrolled", Unrolled); ("word", Word); ("blit", Blit) ]
