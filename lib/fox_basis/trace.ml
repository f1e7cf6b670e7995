type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type t = {
  capacity : int;
  mutable items : (int * string) array;
      (* empty until the first kept [add]: most traces (every TCP engine's,
         for one) are created and never written, and a ring of [capacity]
         is a major-heap allocation *)
  mutable head : int; (* index of oldest *)
  mutable len : int;
  mutable dropped : int;
  mutable enabled : bool;
  mutable min_level : level;
}

let create ?(enabled = true) ?(min_level = Debug) capacity =
  if capacity <= 0 then invalid_arg "Trace.create";
  { capacity; items = [||]; head = 0; len = 0;
    dropped = 0; enabled; min_level }

let set_enabled t on = t.enabled <- on

let enabled t = t.enabled

let set_level t level = t.min_level <- level

let level t = t.min_level

(* The cheap gate: every recording path asks this first, so a disabled
   trace never formats or stores anything. *)
let keeps t lvl = t.enabled && severity lvl >= severity t.min_level

let add ?(level = Info) t ~time msg =
  if keeps t level then begin
    if Array.length t.items = 0 then t.items <- Array.make t.capacity (0, "");
    let slot = (t.head + t.len) mod t.capacity in
    t.items.(slot) <- (time, msg);
    if t.len < t.capacity then t.len <- t.len + 1
    else begin
      t.head <- (t.head + 1) mod t.capacity;
      t.dropped <- t.dropped + 1
    end
  end

(* The whole point of the gate: decide *before* Printf builds the string.
   [ikfprintf] consumes the format arguments without formatting, so a
   filtered [addf] costs the level check and nothing else. *)
let addf ?(level = Info) t ~time fmt =
  if keeps t level then Printf.ksprintf (fun msg -> add ~level t ~time msg) fmt
  else Printf.ikfprintf ignore () fmt

let events t =
  List.init t.len (fun i -> t.items.((t.head + i) mod t.capacity))

let size t = t.len

let dropped t = t.dropped

(* [clear] forgets the retained events but *not* the drop count: the
   counter is cumulative evidence of capacity pressure, and zeroing it
   whenever someone clears a full ring silently hid every earlier
   overflow.  [reset] is the full wipe. *)
let clear t =
  t.head <- 0;
  t.len <- 0

let reset t =
  clear t;
  t.dropped <- 0

let to_string t =
  events t
  |> List.map (fun (time, msg) -> Printf.sprintf "[%8d us] %s" time msg)
  |> String.concat "\n"
