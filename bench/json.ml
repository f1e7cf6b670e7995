(* The BENCH_*.json files: one value type and one printer, so every
   bench section writes the same well-formed JSON.  Objects and arrays
   that hold only scalars print on one line; the rest break one member
   per line. *)

type t =
  | Bool of bool
  | Int of int
  | Float of int * float  (** digits after the point, value *)
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let is_scalar = function List _ | Obj _ -> false | _ -> true

let rec print b indent = function
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float (_, v) when not (Float.is_finite v) -> Buffer.add_string b "null"
  | Float (digits, v) -> Buffer.add_string b (Printf.sprintf "%.*f" digits v)
  | String s -> Printf.bprintf b "\"%s\"" (escape s)
  | List items ->
    members b indent ('[', ']') (List.map (fun v -> (None, v)) items)
  | Obj fields ->
    members b indent ('{', '}') (List.map (fun (k, v) -> (Some k, v)) fields)

and members b indent (opening, closing) items =
  let flat = List.for_all (fun (_, v) -> is_scalar v) items in
  let inner = indent ^ "  " in
  Buffer.add_char b opening;
  List.iteri
    (fun i (key, v) ->
      if i > 0 then Buffer.add_char b ',';
      if flat then (if i > 0 then Buffer.add_char b ' ')
      else Printf.bprintf b "\n%s" inner;
      Option.iter (fun k -> Printf.bprintf b "\"%s\": " (escape k)) key;
      print b inner v)
    items;
  if (not flat) && items <> [] then Printf.bprintf b "\n%s" indent;
  Buffer.add_char b closing

(** [write path v] writes [v] to [path] and says so on stdout. *)
let write path v =
  let b = Buffer.create 4096 in
  print b "" v;
  Buffer.add_char b '\n';
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b);
  Printf.printf "\nwrote %s\n" path
