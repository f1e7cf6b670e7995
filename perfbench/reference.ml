(** The reference kernel: a yardstick for the host's speed.

    Shared small hosts change speed under their neighbours' load.  On the
    2-vCPU VM this benchmark was tuned on, identical rounds ran at two
    levels about 1.7× apart, switching every few seconds and sometimes
    holding one level for a whole run: the median of a 25 s run moved by
    30–40% from run to run, with the process's CPU time tracking its wall
    time throughout (the core ran slower; it was not descheduled).

    [time ()] runs a fixed piece of work shaped like a segment's — a copy
    and a checksum of 1,464 bytes, small allocations, a table update and
    an effect round trip — 400 times, and returns its wall time.  The
    benchmark times it before and after every round; a round's wall
    numbers are then scaled to what they would have been with the kernel
    taking {!nominal_ns}.  The kernel is part of the benchmark, not the
    stack, so a change to the stack moves the scaled numbers exactly as it
    moves the raw ones, while the host's speed cancels out: on the tuning
    host, scaling cut the run-to-run spread of bulk's median rate from
    0.41 to 0.04 (quartile distance over median, 8 runs). *)

type _ Effect.t += Tick : unit Effect.t

(** The kernel's wall time on an unloaded core of the tuning host. *)
let nominal_ns = 500_000.0

let source = Bytes.init 8192 (fun i -> Char.chr ((i * 131) land 0xff))

let table : (int, (int * int) list) Hashtbl.t = Hashtbl.create 1024

let work () =
  let acc = ref 0 in
  for i = 1 to 400 do
    let b = Bytes.create 1464 in
    Bytes.blit source (i land 4095) b 0 1464;
    let sum = ref 0 in
    for j = 0 to 731 do
      sum := !sum + Bytes.get_uint16_le b (2 * j)
    done;
    let l = List.init 24 (fun j -> (j, !sum + j)) in
    Hashtbl.replace table (i * 7 land 1023) l;
    acc := !acc + List.length l;
    Effect.perform Tick
  done;
  ignore (Sys.opaque_identity !acc)

let time () =
  let t0 = Spans.now_ns () in
  Effect.Deep.match_with work ()
    {
      Effect.Deep.retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Tick ->
            Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                Effect.Deep.continue k ())
          | _ -> None);
    };
  Spans.now_ns () - t0

(** [around f] is [(f (), speed)]: [speed] is the host's speed relative
    to nominal, measured on both sides of [f] (below 1 when slower). *)
let around f =
  let k0 = time () in
  let v = f () in
  let k1 = time () in
  (v, 2.0 *. nominal_ns /. float_of_int (k0 + k1))
