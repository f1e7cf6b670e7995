(** In-memory span recorder for the traced run.

    A span is one call across a layer boundary: its kind, its parent (the
    span open around it in the same fiber), the connection and op it
    serves, its start and end on the monotonic clock, and the minor-heap
    words allocated while it was open.  Spans live in growable parallel
    arrays, are summarised when a round ends, and can be written out as
    CSV.

    Fibers.  The scheduler runs many fibers on one stack of OCaml effect
    handlers, and a call such as [Tcp.send] under flow control, [connect]
    or a socket read suspends its fiber mid-span.  Every span opened with
    no span around it (a {e top-level} span) therefore runs its body under
    an effect handler that forwards every scheduler effect.  When an
    effect passes through, the fiber's open spans are detached; when the
    fiber resumes they are re-attached and the interval is charged to the
    innermost open span as {e wait}, not self time.  Self time is a span's
    duration minus its children's durations minus its wait, so at every
    instant of a round exactly one of these is charged: the self time of
    the running fiber's innermost span, or "other" (scheduler dispatch,
    timer fibers, link delivery and anything else outside every span).
    The two sum to the round's wall time exactly, which the benchmark
    checks. *)

type kind =
  | App  (** application code: generators, verifiers, HTTP *)
  | Sock_read  (** app → socket reads *)
  | Sock_write  (** app → socket writes *)
  | Sock_ctl  (** app → socket connect / close / abort *)
  | Sock_rx  (** TCP → socket upcalls *)
  | Tcp_tx  (** app → TCP send and allocate_send *)
  | Tcp_open  (** app → TCP connect *)
  | Tcp_close  (** app → TCP close / abort *)
  | Tcp_rx  (** IP → TCP upcalls *)
  | Ip_tx  (** TCP → IP calls *)
  | Ip_rx  (** Ethernet → IP upcalls *)
  | Eth_tx  (** IP → Ethernet calls (Ethernet and the device) *)
  | Eth_rx  (** wire → device upcalls (the device and Ethernet) *)
  | Wire_tx  (** device → [Link.port] transmit (the wire simulation) *)

let all =
  [ App; Sock_read; Sock_write; Sock_ctl; Sock_rx; Tcp_tx; Tcp_open;
    Tcp_close; Tcp_rx; Ip_tx; Ip_rx; Eth_tx; Eth_rx; Wire_tx ]

let nkinds = List.length all

let to_int = function
  | App -> 0
  | Sock_read -> 1
  | Sock_write -> 2
  | Sock_ctl -> 3
  | Sock_rx -> 4
  | Tcp_tx -> 5
  | Tcp_open -> 6
  | Tcp_close -> 7
  | Tcp_rx -> 8
  | Ip_tx -> 9
  | Ip_rx -> 10
  | Eth_tx -> 11
  | Eth_rx -> 12
  | Wire_tx -> 13

let name = function
  | App -> "app"
  | Sock_read -> "sock.read"
  | Sock_write -> "sock.write"
  | Sock_ctl -> "sock.ctl"
  | Sock_rx -> "sock.rx"
  | Tcp_tx -> "tcp.tx"
  | Tcp_open -> "tcp.open"
  | Tcp_close -> "tcp.close"
  | Tcp_rx -> "tcp.rx"
  | Ip_tx -> "ip.tx"
  | Ip_rx -> "ip.rx"
  | Eth_tx -> "eth.tx"
  | Eth_rx -> "eth.rx"
  | Wire_tx -> "wire.tx"

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Storage                                                            *)
(* ------------------------------------------------------------------ *)

type store = {
  mutable len : int;
  mutable kind : int array;
  mutable parent : int array;
  mutable conn : int array;
  mutable op : int array;
  mutable t_start : int array;
  mutable t_end : int array;  (** -1 while open *)
  mutable wait : int array;  (** ns suspended while innermost *)
  mutable susp : int array;  (** start of the current suspension, or -1 *)
  mutable w_start : float array;
  mutable w_end : float array;
  mutable w_wait : float array;  (** words other fibers allocated meanwhile *)
  mutable w_susp : float array;
}

let st =
  let n = 1024 in
  {
    len = 0;
    kind = Array.make n 0;
    parent = Array.make n 0;
    conn = Array.make n 0;
    op = Array.make n 0;
    t_start = Array.make n 0;
    t_end = Array.make n 0;
    wait = Array.make n 0;
    susp = Array.make n 0;
    w_start = Array.make n 0.0;
    w_end = Array.make n 0.0;
    w_wait = Array.make n 0.0;
    w_susp = Array.make n 0.0;
  }

let grow () =
  let n = 2 * Array.length st.kind in
  let gi a = Array.append a (Array.make (n - Array.length a) 0) in
  let gf a = Array.append a (Array.make (n - Array.length a) 0.0) in
  st.kind <- gi st.kind;
  st.parent <- gi st.parent;
  st.conn <- gi st.conn;
  st.op <- gi st.op;
  st.t_start <- gi st.t_start;
  st.t_end <- gi st.t_end;
  st.wait <- gi st.wait;
  st.susp <- gi st.susp;
  st.w_start <- gf st.w_start;
  st.w_end <- gf st.w_end;
  st.w_wait <- gf st.w_wait;
  st.w_susp <- gf st.w_susp

(* The running fiber's innermost open span, -1 outside every span. *)
let cur = ref (-1)

(* When the running context last left every span, and the total time
   spent outside them this round. *)
let idle_since = ref 0
let other_ns = ref 0
let round_start = ref 0

(* Spans closed by a fiber other than the one that opened them: always 0
   when the detach/re-attach bookkeeping is right. *)
let misnested = ref 0

(** The op the application is working on; top-level spans opened by app
    code take it, nested spans inherit their parent's. *)
let current_op = ref (-1)

let enter kind conn =
  if st.len = Array.length st.kind then grow ();
  let i = st.len in
  st.len <- i + 1;
  let p = !cur in
  st.kind.(i) <- to_int kind;
  st.parent.(i) <- p;
  st.conn.(i) <- (if conn >= 0 || p < 0 then conn else st.conn.(p));
  st.op.(i) <- (if p < 0 then !current_op else st.op.(p));
  st.t_end.(i) <- -1;
  st.wait.(i) <- 0;
  st.susp.(i) <- -1;
  st.w_wait.(i) <- 0.0;
  let t = now_ns () in
  if p < 0 then other_ns := !other_ns + (t - !idle_since);
  st.t_start.(i) <- t;
  st.w_start.(i) <- Gc.minor_words ();
  cur := i;
  i

let leave i =
  st.w_end.(i) <- Gc.minor_words ();
  let t = now_ns () in
  st.t_end.(i) <- t;
  if !cur <> i then incr misnested;
  let p = st.parent.(i) in
  cur := p;
  if p < 0 then idle_since := t

(* Forward one scheduler effect on behalf of a suspended fiber. *)
let forward : type a b. a Effect.t -> (a, b) Effect.Deep.continuation -> b =
 fun eff k ->
  let i = !cur in
  let w = Gc.minor_words () in
  let t = now_ns () in
  st.susp.(i) <- t;
  st.w_susp.(i) <- w;
  cur := -1;
  idle_since := t;
  let v = Effect.perform eff in
  let t' = now_ns () in
  other_ns := !other_ns + (t' - !idle_since);
  let w' = Gc.minor_words () in
  st.wait.(i) <- st.wait.(i) + (t' - t);
  st.w_wait.(i) <- st.w_wait.(i) +. (w' -. w);
  st.susp.(i) <- -1;
  cur := i;
  Effect.Deep.continue k v

(** [span kind ?conn f x] is [f x], recorded as one span. *)
let span kind ?(conn = -1) f x =
  if !cur >= 0 then begin
    let i = enter kind conn in
    match f x with
    | v ->
      leave i;
      v
    | exception e ->
      leave i;
      raise e
  end
  else begin
    let i = enter kind conn in
    Effect.Deep.match_with
      (fun x ->
        (* the handler's own allocation is tracing overhead, not the
           layer's: start the word count inside it *)
        st.w_start.(i) <- Gc.minor_words ();
        f x)
      x
      {
        Effect.Deep.retc =
          (fun v ->
            leave i;
            v);
        exnc =
          (fun e ->
            leave i;
            raise e);
        effc = (fun eff -> Some (fun k -> forward eff k));
      }
  end

(* ------------------------------------------------------------------ *)
(* Rounds                                                             *)
(* ------------------------------------------------------------------ *)

let start_round () =
  st.len <- 0;
  cur := -1;
  misnested := 0;
  other_ns := 0;
  let t = now_ns () in
  round_start := t;
  idle_since := t

type kind_total = {
  mutable count : int;
  mutable self_ns : int;
  mutable wait_ns : int;
  mutable self_words : float;
}

type summary = {
  wall_ns : int;  (** the round, start to end *)
  other : int;  (** ns outside every span *)
  spans : int;
  unfinished : int;  (** spans whose fiber never resumed before the end *)
  misnested_spans : int;
  totals : kind_total array;  (** indexed by [to_int] *)
}

(** [end_round ()] closes the round and folds every span into per-kind
    totals.  Spans still open (their fiber was left suspended when the
    scheduler ran out of work) end at the round's end, the suspension
    counting as wait. *)
let end_round () =
  let t_end = now_ns () in
  if !cur < 0 then other_ns := !other_ns + (t_end - !idle_since);
  let n = st.len in
  let unfinished = ref 0 in
  (* children come after their parents: close the innermost first, and
     end each open ancestor's word count where its fiber stopped *)
  for i = n - 1 downto 0 do
    if st.t_end.(i) < 0 then begin
      incr unfinished;
      st.t_end.(i) <- t_end;
      if st.susp.(i) >= 0 then begin
        st.wait.(i) <- st.wait.(i) + (t_end - st.susp.(i));
        st.susp.(i) <- -1
      end;
      (* the suspended span's own mark, or the one its open child left *)
      st.w_end.(i) <- st.w_susp.(i);
      let p = st.parent.(i) in
      if p >= 0 && st.t_end.(p) < 0 then st.w_susp.(p) <- st.w_end.(i)
    end
  done;
  let child_ns = Array.make n 0 and child_w = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let p = st.parent.(i) in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + (st.t_end.(i) - st.t_start.(i));
      child_w.(p) <- child_w.(p) +. (st.w_end.(i) -. st.w_start.(i))
    end
  done;
  let totals =
    Array.init nkinds (fun _ ->
        { count = 0; self_ns = 0; wait_ns = 0; self_words = 0.0 })
  in
  for i = 0 to n - 1 do
    let k = totals.(st.kind.(i)) in
    k.count <- k.count + 1;
    k.self_ns <-
      k.self_ns + (st.t_end.(i) - st.t_start.(i) - child_ns.(i) - st.wait.(i));
    k.wait_ns <- k.wait_ns + st.wait.(i);
    k.self_words <-
      k.self_words
      +. (st.w_end.(i) -. st.w_start.(i) -. st.w_wait.(i) -. child_w.(i))
  done;
  {
    wall_ns = t_end - !round_start;
    other = !other_ns;
    spans = n;
    unfinished = !unfinished;
    misnested_spans = !misnested;
    totals;
  }

let total s kind = s.totals.(to_int kind)

(** The summary of the most recent round. *)
let last : summary option ref = ref None

(** [write_csv path] writes the last round's spans, one per line. *)
let write_csv path =
  let oc = open_out path in
  output_string oc
    "span,kind,parent,conn,op,start_ns,end_ns,wait_ns,minor_words,wait_words\n";
  let names = Array.of_list (List.map name all) in
  let t0 = !round_start in
  for i = 0 to st.len - 1 do
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d,%d,%d,%.0f,%.0f\n" i
      names.(st.kind.(i)) st.parent.(i) st.conn.(i) st.op.(i)
      (st.t_start.(i) - t0) (st.t_end.(i) - t0) st.wait.(i)
      (st.w_end.(i) -. st.w_start.(i))
      st.w_wait.(i)
  done;
  close_out oc
