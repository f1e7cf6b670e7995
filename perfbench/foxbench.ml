(** Wall-clock benchmark for the Fox Net stack.

    [foxbench --workload W --seed N --seconds S --trace 0|1] runs rounds of
    workload [W] for [S] seconds and prints every metric by name with its
    unit, then one JSON result line.  With [--trace 0] it reports the
    end-to-end metrics, measured on the plain stack; with [--trace 1] it
    alternates plain and traced rounds of the same inputs and reports the
    per-layer metrics (a modern Table 2), checking the shims' counts
    against the stack's own counters.  See perfbench/README.md. *)

open Fox_basis
module Timer = Fox_sched.Timer
module Netem = Fox_dev.Netem

(* ------------------------------------------------------------------ *)
(* Stacks                                                             *)
(* ------------------------------------------------------------------ *)

(* The shipped parameters.  The ISN secret is pinned so a seed replays
   exactly (and no entropy is read); nothing on the datapath changes. *)
module Default_params : Fox_tcp.Tcp.PARAMS = struct
  include Fox_tcp.Tcp.Default_params

  let isn_secret = Some (0x5eed_f0c5, 0x0b5e_55ed)
end

(* The shipped serving posture of [foxnet serve] (Nagle off, deep
   backlog, SYN cache, short TIME-WAIT), itself [Default_params] plus
   those knobs. *)
module Serve_params = Fox_check.Load.Serve_params

module Plain = Stacks.Plain (Default_params)

module Traced =
  Stacks.Traced
    (Default_params)
    (struct
      let rx = Spans.App
    end)

module Plain_serve = Stacks.Plain (Serve_params)

module Traced_serve =
  Stacks.Traced
    (Serve_params)
    (struct
      let rx = Spans.Sock_rx
    end)

module W_plain = Workloads.Make (Plain)
module W_traced = Workloads.Make (Traced)
module W_plain_serve = Workloads.Make (Plain_serve)
module W_traced_serve = Workloads.Make (Traced_serve)

(* ------------------------------------------------------------------ *)
(* Datapath configuration                                             *)
(* ------------------------------------------------------------------ *)

(* The process-global datapath switches as shipped: read before any code
   of this program can touch them. *)
let shipped_offload = !Packet.offload_enabled

let shipped_pool = !Packet.pool_enabled

let shipped_wheel = !Timer.use_wheel

let header_prediction = Fox_tcp.Tcp.Default_params.header_prediction

(** [with_shipped_datapath f] runs [f] with the switches at their shipped
    values and restores whatever they were afterwards. *)
let with_shipped_datapath f =
  let saved = (!Packet.offload_enabled, !Packet.pool_enabled, !Timer.use_wheel) in
  Packet.offload_enabled := shipped_offload;
  Packet.pool_enabled := shipped_pool;
  Timer.use_wheel := shipped_wheel;
  Packet.pool_reset ();
  Fun.protect
    ~finally:(fun () ->
      let o, p, w = saved in
      Packet.offload_enabled := o;
      Packet.pool_enabled := p;
      Timer.use_wheel := w;
      Packet.pool_reset ())
    f

(* ------------------------------------------------------------------ *)
(* Workloads                                                          *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  fixed_rounds : int;
      (** rounds every run makes; the deterministic metrics come from
          exactly these *)
  round : traced:bool -> Workloads.pattern -> seed:int -> int -> Workloads.round;
}

(* Per-round inputs: a stream position (and, on the lossy wire, the wire's
   seed) drawn from the workload seed and the round index. *)
let round_rng seed i = Rng.create ((seed * 1_000_003) + (i * 7919) + 17)

let position seed i = Rng.int (round_rng seed i) Workloads.period

let bulk ~quick =
  let bytes = if quick then 1 lsl 20 else 4 lsl 20 in
  {
    name = "bulk";
    fixed_rounds = 2;
    round =
      (fun ~traced p ~seed i ->
        let pos = position seed i in
        if traced then W_traced.stream ~netem:Netem.gigabit ~bytes p ~pos
        else W_plain.stream ~netem:Netem.gigabit ~bytes p ~pos);
  }

let lossy ~quick =
  let bytes = if quick then 1 lsl 19 else 4 lsl 20 in
  {
    name = "lossy";
    fixed_rounds = 48;
    round =
      (fun ~traced p ~seed i ->
        let pos = position seed i in
        let netem =
          Netem.adverse ~loss:0.01 ~reorder:0.02
            ~seed:(Rng.int (round_rng seed i) 0x3fff_ffff + i)
            Netem.gigabit
        in
        if traced then W_traced.stream ~netem ~bytes p ~pos
        else W_plain.stream ~netem ~bytes p ~pos);
  }

let rpc ~quick =
  let exchanges = if quick then 500 else 8000 in
  {
    name = "rpc";
    fixed_rounds = 2;
    round =
      (fun ~traced p ~seed i ->
        let pos = position seed i in
        if traced then W_traced.rpc ~exchanges p ~pos
        else W_plain.rpc ~exchanges p ~pos);
  }

let serve ~quick =
  let clients, requests = if quick then (100, 2) else (1000, 4) in
  {
    name = "serve";
    fixed_rounds = 2;
    round =
      (fun ~traced p ~seed i ->
        let pos = position seed i in
        if traced then W_traced_serve.serve ~clients ~requests p ~pos
        else W_plain_serve.serve ~clients ~requests p ~pos);
  }

let workloads = [ ("bulk", bulk); ("rpc", rpc); ("serve", serve); ("lossy", lossy) ]

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let median_f xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sample, in the sample's unit. *)
let percentile (a : int array) q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    float_of_int a.(min (n - 1) (max 0 (rank - 1)))

let sum (f : Workloads.round -> int) rounds =
  List.fold_left (fun acc r -> acc + f r) 0 rounds

let sumf (f : Workloads.round -> float) rounds =
  List.fold_left (fun acc r -> acc +. f r) 0.0 rounds

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; value : float; unit_ : string }

let metric mname unit_ value = { mname; value; unit_ }


let print_metric m = Printf.printf "%-34s %20.6f %s\n" m.mname m.value m.unit_

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
             (Printf.sprintf "%.17g" m.value) m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* ------------------------------------------------------------------ *)
(* End-to-end run (tracing off)                                       *)
(* ------------------------------------------------------------------ *)

let ops_done (r : Workloads.round) = r.ops - r.failed

let secs (r : Workloads.round) = float_of_int r.wall_ns /. 1e9

(* A round with the host's speed measured around it (see {!Reference}). *)
type timed = { r : Workloads.round; speed : float }

let end_to_end (w : workload) p ~seed ~seconds =
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let peak_words = ref 0 in
  let rec loop i acc =
    if i >= w.fixed_rounds && i >= 3 && Spans.now_ns () >= deadline then
      List.rev acc
    else begin
      Gc.full_major ();
      let r, speed =
        Reference.around (fun () -> w.round ~traced:false p ~seed i)
      in
      if i = w.fixed_rounds - 1 then
        peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
      loop (i + 1) ({ r; speed } :: acc)
    end
  in
  let timed = loop 0 [] in
  let rounds = List.map (fun t -> t.r) timed in
  let fixed = List.filteri (fun i _ -> i < w.fixed_rounds) rounds in
  (* Wall numbers: each round's, scaled to the nominal host speed, then
     the median over rounds.  [~speed:false] gives the raw median. *)
  let rate ?(speed = true) f =
    median_f
      (List.map
         (fun t -> f t.r /. secs t.r /. (if speed then t.speed else 1.0))
         timed)
  in
  let time ?(speed = true) f =
    median_f
      (List.map (fun t -> f t.r *. (if speed then t.speed else 1.0)) timed)
  in
  let goodput r = float_of_int r.Workloads.bytes /. 1e6 in
  let req r = float_of_int (ops_done r) in
  let p50 r = percentile r.Workloads.lat 0.50 /. 1e3 in
  let p99 r = percentile r.Workloads.lat 0.99 /. 1e3 in
  let setup r = float_of_int r.Workloads.setup_ns /. 1e9 in
  let metrics =
    [
      metric "goodput_MBps" "MB/s" (rate goodput);
      metric "req_per_s" "1/s" (rate req);
      metric "lat_p50_us" "us" (time p50);
      metric "lat_p99_us" "us" (time p99);
      metric "virt_goodput_Mbps" "Mb/s"
        (float_of_int (8 * sum (fun r -> r.bytes) fixed)
        /. float_of_int (max 1 (sum (fun r -> r.virt_us) fixed)));
      metric "minor_words_per_op" "words"
        (sumf (fun r -> r.words) fixed /. float_of_int (sum (fun r -> r.ops) fixed));
      metric "peak_heap_MB" "MB"
        (float_of_int (!peak_words * (Sys.word_size / 8)) /. 1e6);
      metric "setup_s" "s" (time setup);
    ]
  in
  Printf.printf
    "unscaled medians: goodput %.3f MB/s, %.1f ops/s, p50 %.2f us, p99 %.2f \
     us, setup %.6f s\n"
    (rate ~speed:false goodput) (rate ~speed:false req) (time ~speed:false p50)
    (time ~speed:false p99) (time ~speed:false setup);
  Printf.printf "host speed per round (nominal = 1): %s\n"
    (String.concat " " (List.map (fun t -> Printf.sprintf "%.2f" t.speed) timed));
  let attempted = sum (fun r -> r.ops) rounds
  and failed = sum (fun r -> r.failed) rounds in
  let samples = sum (fun r -> Array.length r.lat) rounds in
  Printf.printf
    "rounds: %d (deterministic metrics and peak heap from the first %d)\n"
    (List.length rounds) w.fixed_rounds;
  Printf.printf
    "latency samples: %d (%d per round); percentiles per round, median over \
     rounds\n"
    samples
    (samples / List.length rounds);
  Printf.printf "peak concurrent connections: %d\n"
    (List.fold_left (fun acc (r : Workloads.round) -> max acc r.max_open) 0 rounds);
  Printf.printf "error_rate: %.6f (%d of %d ops)\n" (ratio failed attempted)
    failed attempted;
  (metrics, attempted, failed, [])

(* ------------------------------------------------------------------ *)
(* Traced run                                                         *)
(* ------------------------------------------------------------------ *)

(* What the TCP→IP shim sees in each segment it carries: pure ACKs,
   RSTs, and segments that resend sequence space already sent on their
   flow. *)
module Segments = struct
  let pure_acks = ref 0

  let rsts = ref 0

  let resent = ref 0

  (* (ports) → (ISN, highest sequence end sent) *)
  let flows : (int, int * int) Hashtbl.t = Hashtbl.create 64

  let reset () =
    pure_acks := 0;
    rsts := 0;
    resent := 0;
    Hashtbl.reset flows

  let seq_lt a b = (a - b) land 0xffff_ffff >= 0x8000_0000

  let inspect packet =
    let doff = (Packet.get_u8 packet 12 lsr 4) * 4 in
    let flags = Packet.get_u8 packet 13 in
    let fin = flags land 0x01 <> 0
    and syn = flags land 0x02 <> 0
    and rst = flags land 0x04 <> 0 in
    let data = Packet.length packet - doff in
    if data = 0 && not (syn || fin || rst) then incr pure_acks;
    if rst then incr rsts;
    let len = data + Bool.to_int syn + Bool.to_int fin in
    if len > 0 && not rst then begin
      let key = (Packet.get_u16 packet 0 lsl 16) lor Packet.get_u16 packet 2 in
      let seq = Packet.get_u32 packet 4 in
      let fin_end = (seq + len) land 0xffff_ffff in
      match Hashtbl.find_opt flows key with
      | Some (isn, hi) when (not syn) || seq = isn ->
        if seq_lt seq hi then incr resent;
        if seq_lt hi fin_end then Hashtbl.replace flows key (isn, fin_end)
      | _ -> Hashtbl.replace flows key ((if syn then seq else -1), fin_end)
    end

  let () =
    Traced.on_segment := inspect;
    Traced_serve.on_segment := inspect
end

(* One traced round's view from the shims. *)
type traced = {
  spans : Spans.summary;
  segs_sent : int;
  segs_delivered : int;
  pkts_sent : int;
  pkts_delivered : int;
  frames_sent : int;
  frames_delivered : int;
  pure_acks : int;
  rsts_seen : int;
  resent : int;
  round : Workloads.round;
  t_speed : float;  (** host speed around the round *)
}

let traced_round (w : workload) p ~seed i =
  let counters =
    [ Traced.segs_sent; Traced.segs_delivered; Traced.pkts_sent;
      Traced.pkts_delivered; Traced_serve.segs_sent; Traced_serve.segs_delivered;
      Traced_serve.pkts_sent; Traced_serve.pkts_delivered; Shim.frames_sent;
      Shim.frames_delivered ]
  in
  List.iter (fun c -> c := 0) counters;
  Segments.reset ();
  Spans.last := None;
  let round, t_speed =
    Reference.around (fun () -> w.round ~traced:true p ~seed i)
  in
  let both a b = !a + !b in
  {
    spans = Option.get !Spans.last;
    segs_sent = both Traced.segs_sent Traced_serve.segs_sent;
    segs_delivered = both Traced.segs_delivered Traced_serve.segs_delivered;
    pkts_sent = both Traced.pkts_sent Traced_serve.pkts_sent;
    pkts_delivered = both Traced.pkts_delivered Traced_serve.pkts_delivered;
    frames_sent = !Shim.frames_sent;
    frames_delivered = !Shim.frames_delivered;
    pure_acks = !Segments.pure_acks;
    rsts_seen = !Segments.rsts;
    resent = !Segments.resent;
    round;
    t_speed;
  }

(* The layers of the modern Table 2 and the span kinds each one owns. *)
let layers =
  Spans.
    [
      ("app", [ App ]);
      ("sock", [ Sock_read; Sock_write; Sock_ctl; Sock_rx ]);
      ("tcp", [ Tcp_tx; Tcp_open; Tcp_close; Tcp_rx ]);
      ("ip", [ Ip_tx; Ip_rx ]);
      ("eth", [ Eth_tx; Eth_rx ]);
      ("wire", [ Wire_tx ]);
    ]

let per_layer (w : workload) p ~seed ~seconds ~spans_out =
  let t0 = Spans.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let rec loop i acc =
    if i >= w.fixed_rounds && i >= 2 && Spans.now_ns () >= deadline then
      List.rev acc
    else begin
      Gc.full_major ();
      let r, speed =
        Reference.around (fun () -> w.round ~traced:false p ~seed i)
      in
      let plain = { r; speed } in
      Gc.full_major ();
      let tr = traced_round w p ~seed i in
      loop (i + 1) ((plain, tr) :: acc)
    end
  in
  let pairs = loop 0 [] in
  Option.iter Spans.write_csv spans_out;
  let fixed = List.filteri (fun i _ -> i < w.fixed_rounds) pairs in
  let plain_fixed = List.map (fun (p, _) -> p.r) fixed in
  let traced_fixed = List.map snd fixed in
  let traced_all = List.map snd pairs in
  (* --- validation: the shims against the stack's own counters ------ *)
  let problems = ref [] in
  let check what a b =
    if a <> b then
      problems := Printf.sprintf "%s: shims %d, stack %d" what a b :: !problems
  in
  List.iteri
    (fun i ({ r = plain; _ }, t) ->
      let r = t.round in
      let tag s = Printf.sprintf "round %d %s" i s in
      (* [segs_out] leaves out the RSTs TCP sends outside any connection
         (to segments for unknown connections, to refused SYNs), which
         [rsts_sent] counts: exact when there are none *)
      check (tag "tcp RSTs") t.rsts_seen r.rsts;
      if t.segs_sent < r.segs_out || t.segs_sent > r.segs_out + r.rsts then
        check (tag "tcp segs_out (+ RSTs outside connections)") t.segs_sent
          r.segs_out;
      check (tag "tcp segs_in") t.segs_delivered r.segs_in;
      check (tag "retransmissions") t.resent r.retransmissions;
      check (tag "link tx_frames") t.frames_sent r.frames_tx;
      check (tag "link rx_frames") t.frames_delivered r.frames_rx;
      if r.fast_path_hits > t.segs_delivered then
        check (tag "fast-path hits <= segments in") r.fast_path_hits
          t.segs_delivered;
      (* tracing must not change what the protocol does *)
      check (tag "segs_out traced vs plain") r.segs_out plain.segs_out;
      check (tag "virtual time traced vs plain") r.virt_us plain.virt_us;
      let s = t.spans in
      let self =
        Array.fold_left (fun acc k -> acc + k.Spans.self_ns) 0 s.Spans.totals
      in
      check (tag "self + other = wall (ns)") (self + s.Spans.other) s.Spans.wall_ns;
      check (tag "misnested spans") s.Spans.misnested_spans 0)
    pairs;
  (* --- aggregation ------------------------------------------------- *)
  (* times are scaled to the nominal host speed round by round, as the
     end-to-end ones are; counts and words are not *)
  let kind_sum ?(scale = fun _ -> 1.0) f kinds =
    List.fold_left
      (fun acc t ->
        acc
        +. scale t
           *. List.fold_left
                (fun acc k -> acc +. f (Spans.total t.spans k))
                0.0 kinds)
      0.0 traced_all
  in
  let scale t = t.t_speed in
  let self k = kind_sum ~scale (fun x -> float_of_int x.Spans.self_ns) [ k ] in
  let wait k = kind_sum ~scale (fun x -> float_of_int x.Spans.wait_ns) [ k ] in
  let words ks = kind_sum (fun x -> x.Spans.self_words) ks in
  let tsum f = float_of_int (List.fold_left (fun acc t -> acc + f t) 0 traced_all) in
  let tsum_scaled f =
    List.fold_left (fun acc t -> acc +. (t.t_speed *. float_of_int (f t))) 0.0
      traced_all
  in
  let ops = tsum (fun t -> t.round.ops) in
  let conns = tsum (fun t -> t.round.conns) in
  let segs_out = tsum (fun t -> t.segs_sent) in
  let segs_in = tsum (fun t -> t.segs_delivered) in
  let pkts_out = tsum (fun t -> t.pkts_sent) in
  let pkts_in = tsum (fun t -> t.pkts_delivered) in
  let frames_out = tsum (fun t -> t.frames_sent) in
  let frames_in = tsum (fun t -> t.frames_delivered) in
  let per a b = if b = 0.0 then 0.0 else a /. b in
  let other = tsum_scaled (fun t -> t.spans.Spans.other) in
  (* counts from the fixed rounds, so they repeat exactly *)
  let fsum f = float_of_int (sum f plain_fixed) in
  let fops = fsum (fun r -> r.ops) in
  let fbytes = fsum (fun r -> r.bytes) in
  let fsegs_out = fsum (fun r -> r.segs_out) in
  let fsegs_in = fsum (fun r -> r.segs_in) in
  let fpure =
    float_of_int (List.fold_left (fun acc t -> acc + t.pure_acks) 0 traced_fixed)
  in
  let overheads =
    List.map
      (fun (plain, t) ->
        100.0
        *. ((t.t_speed *. secs t.round) /. (plain.speed *. secs plain.r) -. 1.0))
      pairs
  in
  let metrics =
    [
      metric "tcp.tx_self_ns_per_seg" "ns" (per (self Tcp_tx) segs_out);
      metric "tcp.rx_self_ns_per_seg" "ns" (per (self Tcp_rx) segs_in);
      metric "tcp.tx_words_per_seg" "words" (per (words [ Tcp_tx ]) segs_out);
      metric "tcp.rx_words_per_seg" "words" (per (words [ Tcp_rx ]) segs_in);
      metric "tcp.send_wait_ns_per_op" "ns" (per (wait Tcp_tx) ops);
      metric "tcp.segs_per_op" "count" (per fsegs_out fops);
      metric "tcp.pure_ack_share" "ratio" (per fpure fsegs_out);
      metric "tcp.fast_path_share" "ratio"
        (per (fsum (fun r -> r.fast_path_hits)) fsegs_in);
      metric "tcp.retransmits_per_kseg" "count"
        (1000.0 *. per (fsum (fun r -> r.retransmissions)) fsegs_out);
      metric "tcp.dup_segs_per_kseg" "count"
        (1000.0 *. per (fsum (fun r -> r.duplicate_segments)) fsegs_in);
      metric "tcp.open_ns_per_conn" "ns" (per (self Tcp_open) conns);
      metric "tcp.close_ns_per_conn" "ns" (per (self Tcp_close) conns);
      metric "ip.tx_self_ns_per_pkt" "ns" (per (self Ip_tx) segs_out);
      metric "ip.rx_self_ns_per_pkt" "ns" (per (self Ip_rx) pkts_in);
      metric "ip.words_per_pkt" "words"
        (per (words [ Ip_tx; Ip_rx ]) (segs_out +. pkts_in));
      metric "eth.tx_self_ns_per_frame" "ns" (per (self Eth_tx) pkts_out);
      metric "eth.rx_self_ns_per_frame" "ns" (per (self Eth_rx) frames_in);
      metric "eth.words_per_frame" "words"
        (per (words [ Eth_tx; Eth_rx ]) (pkts_out +. frames_in));
      metric "wire.tx_ns_per_frame" "ns" (per (self Wire_tx) frames_out);
      metric "wire.frames_per_op" "count" (per (fsum (fun r -> r.frames_tx)) fops);
      metric "wire.loss_drops" "count" (fsum (fun r -> r.loss_drops));
      metric "wire.queue_drops" "count" (fsum (fun r -> r.queue_drops));
      metric "copy.bytes_per_payload_byte" "ratio"
        (per (fsum (fun r -> r.copied)) fbytes);
      metric "checksum.bytes_per_payload_byte" "ratio"
        (per (fsum (fun r -> r.summed)) fbytes);
      metric "fused.bytes_per_payload_byte" "ratio"
        (per (fsum (fun r -> r.fused)) fbytes);
      metric "gc.minor_words_per_op" "words"
        (per (sumf (fun r -> r.words) plain_fixed) fops);
      metric "gc.promoted_words_per_op" "words"
        (per (sumf (fun r -> r.promoted) plain_fixed) fops);
      metric "gc.minor_collections_per_kop" "count"
        (1000.0 *. per (fsum (fun r -> r.minor_gcs)) fops);
      metric "gc.major_collections_per_kop" "count"
        (1000.0 *. per (fsum (fun r -> r.major_gcs)) fops);
      metric "sched.switches_per_op" "count" (per (fsum (fun r -> r.switches)) fops);
      metric "sched.forks_per_op" "count" (per (fsum (fun r -> r.forks)) fops);
      metric "sched.other_ns_per_op" "ns" (per other ops);
      metric "sock.write_self_ns_per_req" "ns" (per (self Sock_write) ops);
      metric "sock.read_wait_ns_per_req" "ns" (per (wait Sock_read) ops);
      metric "app.self_ns_per_req" "ns" (per (self App) ops);
      metric "trace.overhead_pct" "%" (median_f overheads);
      metric "trace.wall_ns_per_op" "ns"
        (per (tsum_scaled (fun t -> t.spans.Spans.wall_ns)) ops);
      metric "trace.spans_per_op" "count" (per (tsum (fun t -> t.spans.Spans.spans)) ops);
    ]
  in
  (* --- the modern Table 2 ------------------------------------------ *)
  let wall = tsum_scaled (fun t -> t.spans.Spans.wall_ns) in
  Printf.printf "\nTable 2 (traced, %d rounds, %.0f ops; self time per op)\n"
    (List.length traced_all) ops;
  Printf.printf "  %-8s %12s %8s %12s %12s\n" "layer" "ns/op" "share" "words/op"
    "wait ns/op";
  List.iter
    (fun (layer, kinds) ->
      let s = List.fold_left (fun acc k -> acc +. self k) 0.0 kinds in
      let wt = List.fold_left (fun acc k -> acc +. wait k) 0.0 kinds in
      Printf.printf "  %-8s %12.1f %7.1f%% %12.1f %12.1f\n" layer (per s ops)
        (100.0 *. per s wall) (per (words kinds) ops) (per wt ops))
    layers;
  Printf.printf "  %-8s %12.1f %7.1f%%\n" "other" (per other ops)
    (100.0 *. per other wall);
  Printf.printf "  %-8s %12.1f %7.1f%%\n" "total" (per wall ops) 100.0;
  Printf.printf "tracing overhead per round (%%): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") overheads));
  List.iter (fun p -> Printf.printf "TRACE CHECK FAILED: %s\n" p) (List.rev !problems);
  let rounds = List.concat_map (fun (p, t) -> [ p.r; t.round ]) pairs in
  let attempted = sum (fun r -> r.ops) rounds
  and failed = sum (fun r -> r.failed) rounds in
  Printf.printf "error_rate: %.6f (%d of %d ops)\n" (ratio failed attempted) failed
    attempted;
  (metrics, attempted, failed, !problems)

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let usage =
  "foxbench --workload bulk|rpc|serve|lossy --seed N --seconds S --trace 0|1 \
   [--quick] [--spans FILE] [--commit ID]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let quick = ref false and spans_out = ref None and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "bulk|rpc|serve|lossy");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "how long to measure");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer");
      ("--quick", Arg.Set quick, "reduced-size rounds (self-check)");
      ("--spans", Arg.String (fun f -> spans_out := Some f), "write spans CSV");
      ("--commit", Arg.Set_string commit, "source identity to record");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some make -> make ~quick:!quick
    | None ->
      prerr_endline usage;
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline usage; exit 2);
  let p = Workloads.pattern ~seed:!seed in
  Printf.printf
    "meta: {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %d, \
     \"quick\": %b, \"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \
     \"datapath\": {\"offload\": %b, \"pool\": %b, \"timer_wheel\": %b, \
     \"header_prediction\": %b}, \"domains\": 1}\n"
    w.name !seed !seconds !trace !quick
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit shipped_offload shipped_pool shipped_wheel
    header_prediction;
  let metrics, attempted, failed, problems =
    with_shipped_datapath (fun () ->
        if !trace = 0 then end_to_end w p ~seed:!seed ~seconds:!seconds
        else per_layer w p ~seed:!seed ~seconds:!seconds ~spans_out:!spans_out)
  in
  List.iter print_metric metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let correct = failed = 0 && problems = [] && finite in
  result_line ~correct ~attempted ~failed
    (List.map
       (fun m -> if Float.is_finite m.value then m else { m with value = 0.0 })
       metrics);
  if not correct then exit 1
