(** The four workloads, one round at a time.

    A round builds fresh hosts on a fresh wire (set-up), opens what the
    workload opens before its clock starts, runs the workload to
    completion inside one scheduler run, and verifies every delivered byte
    against content derived from the seed.  It returns what it measured;
    {!Foxbench} turns rounds into metrics. *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Cond = Fox_sched.Cond
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Ipv4_addr = Fox_ip.Ipv4_addr
module Status = Fox_proto.Status

(* ------------------------------------------------------------------ *)
(* Generated content                                                  *)
(* ------------------------------------------------------------------ *)

(* Every payload is a window of one seeded byte pattern.  The pattern
   carries a copy of its head past its end, so any window of up to
   [slack] bytes starting below [period] is contiguous. *)
let period = 1 lsl 20

let slack = 1 lsl 16

type pattern = Bytes.t

let pattern ~seed : pattern =
  let head = Rng.bytes (Rng.create seed) period in
  Bytes.cat head (Bytes.sub head 0 slack)

(* [same p pos buf off len]: do [len] bytes of [buf] at [off] equal the
   pattern's bytes at stream position [pos]?  Compares in place, eight
   bytes at a time: the verifier runs inside every timed window, so it
   must not allocate. *)
let same (p : pattern) pos buf off len =
  let rec go pos off len =
    if len = 0 then true
    else begin
      let start = pos land (period - 1) in
      let n = min len (period + slack - start) in
      let rec words i =
        if i + 8 > n then bytes i
        else if
          (Bytes.get_int64_ne p (start + i) : int64)
          = Bytes.get_int64_ne buf (off + i)
        then words (i + 8)
        else false
      and bytes i =
        if i = n then true
        else if Bytes.unsafe_get p (start + i) = Bytes.unsafe_get buf (off + i)
        then bytes (i + 1)
        else false
      in
      words 0 && go (pos + n) (off + n) (len - n)
    end
  in
  go pos off len

let same_packet p pos packet =
  same p pos (Packet.buffer packet) (Packet.offset packet) (Packet.length packet)

let fill p pos packet len =
  let start = pos land (period - 1) in
  Packet.blit_from_bytes p start packet 0 len

(* ------------------------------------------------------------------ *)
(* What a round measured                                              *)
(* ------------------------------------------------------------------ *)

type round = {
  ops : int;  (** attempted: segments written, exchanges or requests *)
  failed : int;  (** ops lost or delivered wrong *)
  conns : int;  (** connections opened *)
  setup_ns : int;  (** hosts, stacks and (bulk, rpc) the connection *)
  wall_ns : int;  (** the timed window: after set-up to the last op *)
  bytes : int;  (** verified payload bytes delivered *)
  virt_us : int;  (** virtual duration of the timed window *)
  words : float;  (** minor words allocated in the timed window *)
  lat : int array;  (** ns per completed op, request write to verified *)
  segs_out : int;  (** TCP segments sent, both hosts *)
  segs_in : int;
  rsts : int;  (** RSTs sent, inside connections or not *)
  retransmissions : int;  (** summed over the round's connections *)
  fast_path_hits : int;
  duplicate_segments : int;
  frames_tx : int;  (** frames handed to the wire, both ports *)
  frames_rx : int;
  loss_drops : int;
  queue_drops : int;
  switches : int;
  forks : int;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
  copied : int;  (** [Packet.bytes_copied] in the window *)
  summed : int;  (** [Checksum.bytes_summed] *)
  fused : int;  (** [Copy.bytes_fused] *)
  max_open : int;  (** peak concurrently open client connections *)
}

type snap = {
  s_t : int;
  s_w : float;
  s_v : int;
  s_minor : int;
  s_major : int;
  s_promoted : float;
  s_copied : int;
  s_summed : int;
  s_fused : int;
}

(* The bookkeeping allocates outside the window it brackets. *)
let snap_start () =
  let g = Gc.quick_stat () in
  let copied = !Packet.bytes_copied
  and summed = !Checksum.bytes_summed
  and fused = !Copy.bytes_fused in
  let v = Scheduler.now () in
  let w = Gc.minor_words () in
  let t = Spans.now_ns () in
  { s_t = t; s_w = w; s_v = v; s_minor = g.Gc.minor_collections;
    s_major = g.Gc.major_collections; s_promoted = g.Gc.promoted_words;
    s_copied = copied; s_summed = summed; s_fused = fused }

let snap_end () =
  let t = Spans.now_ns () in
  let w = Gc.minor_words () in
  let v = Scheduler.now () in
  let g = Gc.quick_stat () in
  { s_t = t; s_w = w; s_v = v; s_minor = g.Gc.minor_collections;
    s_major = g.Gc.major_collections; s_promoted = g.Gc.promoted_words;
    s_copied = !Packet.bytes_copied; s_summed = !Checksum.bytes_summed;
    s_fused = !Copy.bytes_fused }

let addr_a = Ipv4_addr.of_string "10.0.0.1"

let addr_b = Ipv4_addr.of_string "10.0.0.2"

let port = 5001

module Make (S : Stacks.S) = struct
  module Http = Fox_app.Http.Make (S.Sock)

  (* Assemble a round's result from its window and its counters. *)
  let finish ~ops ~failed ~conns ~setup_ns ~bytes ~lat ~max_open ~w0 ~w1
      ~(sched : Scheduler.stats) ~link ~tcps ~conn_stats conns_list =
    let tcp f = List.fold_left (fun acc t -> acc + f (S.stats t)) 0 tcps in
    let cs f =
      List.fold_left (fun acc c -> acc + f (conn_stats c)) 0 conns_list
    in
    let ls f = f (Link.stats link 0) + f (Link.stats link 1) in
    {
      ops;
      failed;
      conns;
      setup_ns;
      wall_ns = w1.s_t - w0.s_t;
      bytes;
      virt_us = w1.s_v - w0.s_v;
      words = w1.s_w -. w0.s_w;
      lat;
      segs_out = tcp (fun s -> s.Fox_tcp.Tcp.segs_out);
      segs_in = tcp (fun s -> s.Fox_tcp.Tcp.segs_in);
      rsts = tcp (fun s -> s.Fox_tcp.Tcp.rsts_sent);
      retransmissions = cs (fun s -> s.Fox_tcp.Tcp.retransmissions);
      fast_path_hits = cs (fun s -> s.Fox_tcp.Tcp.fast_path_hits);
      duplicate_segments = cs (fun s -> s.Fox_tcp.Tcp.duplicate_segments);
      frames_tx = ls (fun s -> s.Link.tx_frames);
      frames_rx = ls (fun s -> s.Link.rx_frames);
      loss_drops = ls (fun s -> s.Link.dropped);
      queue_drops = ls (fun s -> s.Link.queue_drops);
      switches = sched.Scheduler.switches;
      forks = sched.Scheduler.forks;
      minor_gcs = w1.s_minor - w0.s_minor;
      major_gcs = w1.s_major - w0.s_major;
      promoted = w1.s_promoted -. w0.s_promoted;
      copied = w1.s_copied - w0.s_copied;
      summed = w1.s_summed - w0.s_summed;
      fused = w1.s_fused - w0.s_fused;
      max_open;
    }

  (* ---------------------------------------------------------------- *)
  (* bulk and lossy: one backlogged one-way stream                    *)
  (* ---------------------------------------------------------------- *)

  (** [stream ~netem ~bytes p ~pos] sends [bytes] of the pattern from
      stream position [pos] as full-MSS writes from host A to host B. *)
  let stream ~netem ~bytes p ~pos =
    let cap = (bytes / 512) + 2 in
    let written_at = Array.make cap 0 and lat = Array.make cap 0 in
    let t_setup = Spans.now_ns () in
    let link = Link.point_to_point netem in
    let a = S.host link 0 addr_a and b = S.host link 1 addr_b in
    let mss = ref 1 and segs = ref 0 in
    let received = ref 0 and completed = ref 0 and bad = ref 0 in
    let conns = ref [] in
    let setup_ns = ref 0 in
    let w0 = ref None and w1 = ref None in
    S.listen b port (fun conn ->
        conns := conn :: !conns;
        ( (fun packet ->
            let len = Packet.length packet in
            if not (same_packet p (pos + !received) packet) then incr bad;
            received := !received + len;
            Packet.release packet;
            (* every write whose last byte has now arrived is complete *)
            let now = Spans.now_ns () in
            while
              !completed < !segs
              && !received >= min bytes ((!completed + 1) * !mss)
            do
              lat.(!completed) <- now - written_at.(!completed);
              incr completed
            done;
            if !received >= bytes && !w1 = None then w1 := Some (snap_end ())),
          function Status.Remote_close -> S.close conn | _ -> () ));
    let sched =
      S.run (fun () ->
          let conn = S.connect a addr_b port (fun _ -> (Packet.release, ignore)) in
          conns := conn :: !conns;
          mss := S.mss conn;
          segs := (bytes + !mss - 1) / !mss;
          setup_ns := Spans.now_ns () - t_setup;
          w0 := Some (snap_start ());
          let write k =
            let off = k * !mss in
            let n = min !mss (bytes - off) in
            Spans.current_op := k;
            written_at.(k) <- Spans.now_ns ();
            let packet = S.allocate_send conn n in
            fill p (pos + off) packet n;
            S.send conn packet
          in
          (try
             for k = 0 to !segs - 1 do
               S.app write k
             done;
             S.close conn
           with Fox_proto.Common.Send_failed _ -> ()))
    in
    let w0 = Option.get !w0 in
    let w1 = match !w1 with Some w -> w | None -> snap_end () in
    finish ~ops:!segs ~failed:(!segs - !completed + !bad) ~conns:1
      ~setup_ns:!setup_ns ~bytes:(min !received bytes)
      ~lat:(Array.sub lat 0 !completed) ~max_open:1 ~w0 ~w1 ~sched ~link
      ~tcps:[ a; b ] ~conn_stats:S.conn_stats !conns

  (* ---------------------------------------------------------------- *)
  (* rpc: closed-loop 64-byte echo on one connection                  *)
  (* ---------------------------------------------------------------- *)

  let request_bytes = 64

  (** [rpc ~exchanges p ~pos]: exchange [k] sends the pattern's 64 bytes
      at [pos + 64k]; the server echoes them from its receive upcall and
      the client's thread waits for the whole echo before the next. *)
  let rpc ~exchanges p ~pos =
    let lat = Array.make exchanges 0 in
    let t_setup = Spans.now_ns () in
    let link = Link.point_to_point Netem.gigabit in
    let a = S.host link 0 addr_a and b = S.host link 1 addr_b in
    let conns = ref [] in
    S.listen b port (fun conn ->
        conns := conn :: !conns;
        ( (fun packet ->
            let n = Packet.length packet in
            let echo = S.allocate_send conn n in
            Packet.blit packet 0 (Packet.buffer echo) (Packet.offset echo) n;
            Packet.release packet;
            S.send conn echo),
          function Status.Remote_close -> S.close conn | _ -> () ));
    let reply = Bytes.create request_bytes in
    let got = ref 0 and expect = ref 0 in
    let done_ : bool Cond.t = Cond.create () in
    let on_data packet =
      let n = Packet.length packet in
      if !got + n > request_bytes then begin
        got := -1;
        Cond.signal done_ false
      end
      else begin
        Packet.blit packet 0 reply !got n;
        got := !got + n;
        if !got = request_bytes then
          Cond.signal done_ (same p !expect reply 0 request_bytes)
      end;
      Packet.release packet
    in
    let setup_ns = ref 0 and w0 = ref None and w1 = ref None in
    let completed = ref 0 in
    let sched =
      S.run (fun () ->
          let conn = S.connect a addr_b port (fun _ -> (on_data, ignore)) in
          conns := conn :: !conns;
          setup_ns := Spans.now_ns () - t_setup;
          w0 := Some (snap_start ());
          let issue k =
            Spans.current_op := k;
            got := 0;
            expect := pos + (k * request_bytes);
            let packet = S.allocate_send conn request_bytes in
            fill p !expect packet request_bytes;
            S.send conn packet
          in
          (try
             for k = 0 to exchanges - 1 do
               let t0 = Spans.now_ns () in
               S.app issue k;
               if Cond.wait done_ then begin
                 lat.(!completed) <- Spans.now_ns () - t0;
                 incr completed
               end
             done
           with Fox_proto.Common.Send_failed _ -> ());
          w1 := Some (snap_end ());
          S.close conn)
    in
    let w0 = Option.get !w0 in
    let w1 = match !w1 with Some w -> w | None -> snap_end () in
    finish ~ops:exchanges ~failed:(exchanges - !completed) ~conns:1
      ~setup_ns:!setup_ns ~bytes:(!completed * request_bytes)
      ~lat:(Array.sub lat 0 !completed) ~max_open:1 ~w0 ~w1 ~sched ~link
      ~tcps:[ a; b ] ~conn_stats:S.conn_stats !conns

  (* ---------------------------------------------------------------- *)
  (* serve: HTTP/1.1 to a fleet of concurrent closed-loop clients     *)
  (* ---------------------------------------------------------------- *)

  let http_port = 8080

  let page_bytes = 1024

  let pages = 16

  (** [serve ~clients ~requests p ~pos]: the site holds [pages] 1 KB
      pages cut from the pattern at [pos]; every client connects at once,
      GETs [requests] of them in turn, verifying each body, then
      closes. *)
  let serve ~clients ~requests p ~pos =
    let page i =
      Bytes.sub_string p ((pos + (i * page_bytes)) land (period - 1)) page_bytes
    in
    let bodies = Array.init pages page in
    let paths = Array.init pages (Printf.sprintf "/p/%d") in
    let site =
      Fox_app.Http.Site.of_pages
        (List.init pages (fun i ->
             (paths.(i), "application/octet-stream", bodies.(i))))
    in
    let lat = Array.make (clients * requests) 0 in
    let t_setup = Spans.now_ns () in
    let netem = { Netem.gigabit with Netem.queue_frames = 4096; seed = pos } in
    let link = Link.hub ~ports:2 netem in
    let a = S.host link 0 addr_a and b = S.host link 1 addr_b in
    let socks = ref [] in
    S.Sock.listen b http_port (fun sock ->
        socks := sock :: !socks;
        Http.serve site sock);
    let setup_ns = Spans.now_ns () - t_setup in
    let completed = ref 0 and bytes = ref 0 in
    let open_now = ref 0 and max_open = ref 0 and finished = ref 0 in
    let w0 = ref None and w1 = ref None in
    let client c =
      match S.Sock.connect a addr_b http_port with
      | exception Fox_proto.Common.Connection_failed _ -> ()
      | sock -> (
        socks := sock :: !socks;
        incr open_now;
        if !open_now > !max_open then max_open := !open_now;
        match
          for r = 0 to requests - 1 do
            let op = (c * requests) + r in
            Spans.current_op := op;
            let i = ((c * 7) + (r * 3) + pos) land (pages - 1) in
            let t0 = Spans.now_ns () in
            match Http.get sock paths.(i) with
            | Some (200, _, body) when String.equal body bodies.(i) ->
              lat.(!completed) <- Spans.now_ns () - t0;
              incr completed;
              bytes := !bytes + String.length body
            | Some _ | None -> ()
          done
        with
        | () ->
          decr open_now;
          S.Sock.close sock
        | exception
            (Fox_proto.Socket.Socket_error _ | Fox_proto.Common.Send_failed _)
          ->
          decr open_now;
          S.Sock.abort sock)
    in
    let sched =
      S.run (fun () ->
          w0 := Some (snap_start ());
          for c = 0 to clients - 1 do
            Scheduler.fork (fun () ->
                S.app client c;
                incr finished;
                if !finished = clients then w1 := Some (snap_end ()))
          done)
    in
    let w0 = Option.get !w0 in
    let w1 = match !w1 with Some w -> w | None -> snap_end () in
    let ops = clients * requests in
    finish ~ops ~failed:(ops - !completed) ~conns:clients ~setup_ns
      ~bytes:!bytes ~lat:(Array.sub lat 0 !completed) ~max_open:!max_open ~w0
      ~w1 ~sched ~link ~tcps:[ a; b ] ~conn_stats:S.Sock.conn_stats !socks
end
