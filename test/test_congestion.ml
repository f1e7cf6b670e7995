(* Tests of the pluggable congestion layer (lib/fox_tcp/congestion.ml)
   and the adverse-network scenario matrix (lib/fox_check/scenarios.ml).

   The headline test pins the Reno extraction to the monolithic-era
   engine: the differential-fuzz traces for seeds 0-9 must hash to the
   digests recorded against the pre-refactor code.  If a change to the
   TCP core moves any of these, it changed Reno behaviour — deliberate
   changes must re-baseline with an explanation, accidental ones are a
   regression. *)

module Congestion = Fox_tcp.Congestion
module Seq = Fox_tcp.Seq
module Fuzz = Fox_check.Fuzz
module Soak = Fox_check.Soak
module Scenarios = Fox_check.Scenarios

(* ------------------------------------------------------------------ *)
(* Reno behaviour-preservation: pre-refactor trace digests            *)
(* ------------------------------------------------------------------ *)

(* MD5 of [Fuzz.trace_of_seed ~seed] for seeds 0-9, captured on the
   monolithic (pre-CONGESTION-functor) engine.

   Re-baselined once (PR 8): the advertised MSS changed from
   [mtu - 24] to the correct [mtu - 20] in both engines (the 24
   included SYN-only option slack, so full data segments under-filled
   the MTU by 4 bytes).  Seeds 1, 4, 5 and 8 — the schedules with
   chunks longer than one segment — moved; the others are unchanged. *)
let pre_refactor_digests =
  [
    (0, "9ae8b65b0e7413bdc422bf967302c6ab");
    (1, "f33b8230f96682c3d7488c7daa2dc46c");
    (2, "32d4a298c2145b76aac8313bd6a78d7b");
    (3, "dc5eddd9c26cf9a68e81ac0e12bf880e");
    (4, "bb03d9b6dc854967fb02513c5f3321a0");
    (5, "2fdb5c18768e665f3dcc7cdd263029e5");
    (6, "632ef449cb911f3f98d64c3ba46f64b7");
    (7, "72aeca8b012df44f1456863e7018e3b6");
    (8, "385a1b1fec6d94e8a77c7432620a925d");
    (9, "e1ed01dbb39899e12295044a22156dd7");
  ]

let test_reno_fingerprint_pre_refactor () =
  List.iter
    (fun (seed, expected) ->
      let digest =
        Digest.to_hex (Digest.string (Fuzz.trace_of_seed ~seed))
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d trace digest matches pre-refactor engine"
           seed)
        expected digest)
    pre_refactor_digests

(* ------------------------------------------------------------------ *)
(* Hook-level unit tests                                              *)
(* ------------------------------------------------------------------ *)

let mss = 536

let ctx ?(flight = 8 * mss) ?(cwnd = 8 * mss) ?(ssthresh = 65_535)
    ?(una = 1000) ?(nxt = 10_000) ?(srtt_us = 2_000) ?(now = 1_000_000) () =
  {
    Congestion.mss;
    flight;
    cwnd;
    ssthresh;
    una = Seq.of_int una;
    nxt = Seq.of_int nxt;
    srtt_us;
    rto_us = 200_000;
    now;
  }

let test_newreno_partial_ack_retransmits () =
  let t = Congestion.Newreno.create () in
  (* three duplicate ACKs enter recovery and record [recover = nxt] *)
  let c = ctx () in
  ignore (Congestion.Newreno.on_dup_ack t c ~count:1);
  ignore (Congestion.Newreno.on_dup_ack t c ~count:2);
  let r3 = Congestion.Newreno.on_dup_ack t c ~count:3 in
  Alcotest.(check bool) "in recovery after 3 dups" true
    (Congestion.Newreno.in_recovery t);
  Alcotest.(check int) "ssthresh halves the flight"
    (max (c.Congestion.flight / 2) (2 * mss))
    r3.Congestion.next_ssthresh;
  (* a partial ACK (una below recover) must ask for a front
     retransmission and stay in recovery *)
  let partial = ctx ~una:5_000 ~nxt:10_000 () in
  let rp = Congestion.Newreno.on_ack t partial ~acked:(2 * mss) in
  Alcotest.(check bool) "partial ACK retransmits the front" true
    rp.Congestion.retransmit_front;
  Alcotest.(check bool) "still in recovery" true
    (Congestion.Newreno.in_recovery t);
  (* a full ACK (una at recover) leaves recovery deflated to ssthresh *)
  let full = ctx ~una:10_000 ~nxt:10_000 ~ssthresh:(4 * mss) () in
  let rf = Congestion.Newreno.on_ack t full ~acked:(4 * mss) in
  Alcotest.(check bool) "full ACK ends recovery" false
    (Congestion.Newreno.in_recovery t);
  Alcotest.(check bool) "full ACK does not retransmit" false
    rf.Congestion.retransmit_front;
  Alcotest.(check int) "window deflates to ssthresh" (4 * mss)
    rf.Congestion.next_cwnd

let test_cubic_deterministic_and_growing () =
  (* identical ACK sequences must produce identical windows (virtual
     time only), and the window must grow between loss events *)
  let run () =
    let t = Congestion.Cubic.create () in
    let cwnd = ref (2 * mss) in
    for i = 1 to 50 do
      let c = ctx ~cwnd:!cwnd ~now:(1_000_000 + (i * 10_000)) () in
      let r = Congestion.Cubic.on_ack t c ~acked:mss in
      cwnd := r.Congestion.next_cwnd
    done;
    !cwnd
  in
  let w1 = run () and w2 = run () in
  Alcotest.(check int) "deterministic under replay" w1 w2;
  Alcotest.(check bool)
    (Printf.sprintf "window grew (%d > %d)" w1 (2 * mss))
    true
    (w1 > 2 * mss)

let test_cubic_loss_shrinks_window () =
  let t = Congestion.Cubic.create () in
  let c = ctx ~cwnd:(20 * mss) ~flight:(20 * mss) () in
  let r = Congestion.Cubic.on_dup_ack t c ~count:3 in
  Alcotest.(check bool) "multiplicative decrease" true
    (r.Congestion.next_cwnd < 20 * mss);
  Alcotest.(check bool) "ssthresh follows" true
    (r.Congestion.next_ssthresh < 20 * mss)

let test_bbr_pacing_tracks_delivery_rate () =
  let t = Congestion.Bbr_lite.create () in
  Alcotest.(check (option int)) "unpaced before any bandwidth sample" None
    (Congestion.Bbr_lite.pacing_gap_us t (ctx ()) ~seg_bytes:mss);
  (* feed two round trips of ACKs ~2 ms apart so the windowed
     delivery-rate estimator closes an epoch and the filter rises *)
  let now = ref 1_000_000 in
  for _ = 1 to 20 do
    now := !now + 1_000;
    ignore
      (Congestion.Bbr_lite.on_ack t
         (ctx ~srtt_us:2_000 ~now:!now ())
         ~acked:(2 * mss))
  done;
  match Congestion.Bbr_lite.pacing_gap_us t (ctx ~now:!now ()) ~seg_bytes:mss with
  | None -> Alcotest.fail "expected a pacing gap once the filter is primed"
  | Some gap ->
    Alcotest.(check bool)
      (Printf.sprintf "gap %d us is positive and bounded" gap)
      true
      (gap >= 0 && gap <= 10_000)

let test_instances_registered () =
  Alcotest.(check (list string))
    "all four algorithms resolve by name"
    [ "reno"; "newreno"; "cubic"; "bbr" ]
    Congestion.names;
  List.iter
    (fun name ->
      match Congestion.of_name name with
      | Some (module C : Congestion.S) ->
        Alcotest.(check string) "name round-trips" name C.name
      | None -> Alcotest.failf "%s not registered" name)
    Congestion.names

(* ------------------------------------------------------------------ *)
(* Safety net: every instance through fuzz, soak and the scenarios    *)
(* ------------------------------------------------------------------ *)

let test_fuzz_matrix_smoke () =
  List.iter
    (fun (cc, failures) ->
      Alcotest.(check int)
        (Printf.sprintf "fuzz(%s): engines agree on 25 schedules" cc)
        0 (List.length failures))
    (Fuzz.run_matrix ~seed:11 ~iters:25 ())

let test_soak_matrix_smoke () =
  let cfg =
    {
      Soak.default_config with
      Soak.conns = 20;
      flood_at_us = 20_000;
      flood_syns = 8;
      flood_bad_acks = 2;
    }
  in
  List.iter
    (fun (cc, report, problems) ->
      Alcotest.(check (list string))
        (Printf.sprintf "soak(%s): no problems" cc)
        [] problems;
      Alcotest.(check int)
        (Printf.sprintf "soak(%s): every connection completed" cc)
        report.Soak.conns report.Soak.completed)
    (Soak.check_matrix cfg)

let test_scenario_matrix_quick () =
  (* every (scenario, algorithm) cell must complete its quick transfer
     with zero TCB-invariant faults — the congestion invariants
     (cwnd/ssthresh floors, recovery-exit monotonicity) run inside *)
  let results = Scenarios.run_matrix ~quick:true () in
  Alcotest.(check int) "full matrix ran"
    (List.length Scenarios.all * List.length Congestion.names)
    (List.length results);
  List.iter
    (fun (r : Scenarios.result) ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s: no invariant faults" r.Scenarios.scenario
           r.Scenarios.cc)
        [] r.Scenarios.invariant_faults;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: transfer completed" r.Scenarios.scenario
           r.Scenarios.cc)
        true r.Scenarios.complete;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: fairness in range" r.Scenarios.scenario
           r.Scenarios.cc)
        true
        (r.Scenarios.fairness > 0.0 && r.Scenarios.fairness <= 1.0))
    results

(* Digest of every quick scenario cell's outcome (delivered bytes, end
   time, retransmissions, injected bytes), recorded before the fox_check
   harnesses shared one scaffold; the refactor must reproduce it. *)
let pinned_scenario_digest = "7d14822b21c9b5df0dcfdbf99a814518"

let test_scenario_matrix_pinned () =
  let cells =
    List.map
      (fun (r : Scenarios.result) ->
        Printf.sprintf "%s/%s:%s:%d:%d:%d" r.Scenarios.scenario r.Scenarios.cc
          (String.concat ","
             (List.map
                (fun f -> string_of_int f.Scenarios.delivered)
                r.Scenarios.flow_results))
          r.Scenarios.end_time r.Scenarios.retransmissions
          r.Scenarios.injected_bytes)
      (Scenarios.run_matrix ~quick:true ())
  in
  Alcotest.(check string) "quick matrix digest" pinned_scenario_digest
    (Digest.to_hex (Digest.string (String.concat "|" cells)))

let () =
  Alcotest.run "congestion"
    [
      ( "behaviour-preservation",
        [
          Alcotest.test_case "reno digest vs pre-refactor engine" `Quick
            test_reno_fingerprint_pre_refactor;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "newreno partial ack" `Quick
            test_newreno_partial_ack_retransmits;
          Alcotest.test_case "cubic deterministic growth" `Quick
            test_cubic_deterministic_and_growing;
          Alcotest.test_case "cubic loss response" `Quick
            test_cubic_loss_shrinks_window;
          Alcotest.test_case "bbr pacing" `Quick
            test_bbr_pacing_tracks_delivery_rate;
          Alcotest.test_case "registry" `Quick test_instances_registered;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "fuzz per algorithm" `Slow
            test_fuzz_matrix_smoke;
          Alcotest.test_case "soak per algorithm" `Slow
            test_soak_matrix_smoke;
          Alcotest.test_case "scenarios per algorithm" `Slow
            test_scenario_matrix_quick;
          Alcotest.test_case "pinned quick matrix digest" `Slow
            test_scenario_matrix_pinned;
        ] );
    ]
