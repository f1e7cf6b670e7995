(** Timers, exactly as in Figure 11 of the paper — with a choice of
    backend.

    The default backend is the paper's: [start] heap-allocates a fresh
    boolean cell and posts the handler to the scheduler
    ({!Scheduler.after}), to run only if the cell is still unset when it
    comes due.  [clear] works "by changing the value of a variable".
    Where the paper forks a thread that sleeps and then calls the
    handler, an armed timer here is a sleep-queue entry: the handler's
    thread is created at expiry, and a cleared timer never creates one.
    The order and timing of events are the same.  TCP's retransmission,
    delayed-ACK, 2MSL and user timers are all built on this.

    Setting {!use_wheel} routes new timers through the hierarchical
    timing wheel ({!Wheel}) instead: O(1) arm/clear and one shared
    scheduler alarm for any number of timers, at the price of firing
    up to one wheel grain (≈1 ms virtual) after the requested deadline.
    The flag is read at {!start} time, so both kinds may coexist; flip
    it before the stack arms its first timer for a clean comparison. *)

type t

(** When true, subsequently started timers use the timing-wheel backend;
    when false (the default), each timer is its own sleep-queue entry as
    in Figure 11. *)
val use_wheel : bool ref

(** [start handler us] arms a timer that calls [handler ()] after [us]
    virtual microseconds (rounded up to the wheel grain under the wheel
    backend) unless cleared first.  Must be called from inside a running
    scheduler. *)
val start : (unit -> unit) -> int -> t

(** [clear t] prevents the handler from firing (idempotent; harmless after
    expiry). *)
val clear : t -> unit

(** [cleared t] is true once [clear] has been called. *)
val cleared : t -> bool
