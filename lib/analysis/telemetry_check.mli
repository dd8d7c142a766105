(** Telemetry span verifier (RX4xx).

    A {!Rox_telemetry.Sink.t} records wall-clock spans next to the
    deterministic optimizer events; this pass checks the spans' timing
    discipline:

    - [RX401] spans are well-nested per sink — as strictly LIFO intervals
      they must nest or be disjoint, never partially overlap;
    - [RX402] no span has a negative duration (a broken monotonic clock
      or a hand-built span).

    A truncated buffer is reported once, by {!Trace_check} (RX115, at the
    events view's [Truncated] marker). A disabled sink vacuously passes:
    it records nothing to verify. *)

val check : Rox_telemetry.Sink.t -> Diagnostic.t list
