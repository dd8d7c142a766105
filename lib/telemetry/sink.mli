(** Per-session telemetry sink: the session's one event stream.

    One bounded buffer records everything a run reports about itself, in
    the order it happened: wall-clock spans (nestable, monotonic clock)
    and the optimizer's typed, timing-free events — sampled vertex
    cardinalities and edge weights (Figure 3.2), each chain round's
    (cost, sf) per competing segment (Table 2), the chosen segments, each
    edge execution (Figures 3.3/3.4) and each cache lookup. A span that
    describes an execution carries its event in the same entry: the
    ["execute_edge"] span holds the {!Edge_executed}, the ["chain_round"]
    span the {!Chain_round}. The accessors below are views over that one
    buffer; the sink also owns the session's {!Metrics.t} registry.

    The overhead contract: a *disabled* sink costs one boolean test per
    {!with_span} — no clock reads, no allocation inside the sink (callers
    hoist or accept their own closure allocations; attribute and event
    thunks are never evaluated). Call sites test {!enabled} before
    building an event payload for {!emit}. An *enabled* sink costs two
    clock reads and one bounded-buffer cons per span. The buffer is
    capped; records past the cap are counted (and surface as a final
    {!Truncated} event, an explicit marker in the exporters and an RX115
    diagnostic) rather than growing without bound.

    A sink is single-domain state, exactly like the session that owns it:
    share the {!Aggregate}, never a sink. *)

type span = {
  name : string;
  start_ns : int64;   (** monotonic clock at open *)
  dur_ns : int64;
  depth : int;        (** enclosing-span count at open; 0 = root *)
  lane : int;
      (** retired: always 0, since every span belongs to the session's
          one call tree. Kept only so existing readers and constructors of
          [span] still compile; drop it with the next benchmark change. *)
  attrs : (string * string) list;
}

type chain_path = {
  label : string;      (** e.g. "p1" *)
  via : string;        (** first vertex pair the segment branches through *)
  cost : float;
  sf : float;
}

type event =
  | Vertex_initialized of { vertex : int; card : int }
  | Edge_weighted of { edge : int; weight : float }
  | Chain_started of { source : int; min_edge : int }
  | Chain_round of { round : int; cutoff : int; paths : chain_path list }
  | Chain_chosen of {
      edges : int list;
      trigger : [ `Stopping_condition | `Exhausted | `Single_edge ];
    }
  | Edge_executed of { edge : int; order : int; pairs : int; rel_rows : int }
      (** [order] is the runtime's execution ordinal, from 1. *)
  | Cache_lookup of { edge : int; store : [ `Relation | `Estimate ]; hit : bool }
      (** A [Rox_cache] consultation: [`Relation] lookups guard full edge
          executions, [`Estimate] lookups guard cut-off sampled runs.
          Recorded only when a cache store is wired in, so cache-off
          streams are unchanged. *)
  | Truncated of { dropped : int }
      (** The buffer hit its cap and [dropped] later records were
          discarded. Never stored: synthesized (at most once, always
          last) by {!events} so every consumer sees an explicit partial
          stream instead of a silently shortened history. *)

type t

val default_cap : int
(** 65536 records (a few MB at worst) — generous for any single query;
    the paper's workloads record a few hundred. *)

val create : ?cap:int -> enabled:bool -> unit -> t
(** A fresh sink with a fresh {!Metrics.t}. *)

val null : unit -> t
(** A disabled sink — the default every config record reaches for. *)

val enabled : t -> bool
val metrics : t -> Metrics.t

val with_span :
  t ->
  ?attrs:(unit -> (string * string) list) ->
  ?record:(Metrics.t -> int -> unit) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span t name f] times [f] as one span. Disabled: exactly [f ()].
    Enabled: the span closes (and [record metrics dur_ns] fires, and
    [attrs] is evaluated) even when [f] raises — budget aborts unwind
    through well-nested spans. [record] is where call sites feed latency
    histograms without a second clock read. *)

val with_event_span :
  t ->
  attrs:(unit -> (string * string) list) ->
  record:(Metrics.t -> int -> unit) ->
  event:('a -> event) ->
  string ->
  (unit -> 'a) ->
  'a
(** {!with_span} for a span that describes one execution: when [f]
    returns [x], the span's own entry also carries [event x] (evaluated
    only if the entry is stored). A span that unwinds keeps its name and
    attributes but carries no event. *)

val emit : t -> event -> unit
(** Append one event that no span carries. Disabled sinks and records
    past the cap cost one test (the drop is counted). *)

val note_cache_lookup :
  t -> edge:int -> store:[ `Relation | `Estimate ] -> hit:bool -> unit
(** One cache consultation: appends {!Cache_lookup} and increments the
    matching hit/miss counter. No-op when disabled. *)

val spans : t -> span list
(** In completion order (a child precedes its parent). *)

val spans_chronological : t -> span list
(** Sorted by start time, parents before children — the order exporters
    and the RX401 nesting check want. *)

val events : t -> event list
(** Every event, span-carried or not, in recording order, with a final
    {!Truncated} marker iff records were dropped. Timing-free, hence
    identical across runs of one seed. *)

val execution_order : t -> int list
(** Edge ids in the order they were executed. *)

val chain_rounds : t -> (int * int * chain_path list) list
(** All (round, cutoff, paths) events — the raw data behind Table 2. *)

val cache_hits : ?store:[ `Relation | `Estimate ] -> t -> int
(** Number of cache hits recorded, optionally for one store only. *)

val cache_lookups : ?store:[ `Relation | `Estimate ] -> t -> int
(** Number of cache consultations recorded (hits + misses). *)

val edge_timings : t -> (int * int) list
(** (edge id, wall ns) of every span carrying an {!Edge_executed}, in
    completion order — the flight recorder's per-edge breakdown. *)

val span_count : t -> int
val dropped : t -> int
(** Records (spans or events) discarded because the buffer was full. *)

val depth : t -> int
(** Currently open spans (0 when no span is live — tests use this to
    assert exception-safety of {!with_span}). *)

val reset : t -> unit
(** Clear the buffer and the dropped count; metrics are left alone. *)
