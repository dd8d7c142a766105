(** Byte-budgeted, weight-aware LRU behind one mutex — the generic core
    of the cross-query cache.

    Entries carry an explicit weight (their materialized size in bytes);
    the cache holds the most-recently-used entries whose weights sum to at
    most the byte budget, evicting from the cold end. One hashtable, one
    recency list and one budget sit behind a single [Mutex.t]; every
    operation takes it. Every lookup and insertion updates the
    hit/miss/eviction/byte counters exposed as a {!stats} snapshot, so
    benchmarks and the CLI can report reuse without instrumenting call
    sites. A lookup that finds the mutex busy blocks like any other
    operation and counts one [lock_waits], so contention stays measured.

    When the {!Rox_util.Accesslog} is armed at construction time, every
    operation records one access-log Write under the cache's registered
    lock, so the RX5xx race detector sees the cache as one mutex-guarded
    shared site; disarmed, the instrumentation is one boolean test per
    operation. *)

type stats = {
  hits : int;            (** lookups answered from the cache *)
  misses : int;          (** lookups that found nothing *)
  insertions : int;      (** entries admitted (including replacements) *)
  evictions : int;       (** entries pushed out by the byte budget *)
  rejected : int;        (** entries larger than the budget, never admitted *)
  entries : int;         (** currently resident entries *)
  bytes : int;           (** currently resident weight total *)
  budget : int;          (** the configured byte budget *)
  lock_waits : int;      (** lookups that found the mutex busy *)
  fast_hits : int;
      (** retired: always 0. The cache no longer has a lock-free read
          path; the field stays so existing readers of the record build. *)
}

val stats_to_string : stats -> string
(** One-line rendering: hits/misses/hit-rate, evictions, bytes/budget,
    lock waits. *)

module type S = sig
  type key
  type 'v t

  val create : name:string -> budget:int -> unit -> 'v t
  (** A cache holding at most [budget] bytes of entry weight. A
      non-positive budget admits nothing, which is how "cache off" is
      spelled. [name] labels the cache's site and lock in RX5xx
      race-detector reports. *)

  val find : 'v t -> key -> 'v option
  (** Counted lookup; a hit refreshes the entry's recency. *)

  val mem : 'v t -> key -> bool
  (** Uncounted, recency-neutral membership probe (tests, introspection). *)

  val add : 'v t -> key -> weight:int -> 'v -> unit
  (** Insert or replace, then evict coldest entries until the weight total
      fits the budget again. Entries heavier than the whole budget are
      rejected (counted, not stored; a resident entry under the same key
      is dropped rather than left stale).
      @raise Invalid_argument when [weight] is negative. *)

  val remove : 'v t -> key -> unit

  val clear : 'v t -> unit
  (** Drop all entries. Counters other than [entries]/[bytes] persist. *)

  val stats : 'v t -> stats
  (** An atomic snapshot, taken under the mutex. *)

  val iter_coldest_first : 'v t -> (key -> 'v -> unit) -> unit
  (** Entries in eviction order (least recently used first) — the
      observable the eviction-order property tests pin down. Runs under
      the mutex: [f] must not call back into the cache. *)
end

module Make (K : Hashtbl.HashedType) : S with type key = K.t
