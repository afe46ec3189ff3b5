(** Simulated byte-addressable memory region made of TMType cells.

    A region is an array of {!Word.t} cells (value + sequence — the paper's
    "all even-numbered words are a value, all odd-numbered words a
    sequence").  In [Persistent] mode it carries an x86-like persistence
    model: ordinary stores and CASes land in the volatile ("cache") side,
    {!pwb} writes one cache line back to the durable side, {!pfence} orders
    pwbs, and {!crash} discards all volatile state that was not written
    back — optionally letting a random subset of dirty lines survive, the
    way arbitrary cache eviction would on real hardware.

    In [Volatile] mode the durable side does not exist and pwb/pfence are
    free: this is the heap of the STM variants ("the algorithm for the STM
    is similar, minus the pwbs").

    All accesses go through {!Satomic}, so they are scheduling points under
    simulation and genuine atomics under real domains. *)

type mode = Volatile | Persistent

type t

val create : ?mode:mode -> ?id:string -> int -> t
(** [create n] allocates a region of [n] cells, all {!Word.zero}.
    Default mode: [Persistent].  [id] (default [""]) prefixes the keys
    registered by {!attach_telemetry} ([<id>.pmem.*]) so several live
    regions can share one registry; the empty id keeps the historical
    unprefixed [pmem.*] names. *)

val partition : ?id_prefix:string -> t -> int list -> t list
(** [partition t sizes] carves [t] into consecutive views of the given
    sizes (each a positive multiple of {!line_cells}; their sum must fit
    in [t]).  Views share the device's cells, durable shadow and dirty
    bits, but carry their own {!Pstats}, observer and telemetry id
    ([id_prefix ^ string_of_int i], default prefix ["s"]), so one
    simulated NVM device can host N independent TM instances — the shard
    heaps — while {!crash} (root-only) remains the shared crash/eviction
    driver.  Cell indices in a view are view-local; the root handle keeps
    addressing the whole device, its observer sees every access in
    device-global coordinates, and its [Pstats] aggregates all views.

    [t] may itself be a view: re-partitioning composes the offsets, the
    sub-views point straight at the root device ({!parent} returns the
    root, not the intermediate view), and they join the root's view list
    so they receive [Ev_crash] like first-level views. *)

val mode : t -> mode
val size : t -> int
(** Cells addressable through this handle — the view length for a view. *)

val offset : t -> int
(** Device offset of this handle's first cell (0 for a root): the
    translation between view-local and device-global coordinates, e.g.
    for passing a view's {!dirty_line_indices} to the root's {!crash}. *)

val stats : t -> Pstats.t
val id : t -> string

val parent : t -> t option
(** [Some root] for a view produced by {!partition}, [None] for a root. *)

val line_cells : int
(** Cells per simulated cache line (4 cells of 16 bytes = 64-byte lines). *)

val line_of : int -> int
(** Cache line containing a cell index — the granularity at which {!pwb}
    flushes and at which callers may deduplicate flushes. *)

(** {1 Cell access} *)

val load : t -> int -> Word.t
val cas : t -> int -> Word.t -> Word.t -> bool
(** Double-word CAS on a cell; counted in [stats.dcas]. *)

val cas1 : t -> int -> Word.t -> Word.t -> bool
(** Same primitive, counted as a single-word CAS ([stats.cas]) — for
    metadata cells like [curTx] that only conceptually occupy one word. *)

val store : t -> int -> Word.t -> unit
(** Plain (non-CAS) store, for thread-private cells such as a thread's own
    write-set log, and for recovery code. *)

(** {1 Persistence} *)

val pwb : t -> int -> unit
(** Write back the cache line containing cell [i]. *)

val pwb_range : t -> int -> int -> unit
(** [pwb_range t off len]: one pwb per distinct line covering
    [off .. off+len-1]. *)

val pfence : t -> unit

val pwb_cost : int ref
val pfence_cost : int ref
(** Simulated-time prices (scheduling steps) of the persistence
    primitives.  On real hardware an ordering fence that drains the write
    pipeline costs several times more than issuing a CLWB; the defaults
    (pwb = 1, pfence = 4) encode that ratio, and the §V-B-table benchmark
    reports raw counts regardless of these prices. *)

val crash :
  t -> ?evict_fraction:float -> ?evict_lines:int list -> ?rng:Runtime.Rng.t ->
  unit -> unit
(** Simulate a full-system crash followed by restart: every dirty line is
    lost, except that the lines in [evict_lines] (default none) are evicted
    (hence persisted) deterministically, and each remaining dirty line has
    probability [evict_fraction] (default 0) of having been evicted before
    the crash.  [evict_lines] is how the crash-point explorer enumerates
    exact adversarial evictions; [evict_fraction] is the randomized
    campaign knob.  The volatile side is then reloaded from the durable
    side.  Raises [Invalid_argument] on a [Volatile] region, an
    out-of-range line index, or [evict_fraction > 0] without [~rng]: the
    caller must supply an RNG derived from its own campaign seed, since a
    module-level default would silently correlate eviction choices across
    campaigns.  On a partitioned device, crash the root (views raise
    [Invalid_argument]); every view's observer also receives [Ev_crash],
    so per-shard checkers reset their durable models. *)

val dirty_lines : t -> int
(** Number of lines with unpersisted modifications (testing aid). *)

val dirty_line_indices : t -> int list
(** The dirty lines themselves, ascending — the candidate [evict_lines]
    for a systematic crash (step-free; checkers and explorers only).  On a
    view, restricted to the view's range and in view-local line numbers;
    pass root indices to {!crash}. *)

val peek : t -> int -> Word.t
(** Read the volatile side without a scheduling step (checkers only). *)

val peek_durable : t -> int -> Word.t
(** Read the durable side directly (checkers only). *)

(** {1 Instrumentation}

    An optional observer is invoked synchronously after every memory
    operation — this is the hook the {!Check.Tmcheck} sanitizer attaches
    to.  The callback runs at the exact point of the access, with no
    scheduling point between the access and the callback, so under the
    deterministic {!Runtime.Sched} it sees a linearization of all
    shared-memory traffic.  Observers must not access the region through
    the stepping API (use {!peek}/{!peek_durable}), and are meaningful
    only under the cooperative scheduler or sequential code — not under
    real domains. *)

type event =
  | Ev_load of { addr : int; w : Word.t }
  | Ev_store of { addr : int; was : Word.t; now : Word.t }
  | Ev_cas of { addr : int; old : Word.t; desired : Word.t; ok : bool; dcas : bool }
      (** [dcas] distinguishes {!cas} (double-word, data) from {!cas1}
          (metadata). *)
  | Ev_pwb of { line : int }  (** fired after the line was written back *)
  | Ev_pfence
  | Ev_crash  (** fired after eviction and reload from the durable side *)

val set_observer : t -> (event -> unit) option -> unit

val attach_telemetry : t -> Runtime.Telemetry.t -> unit
(** Register this region's {!Pstats} as a pull source of the given
    telemetry registry, under the ["<id>.pmem.*"] names (pwb, pfence,
    cas, dcas, loads, stores) — unprefixed ["pmem.*"] when the id is
    empty.  The source reads the live counters at snapshot time; distinct
    ids keep several attached regions separable in one snapshot. *)
