(** Run-length encoded page diffs (paper §4.2).

    A diff records the maximal byte ranges of a page that changed relative
    to its twin.  Applying a diff overwrites exactly those ranges, so
    applying the same diff twice is idempotent and diffs from concurrent
    writers to disjoint ranges commute — the property the multiple-writer
    protocol relies on.

    The encoding is flat: one buffer holding, in increasing offset order,
    each run's [(offset, length)] descriptor followed by its bytes, so a
    diff costs one record and one buffer whatever its run count.  A diff
    is immutable once created; nodes share diffs by reference (a reply
    carries the creator's own value). *)

type t

(** [create ~page ~twin ~current] encodes the differences of [current]
    relative to [twin].  Both must have equal length. *)
val create : page:int -> twin:Bytes.t -> current:Bytes.t -> t

(** Which coherent page this diff describes. *)
val page : t -> int

(** Number of runs (maximal changed ranges) the diff carries. *)
val run_count : t -> int

val is_empty : t -> bool

(** Overwrite the changed ranges of [target] with the diff's data. *)
val apply : t -> Bytes.t -> unit

(** [merge ds] collapses several diffs of the same page into one whose
    application is equivalent to applying [ds] in list order (later runs
    win on overlap; adjacent runs coalesce).  Raises [Invalid_argument] on
    an empty list or mixed pages. *)
val merge : t list -> t

(** Wire size in bytes: a small header plus, per run, a 4-byte descriptor
    and the run data. *)
val size_bytes : t -> int

(** Total number of changed bytes carried. *)
val changed_bytes : t -> int

val pp : Format.formatter -> t -> unit
