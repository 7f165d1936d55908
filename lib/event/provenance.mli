(** Per-match parameter provenance — the deep version of the paper's §9
    future-work item.

    {!Detector.collect} records each formal's {e latest} binding: one
    word per name, in keeping with §5's state budget. This module keeps
    the {e full} provenance instead: every way the composite event can be
    matched at a point yields its own binding environment, gathered from
    the constituent logical events of that particular match (the design
    later adopted by SASE/Cayuga-style CEP engines).

    The price is exactly what §5 warns about: live partial matches grow
    with the history, so state is unbounded. [max_matches] caps the
    partial-match sets (newest kept; the base link that starts
    every [relative+]/[relative n] chain is never evicted); beyond it provenance is best-effort
    and the boolean answer may differ from {!Detector.post}. Use this
    when actions genuinely need all witness bindings; use the automaton
    everywhere else. *)

type binding = (string * Ode_base.Value.t) list
(** One match's environment; later constituents shadow earlier ones when
    a name repeats. *)

type t

type context =
  | Unrestricted
      (** keep every partial match — the paper's set semantics, where all
          witnesses of an occurrence coexist *)
  | Recent
      (** a new initiator replaces older pending windows of the same
          operator (Snoop's "recent" parameter context) *)
  | Chronicle
      (** initiators are consumed oldest-first: when a window completes,
          it and every older pending window are discarded (Snoop's
          "chronicle" pairing) *)

val make : ?max_matches:int -> ?context:context -> Expr.t -> t
(** [max_matches] (default 64) caps every per-operator match set and
    partial-match instance pool. [context] (default [Unrestricted])
    selects the consumption policy for window-opening operators
    ([relative], [fa], [faAbs]). Raises [Invalid_argument] on invalid
    expressions.

    Consumption contexts are {e not} in the 1992 paper — its set
    semantics is [Unrestricted] — but they are how its §8 comparator
    (Snoop) and later CEP engines bound partial-match growth, so they are
    offered here for the provenance engine only. The automaton detector
    is untouched: its semantics stays the paper's. *)

val post : t -> env:Mask.env -> Symbol.occurrence -> binding list
(** Feed an occurrence: the returned list has one entry per way the
    composite event occurs at this point ([] = it does not occur).
    Occurrences matching none of the expression's logical events are
    skipped, as in {!Detector.post}. Composite masks are evaluated
    against [env] at the point of occurrence. *)

val instance_count : t -> int
(** Live partial matches, for memory accounting. *)
