"""Snapshots of the binding decision state.

:meth:`repro.core.binding.Binding.clone_state` returns a
:class:`BindingState`: copies of the six name-keyed decision dicts, keyed
by section (``state["op_fu"]`` etc.), so it compares, encodes
(:func:`repro.verify.sanitizer.encode_state`) and loads
(:meth:`~repro.core.binding.Binding.from_state`) like the plain dict
snapshot it is.  Each copy keeps the live dict's iteration order.

A snapshot cloned from a live binding also carries a
:class:`DerivedSnapshot` — shallow copies of the incrementally-maintained
derived state (occupancy, FU tokens, load counters, per-site event lists
and the connection-ledger refcount columns) — and the token of the binding
that made it.  ``restore_state`` takes only such a snapshot of its own
binding, and uses both to diff-replay the restore without re-deriving any
site.  Every other snapshot (another binding's, a pickled or decoded one)
is loaded into a fresh binding by ``Binding.from_state``, which re-derives
from the decisions alone; the sanitizer's shadow rebuild loads that way,
which keeps the referee independent of the live derived state.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple


class DerivedSnapshot:
    """Shallow clone-time copies of a binding's derived state.

    Everything here is redundant with the decisions (it can be re-derived
    from them), so it is excluded from snapshot equality and from pickling;
    it exists purely so ``restore_state`` can bulk-copy instead of
    re-derive.  The site-event lists are shared, not copied — the flush
    engine replaces event lists wholesale and never mutates one in place,
    so sharing is safe.
    """

    __slots__ = ("reg_occ", "fu_tokens", "fu_load", "reg_load",
                 "fu_by_type", "counters", "site_events", "ledger")

    def __init__(self, reg_occ: Dict, fu_tokens: Dict, fu_load: Dict,
                 reg_load: Dict, fu_by_type: Dict,
                 counters: Tuple[int, int, float], site_events: Dict,
                 ledger: Tuple) -> None:
        self.reg_occ = reg_occ
        self.fu_tokens = fu_tokens
        self.fu_load = fu_load
        self.reg_load = reg_load
        self.fu_by_type = fu_by_type
        self.counters = counters
        self.site_events = site_events
        self.ledger = ledger


class BindingState(dict):
    """One binding decision state: section name -> decision dict copy.

    Equality is the dict's: decision content only, never iteration order,
    the derived payload or the owner.  ``owner`` is the token of the
    binding that cloned the snapshot (``None`` once pickled); a snapshot
    with an owner always carries its ``derived`` state.
    """

    __slots__ = ("derived", "owner")

    def __init__(self, sections: Mapping[str, Dict],
                 derived: Optional[DerivedSnapshot] = None,
                 owner: Optional[object] = None) -> None:
        super().__init__(sections)
        self.derived = derived
        self.owner = owner

    def __reduce__(self) -> Tuple:
        # the derived payload only speeds up a restore into the binding
        # that made the snapshot, and no binding identity survives a
        # process boundary — ship just the decisions
        return (BindingState, (dict(self),))
