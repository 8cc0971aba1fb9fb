"""Snapshots of the binding decision state, and their one wire form.

:meth:`repro.core.binding.Binding.clone_state` returns a
:class:`BindingState`: copies of the six name-keyed decision dicts, keyed
by section (``state["op_fu"]`` etc.), so it compares, encodes
(:func:`state_to_dict`) and loads
(:meth:`~repro.core.binding.Binding.from_state`) like the plain dict
snapshot it is.  Each copy keeps the live dict's iteration order.

:func:`state_to_dict` / :func:`state_from_dict` are the only JSON codec
of the six sections: the decision part of a binding document, every
section sorted, so a decoded state loads in sorted-segment order.

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

from typing import Any, Dict, Mapping, Optional, Tuple


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


#: the keys of the decision sections in a binding document
#: (``passthroughs`` encodes the snapshot's ``pt_impl``)
DOCUMENT_SECTIONS = ("op_fu", "op_swap", "placements", "read_src",
                     "out_src", "passthroughs")


def state_to_dict(state: Mapping[str, Mapping]) -> Dict[str, Any]:
    """The JSON-able decision sections of a binding document.

    *state* maps each section name to its decision dict: a
    :class:`BindingState`, or a binding's live dicts.  Every section is
    emitted in sorted order and ``op_swap`` lists reversed operations
    only, so equal decisions encode identically.
    """
    return {
        "op_fu": dict(sorted(state["op_fu"].items())),
        "op_swap": {k: v for k, v in sorted(state["op_swap"].items()) if v},
        "placements": [
            {"value": value, "step": step, "regs": list(regs)}
            for (value, step), regs in sorted(state["placements"].items())],
        "read_src": [
            {"op": op, "port": port, "reg": reg}
            for (op, port), reg in sorted(state["read_src"].items())],
        "out_src": dict(sorted(state["out_src"].items())),
        "passthroughs": [
            {"value": v, "dst_step": s, "dst_reg": r,
             "src_reg": impl[0], "fu": impl[1], "port": impl[2]}
            for (v, s, r), impl in sorted(state["pt_impl"].items())],
    }


def state_from_dict(data: Mapping[str, Any]) -> Dict[str, Dict]:
    """Inverse of :func:`state_to_dict`: a name-keyed snapshot to load
    with ``Binding.from_state``, each section in document order."""
    return {
        "op_fu": dict(data["op_fu"]),
        "op_swap": dict(data["op_swap"]),
        "placements": {(entry["value"], entry["step"]): tuple(entry["regs"])
                       for entry in data["placements"]},
        "read_src": {(entry["op"], entry["port"]): entry["reg"]
                     for entry in data["read_src"]},
        "out_src": dict(data["out_src"]),
        "pt_impl": {(entry["value"], entry["dst_step"], entry["dst_reg"]):
                    (entry["src_reg"], entry["fu"], entry["port"])
                    for entry in data["passthroughs"]},
    }
