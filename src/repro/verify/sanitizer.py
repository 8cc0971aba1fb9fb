"""Shadow-state sanitizer for the incremental binding engine.

The allocator's hot loop trusts two delicate mechanisms: every primitive
mutation is recorded in the binding's write journal, which
:meth:`~repro.core.binding.Binding.abort_move` replays to revert a
rejected move, and only dirty connection sites are re-derived on
:meth:`~repro.core.binding.Binding.flush`.  A stale site or a write that
escapes the journal silently corrupts the mux count the whole search
optimizes.  This module is the opt-in referee for that machinery:

* **shadow-rebuild equivalence** — every N accepted moves a fresh
  :class:`~repro.core.binding.Binding` is rebuilt from
  :meth:`~repro.core.binding.Binding.clone_state` through
  :meth:`~repro.core.binding.Binding.from_state`, and its derived state
  (occupancy maps, FU tokens, per-site events, per-connection ledger
  refcounts) plus its :class:`~repro.datapath.cost.CostBreakdown` must be
  bit-identical to the live binding's;
* **apply→rollback round-trips** — a probed move that gets rolled back must
  restore the exact prior raw *and* derived state;
* the full legality checker (:func:`repro.alloc.checker.check_binding`,
  which includes ``ledger.verify()``) runs at every shadow check.

Violations raise :class:`SanitizerError` carrying the offending move and a
serialized reproducer (the decision-state snapshot plus context), which the
fuzzer (:mod:`repro.verify.fuzz`) buckets and shrinks.

Enable it with ``ImproveConfig.sanitize`` / ``AnnealConfig.sanitize`` or
globally with the ``REPRO_SANITIZE=1`` environment variable (read by
``improve``, ``anneal`` and the parallel restart engine).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

SANITIZE_ENV = "REPRO_SANITIZE"
_FALSY = ("", "0", "false", "no", "off")


def sanitize_enabled(flag: bool = False) -> bool:
    """True when sanitizing is requested by *flag* or the environment."""
    if flag:
        return True
    return os.environ.get(SANITIZE_ENV, "").strip().lower() not in _FALSY


class SanitizerError(ReproError):
    """A shadow-state or round-trip invariant was violated.

    Carries enough structure to reproduce the failure offline:
    the context label of the search that tripped it, the offending move
    (name and attempt index), the individual violations, and the
    decision-state snapshot at the moment of the failure, encoded as the
    decision sections of a binding document
    (:func:`repro.core.snapshot.state_to_dict`).
    """

    def __init__(self, message: str, *, context: str = "",
                 move_name: Optional[str] = None,
                 move_index: Optional[int] = None,
                 problems: Optional[List[str]] = None,
                 state: Optional[Dict[str, Any]] = None) -> None:
        self.context = context
        self.move_name = move_name
        self.move_index = move_index
        self.problems = list(problems or [])
        # deferred like every core import here: repro.core.improve
        # imports this module
        from repro.core.snapshot import state_to_dict

        self.reproducer: Dict[str, Any] = {
            "context": context,
            "move_name": move_name,
            "move_index": move_index,
            "problems": self.problems,
            "state": state_to_dict(state) if state is not None else None,
        }
        detail = f"sanitizer: {message}"
        if move_name is not None:
            detail += f" (move {move_name!r} at attempt {move_index})"
        if self.problems:
            detail += "\n  " + "\n  ".join(self.problems[:12])
        super().__init__(detail)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.reproducer, indent=indent, sort_keys=True)


def _diff_snapshots(live: Dict[str, Any], other: Dict[str, Any],
                    other_name: str) -> List[str]:
    """Human-readable differences between two derived snapshots."""
    problems: List[str] = []
    for section in sorted(set(live) | set(other)):
        a, b = live.get(section, {}), other.get(section, {})
        if a == b:
            continue
        keys = [k for k in set(a) | set(b) if a.get(k) != b.get(k)]
        for key in sorted(keys, key=repr)[:3]:
            problems.append(
                f"{section}[{key!r}]: live={a.get(key)!r} "
                f"{other_name}={b.get(key)!r}")
        if len(keys) > 3:
            problems.append(
                f"{section}: {len(keys) - 3} more differing entries")
    return problems


class ShadowSanitizer:
    """Per-search sanitizer driven by the improvement loops.

    The engine calls :meth:`pre_move` before trying a move,
    :meth:`after_rollback` when it reverts one, and :meth:`after_accept`
    when it keeps one.  Probing density is controlled by *every*: every
    ``every``-th attempt is snapshotted for the round-trip check, and every
    ``every``-th acceptance triggers a full shadow rebuild.
    """

    def __init__(self, binding: "Any", every: int = 64,
                 context: str = "") -> None:
        self.binding = binding
        self.every = max(1, int(every))
        self.context = context
        self.checks_run = 0
        self.probes_run = 0
        self._attempts = 0
        self._accepts = 0
        self._probe: Optional[Tuple[int, Dict[str, Any], Dict[str, Any]]] = \
            None

    # ---------------------------------------------------------------- hooks

    def pre_move(self, move_name: str, move_index: int) -> None:
        """Maybe snapshot the state a rollback must restore exactly."""
        self._attempts += 1
        if self._attempts % self.every == 0:
            self._probe = (move_index, self.binding.clone_state(),
                           self.binding.derived_snapshot())
        else:
            self._probe = None

    def after_rollback(self, move_name: str, move_index: int) -> None:
        """Check a rolled-back probed move restored the prior state."""
        if self._probe is None or self._probe[0] != move_index:
            return
        _index, raw_before, derived_before = self._probe
        self._probe = None
        self.probes_run += 1
        problems: List[str] = []
        raw_after = self.binding.clone_state()
        if raw_after != raw_before:
            problems.extend(_diff_snapshots(
                raw_before, raw_after, "after-rollback"))
        derived_after = self.binding.derived_snapshot()
        if derived_after != derived_before:
            problems.extend(_diff_snapshots(
                derived_before, derived_after, "after-rollback"))
        if problems:
            raise SanitizerError(
                "apply/rollback round-trip did not restore the prior state",
                context=self.context, move_name=move_name,
                move_index=move_index, problems=problems, state=raw_before)

    def after_accept(self, move_name: str, move_index: int) -> None:
        """Maybe run the full shadow-rebuild check after an acceptance."""
        self._accepts += 1
        if self._accepts % self.every == 0:
            self.check(move_name=move_name, move_index=move_index)

    # ---------------------------------------------------------------- checks

    def check(self, move_name: Optional[str] = None,
              move_index: Optional[int] = None) -> None:
        """Full shadow-rebuild equivalence + legality check (unconditional).

        Rebuilds a fresh binding from the live decision state and asserts
        the incremental ledger, occupancy maps, site events and cost are
        bit-identical, then runs the independent legality checker.
        """
        from repro.core.binding import Binding
        from repro.alloc.checker import check_binding

        self.checks_run += 1
        binding = self.binding
        raw = binding.clone_state()
        live = binding.derived_snapshot()
        problems: List[str] = []

        try:
            shadow = Binding.from_state(
                binding.schedule, list(binding.fus.values()),
                list(binding.regs.values()), raw, binding.weights)
        except ReproError as exc:
            problems.append(f"decision state not replayable: {exc}")
        else:
            problems.extend(_diff_snapshots(
                live, shadow.derived_snapshot(), "shadow"))
            live_cost = binding.cost()
            shadow_cost = shadow.cost()
            if live_cost != shadow_cost:
                problems.append(
                    f"cost diverged: live {live_cost} vs shadow "
                    f"{shadow_cost}")

        # incremental-counter cross-check: the O(1) running totals behind
        # cost()/total_cost() must be bit-identical to a from-scratch
        # re-derivation of the same CostBreakdown (the oracle for the
        # allocator's fast accept path)
        scratch_cost = binding.cost_from_scratch()
        live_cost = binding.cost()
        if live_cost != scratch_cost:
            problems.append(
                f"incremental cost diverged from scratch rebuild: "
                f"live {live_cost} vs scratch {scratch_cost}")
        fast_total = binding.total_cost()
        if fast_total != scratch_cost.total:
            problems.append(
                f"total_cost() fast path diverged: fast {fast_total!r} vs "
                f"scratch {scratch_cost.total!r}")

        # mux-depth bit-identity: the ledger's O(1) incremental depth total
        # must equal the estimate sta.py derives from the emitted netlist's
        # mux trees (Σ ceil(log2(#sources))); an incomplete binding has no
        # netlist, so the cross-check only runs once one can be built
        from repro.datapath.netlist import build_netlist
        from repro.timing.sta import netlist_mux_depth
        try:
            netlist = build_netlist(binding)
        except ReproError:
            pass
        else:
            sta_depth = netlist_mux_depth(netlist)
            if sta_depth != binding.ledger.mux_depth:
                problems.append(
                    f"mux depth diverged: ledger {binding.ledger.mux_depth} "
                    f"vs sta {sta_depth}")

        # independent referee: structural legality + ledger.verify()
        problems.extend(check_binding(binding))

        if problems:
            raise SanitizerError(
                "shadow-rebuild equivalence violated",
                context=self.context, move_name=move_name,
                move_index=move_index, problems=problems, state=raw)


def make_sanitizer(binding: "Any", enabled: bool, every: int,
                   context: str = "") -> Optional[ShadowSanitizer]:
    """A sanitizer when enabled by *enabled* or the environment, else None."""
    if not sanitize_enabled(enabled):
        return None
    return ShadowSanitizer(binding, every=every, context=context)
