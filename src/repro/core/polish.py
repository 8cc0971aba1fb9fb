"""Deterministic local polishing of a binding.

Systematic best-improvement sweeps over the cheap exhaustive neighborhoods
of the move set: alternative FU assignments (F2), operand reversals (F3),
read-source choices, whole-value register moves (R4), value-suffix hops
(R2b), and pass-through bind/unbind (F4/F5).  Each sweep tries every
candidate, keeps any strict improvement immediately, and the polish loop
repeats until a full pass makes no progress.

The three placement sweeps (R4 value moves, R3 value exchanges, R2b
segment hops) price each candidate first with
:meth:`~repro.core.binding.Binding.placement_terms`, which leaves the
binding untouched; only a candidate priced as a strict improvement is
applied.  The pricer makes one pass over the candidate's change map: it
reads each changed segment from the map over the live ``placements``,
the read and output sources the repair would re-point, and the old
events of the dirtied sites from the site table, and builds only those
sites' new events.  It copies no decision dict and skips a transfer
that has no events before the change and none after.  A hop that
creates a transfer is also priced with the best
pass-through on top (:meth:`~repro.core.binding.Binding.price_passthrough`),
choosing it on the uses the hop would leave, so the tie-break RNG is
drawn exactly as if the hop had been applied; a kept hop applies the
choice already made.  A priced R3 reject still moves the exchanged
segment keys to the end of ``placements``, exactly as applying and
aborting it would (DESIGN.md §3.3).

Within one :func:`polish` call prices are reused: the integer terms of
each R3, R4 and R2b candidate stay valid until the next kept candidate,
since only a keep changes the state a price depends on
(:class:`_ReuseScope`; under ``REPRO_SANITIZE=1`` every reuse is
re-priced and compared).  A candidate's change map is built only when
its price is not reused; the R3 pairs are enumerated once per call,
each with its reuse key and the segment keys a priced reject requeues.
A sweep called on its own gets a fresh scope.

Every applied candidate — and every candidate of the other sweeps, and
an R3/R4/R2b candidate on a value with a pass-through, which cannot be
priced — runs inside a ``begin_move``/``commit_move``/``abort_move``
journal bracket: a rejected candidate is reverted by replaying the
binding's write journal (:meth:`~repro.core.binding.Binding.abort_move`),
the same reject path the randomized engine uses.  Every sweep enumerates
only legal candidates, so no candidate fails partway.

The randomized engine (:mod:`repro.core.improve`) supplies the global
exploration; polishing collapses the search variance at the bottom of each
basin, which is what makes per-configuration comparisons between binding
models meaningful.
"""

from __future__ import annotations

import random
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.core.binding import Binding, PriceTerms
from repro.core.moves import (MoveSet, _best_pt_choice, _direct_transfers,
                              _exchange_values, _move_value, _place_run)
from repro.verify.sanitizer import SanitizerError, sanitize_enabled

#: a placement change: segment ``(value, step)`` -> its new registers
Changes = Mapping[Tuple[str, int], Tuple[str, ...]]
#: an R3 candidate ``(v1, v2, shared steps, reuse key, requeued keys)``
Exchange = Tuple[str, str, List[int], Tuple, List[Tuple[str, int]]]


def _tie_rng(rng: Optional[random.Random]) -> random.Random:
    """Tie-breaking RNG for ``_best_pt_choice`` in deterministic sweeps.

    Always a *fresh* seeded instance when none is threaded in: a module
    -level RNG would carry state across ``polish()`` calls, making a
    binding's polish result depend on how many polishes ran earlier in
    the process (and breaking the serial-vs-parallel bit-identity of
    :mod:`repro.core.parallel`).
    """
    return rng if rng is not None else random.Random(0)


class _ReuseScope:
    """One ``polish()`` call's price reuse.

    Polish changes the cost-bearing state only by keeping a candidate,
    and every keep in :func:`_try` bumps :attr:`generation`.  A price is
    a function of that state alone, so the integer terms of a candidate
    priced in the current generation are exactly what pricing it again
    would return; :meth:`terms` hands them back instead.  With the
    sanitizer on (``REPRO_SANITIZE=1``) every reuse is priced afresh and
    compared, and a mismatch raises
    :class:`~repro.verify.sanitizer.SanitizerError`.
    """

    def __init__(self, binding: Binding) -> None:
        self.binding = binding
        self.generation = 0
        #: candidate key -> (generation priced in, its terms or None)
        self._entries: Dict[Tuple, Tuple[int, Optional[PriceTerms]]] = {}
        self._pairs: Optional[List[Exchange]] = None
        self._check = sanitize_enabled()

    def kept(self) -> None:
        """A candidate was kept: every stored price is stale."""
        self.generation += 1

    def exchange_pairs(self) -> List[Exchange]:
        """The R3 candidates, built once (static for a binding): each
        pair of :func:`_exchange_pairs` with its reuse key and the
        segment keys a priced reject requeues."""
        if self._pairs is None:
            self._pairs = [(v1, v2, shared) + _exchange_keys(v1, v2, shared)
                           for v1, v2, shared in _exchange_pairs(self.binding)]
        return self._pairs

    def terms(self, key: Tuple, changes: Callable[..., Changes],
              *args) -> Optional[PriceTerms]:
        """The :meth:`~repro.core.binding.Binding.placement_terms` of
        the change ``changes(*args)`` — built only if needed — for the
        candidate named *key*."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] == self.generation:
            if self._check:
                fresh = self.binding.placement_terms(changes(*args))
                if fresh != entry[1]:
                    raise SanitizerError(
                        "a reused polish price differs from a fresh one",
                        context="polish", move_name=key[0],
                        move_index=self.generation,
                        problems=[f"candidate {key!r}: reused "
                                  f"{entry[1]!r}, fresh {fresh!r}"],
                        state=self.binding.clone_state())
            return entry[1]
        terms = self.binding.placement_terms(changes(*args))
        self._entries[key] = (self.generation, terms)
        return terms


def _scope(binding: Binding, prices: Optional[_ReuseScope]) -> _ReuseScope:
    """*prices*, or a fresh scope for a sweep called on its own."""
    return prices if prices is not None else _ReuseScope(binding)


def _try(binding: Binding, current: float,
         prices: _ReuseScope) -> Optional[float]:
    """Commit the open journaled mutation if it strictly improves."""
    new = binding.total_cost()
    if new < current - 1e-9:
        binding.commit_move()
        prices.kept()
        return new
    binding.abort_move()
    return None


def sweep_fu_moves(binding: Binding, current: float,
                   prices: Optional[_ReuseScope] = None) -> float:
    prices = _scope(binding, prices)
    for op_name in sorted(binding.op_fu):
        kind = binding.graph.ops[op_name].kind
        busy = binding.busy_steps(op_name)
        for fu_name in sorted(binding.fus):
            if fu_name == binding.op_fu[op_name]:
                continue
            if not binding.fus[fu_name].fu_type.supports(kind):
                continue
            if not binding.fu_free_all(fu_name, busy):
                continue
            binding.begin_move()
            binding.set_op_fu(op_name, fu_name)
            improved = _try(binding, current, prices)
            if improved is not None:
                current = improved
    return current


def sweep_operand_swaps(binding: Binding, current: float,
                        prices: Optional[_ReuseScope] = None) -> float:
    prices = _scope(binding, prices)
    for op_name, op in sorted(binding.graph.ops.items()):
        if op.arity != 2 or not op.commutative:
            continue
        flag = not binding.op_swap.get(op_name, False)
        binding.begin_move()
        binding.set_op_swap(op_name, flag)
        improved = _try(binding, current, prices)
        if improved is not None:
            current = improved
    return current


def sweep_read_sources(binding: Binding, current: float,
                       prices: Optional[_ReuseScope] = None) -> float:
    prices = _scope(binding, prices)
    schedule = binding.schedule
    for vname, val in sorted(binding.graph.values.items()):
        for op_name, port in val.consumers:
            step = schedule.start[op_name]
            regs = binding.segment_regs(vname, step)
            if len(regs) < 2:
                continue
            for reg in regs:
                if reg == binding.read_src.get((op_name, port)):
                    continue
                binding.begin_move()
                binding.set_read_src(op_name, port, reg)
                improved = _try(binding, current, prices)
                if improved is not None:
                    current = improved
    return current


def _value_move_targets(binding: Binding
                        ) -> Iterator[Tuple[str, Sequence[int], str]]:
    """R4 candidates ``(value, steps, reg)``: every register free for the
    whole live interval of a value not already wholly in it.  Lazy, so
    each candidate is checked against the binding as it stands then."""
    reg_occ = binding.reg_occ
    placements = binding.placements
    for value in binding.movable_values:
        steps = binding.interval(value).steps
        for reg in binding.regs_sorted:
            for step in steps:
                if reg_occ.get((reg, step), value) != value:
                    break  # another value holds reg at this step
            else:
                alone = (reg,)
                for step in steps:
                    if placements.get((value, step)) != alone:
                        yield value, steps, reg
                        break


def _run_changes(value: str, steps: Sequence[int], reg: str) -> Changes:
    """The segments of *value* at *steps*, each placed in *reg* alone."""
    return {(value, step): (reg,) for step in steps}


def _try_value_move(binding: Binding, value: str, steps: Sequence[int],
                    reg: str, current: float,
                    prices: Optional[_ReuseScope] = None) -> Optional[float]:
    """Price one R4 candidate and apply it only if that improves; the
    new cost if kept.  A priced reject leaves the binding as it was."""
    prices = _scope(binding, prices)
    terms = prices.terms(("R4", value, reg), _run_changes, value, steps, reg)
    if terms is not None and binding.price_of(terms[0]) >= current - 1e-9:
        return None
    binding.begin_move()
    _move_value(binding, value, steps, reg)
    return _try(binding, current, prices)


def sweep_value_moves(binding: Binding, current: float,
                      prices: Optional[_ReuseScope] = None) -> float:
    prices = _scope(binding, prices)
    for value, steps, reg in _value_move_targets(binding):
        improved = _try_value_move(binding, value, steps, reg, current,
                                   prices)
        if improved is not None:
            current = improved
    return current


def _try_hop(binding: Binding, value: str, run: Sequence[int],
             src_step: int, reg: str, current: float, rng: random.Random,
             prices: Optional[_ReuseScope] = None) -> Optional[float]:
    """Price one R2b candidate — the plain hop, and the hop with the
    best pass-through for the transfer it creates if that is cheaper —
    and apply it only if that improves; the new cost if kept.  A priced
    reject leaves the binding as it was.  The pass-through choice draws
    its tie-break exactly once per candidate, as applying it would."""
    prices = _scope(binding, prices)
    dst_step = run[0]
    terms = prices.terms(("R2b", value, dst_step, reg), _run_changes, value,
                         run, reg)
    if terms is None:
        return _try_hop_journaled(binding, value, run, src_step, reg,
                                  current, rng, prices)
    price = binding.price_of(terms[0])
    impl = None
    if reg not in binding.segment_regs(value, src_step):
        choice = _best_pt_choice(binding, rng, value, dst_step, reg,
                                 src_step, terms[1])
        if choice is not None:
            pt_price = binding.price_passthrough(terms, value, dst_step,
                                                 reg, choice)
            if pt_price < price - 1e-9:
                price, impl = pt_price, choice
    if price >= current - 1e-9:
        return None
    binding.begin_move()
    _place_run(binding, value, run, reg)
    if impl is not None:
        binding.set_pt(value, dst_step, reg, impl)
    return _try(binding, current, prices)


def _try_hop_journaled(binding: Binding, value: str, run: Sequence[int],
                       src_step: int, reg: str, current: float,
                       rng: random.Random,
                       prices: _ReuseScope) -> Optional[float]:
    """An R2b candidate on a value with a pass-through, tried by
    applying it: the repair may drop a pass-through, and the abort then
    reorders ``pt_impl`` in a way no price reproduces."""
    binding.begin_move()
    _place_run(binding, value, run, reg)
    if reg not in binding.segment_regs(value, src_step):
        hop_cost = binding.total_cost()
        impl = _best_pt_choice(binding, rng, value, run[0], reg, src_step)
        if impl is not None:
            # inner trial inside the open journal: the hop had no
            # pass-through, so clearing it again reverts it
            binding.set_pt(value, run[0], reg, impl)
            if binding.total_cost() >= hop_cost - 1e-9:
                binding.set_pt(value, run[0], reg, None)
                binding.flush()
    return _try(binding, current, prices)


def _hop_targets(binding: Binding
                 ) -> Iterator[Tuple[str, Sequence[int], int, str]]:
    """R2b candidates ``(value, run, src_step, reg)``: every suffix *run*
    of single-copy segments and every other register free over it, the
    transfer coming from ``src_step``.  Lazy, so each register is checked
    against the binding as it stands then; the run's current register is
    read once per cut, before any of its candidates is tried."""
    placements = binding.placements
    reg_occ = binding.reg_occ
    regs_sorted = binding.regs_sorted
    for value in binding.movable_multi_step:
        steps = binding.interval(value).steps
        for cut in range(1, len(steps)):
            run = steps[cut:]
            if any(len(placements.get((value, s), ())) != 1 for s in run):
                continue
            src_step = steps[cut - 1]
            cur_reg = placements[(value, run[0])][0]
            for reg in regs_sorted:
                if reg == cur_reg:
                    continue
                for step in run:
                    if (reg, step) in reg_occ:
                        break
                else:
                    yield value, run, src_step, reg


def sweep_segment_hops(binding: Binding, current: float,
                       rng: Optional[random.Random] = None,
                       prices: Optional[_ReuseScope] = None) -> float:
    """Try every (value, cut point, target register) suffix hop."""
    rng = _tie_rng(rng)
    prices = _scope(binding, prices)
    for value, run, src_step, reg in _hop_targets(binding):
        improved = _try_hop(binding, value, run, src_step, reg, current,
                            rng, prices)
        if improved is not None:
            current = improved
    return current


def _exchange_pairs(binding: Binding) -> List[Tuple[str, str, List[int]]]:
    """R3 candidates ``(v1, v2, shared steps)``: every pair of movable
    values (``v1`` first in sorted order) live together at some step,
    in sorted pair order, with the shared steps ascending."""
    values = binding.movable_values
    steps_of: Dict[int, List[int]] = {}
    for i, value in enumerate(values):
        for step in binding.interval(value).steps:
            steps_of.setdefault(step, []).append(i)
    shared: Dict[Tuple[int, int], List[int]] = {}
    for step in sorted(steps_of):
        live = steps_of[step]
        for a, i in enumerate(live):
            for j in live[a + 1:]:
                shared.setdefault((i, j), []).append(step)
    return [(values[i], values[j], steps)
            for (i, j), steps in sorted(shared.items())]


def _exchange_keys(v1: str, v2: str, shared: Sequence[int]
                   ) -> Tuple[Tuple, List[Tuple[str, int]]]:
    """An R3 candidate's reuse key, and the segment keys a priced reject
    requeues: applying and aborting the exchange would re-insert each
    ``(v1, step)`` key, latest step first."""
    return ("R3", v1, v2), [(v1, step) for step in reversed(shared)]


def _exchanged_placements(binding: Binding, v1: str, v2: str,
                          shared: Sequence[int]) -> Changes:
    """The segments an R3 candidate changes, with their new registers."""
    placements = binding.placements
    swapped = {}
    for step in shared:
        swapped[(v1, step)] = placements.get((v2, step), ())
        swapped[(v2, step)] = placements.get((v1, step), ())
    return swapped


def _try_exchange(binding: Binding, v1: str, v2: str, shared: Sequence[int],
                  current: float, prices: Optional[_ReuseScope] = None,
                  key: Optional[Tuple] = None,
                  requeue: Sequence[Tuple[str, int]] = ()
                  ) -> Optional[float]:
    """Price one R3 candidate and apply it only if that improves; the
    new cost if kept.  A priced reject leaves the binding exactly as
    applying and aborting the exchange would.  The sweep passes the
    candidate's :func:`_exchange_keys`, built once per binding; a call
    without them builds them."""
    prices = _scope(binding, prices)
    if key is None:
        key, requeue = _exchange_keys(v1, v2, shared)
    terms = prices.terms(key, _exchanged_placements, binding, v1, v2, shared)
    if terms is not None and binding.price_of(terms[0]) >= current - 1e-9:
        binding.requeue_segments(requeue)
        return None
    binding.begin_move()
    _exchange_values(binding, v1, v2, shared)
    return _try(binding, current, prices)


def sweep_value_exchanges(binding: Binding, current: float,
                          prices: Optional[_ReuseScope] = None) -> float:
    """Try swapping the placements of every pair of values stepwise at
    their shared live steps (exhaustive R1/R3 neighborhood)."""
    prices = _scope(binding, prices)
    for v1, v2, shared, key, requeue in prices.exchange_pairs():
        improved = _try_exchange(binding, v1, v2, shared, current, prices,
                                 key, requeue)
        if improved is not None:
            current = improved
    return current


def sweep_passthroughs(binding: Binding, current: float,
                       rng: Optional[random.Random] = None,
                       prices: Optional[_ReuseScope] = None) -> float:
    rng = _tie_rng(rng)
    prices = _scope(binding, prices)
    # bind the best pass-through for every direct transfer
    for value, dst_step, dst_reg, src_step in _direct_transfers(binding):
        impl = _best_pt_choice(binding, rng, value, dst_step, dst_reg,
                               src_step)
        if impl is None:
            continue
        binding.begin_move()
        binding.set_pt(value, dst_step, dst_reg, impl)
        improved = _try(binding, current, prices)
        if improved is not None:
            current = improved
    # and drop any pass-through that no longer pays for itself
    for key in sorted(binding.pt_impl):
        binding.begin_move()
        binding.set_pt(key[0], key[1], key[2], None)
        improved = _try(binding, current, prices)
        if improved is not None:
            current = improved
    return current


def polish(binding: Binding, move_set: Optional[MoveSet] = None,
           max_rounds: int = 10) -> float:
    """Hill-climb to a local optimum; returns the final total cost.

    Fully deterministic: the tie-breaking RNG is created fresh per call,
    so polishing equal bindings gives equal results no matter how many
    polishes ran earlier in the process.
    """
    if move_set is None:
        move_set = MoveSet()
    rng = random.Random(0)
    prices = _ReuseScope(binding)
    current = binding.total_cost()
    for _ in range(max_rounds):
        before = current
        current = sweep_fu_moves(binding, current, prices)
        if move_set.operand_swap:
            current = sweep_operand_swaps(binding, current, prices)
        current = sweep_read_sources(binding, current, prices)
        current = sweep_value_moves(binding, current, prices)
        current = sweep_value_exchanges(binding, current, prices)
        if move_set.segments:
            current = sweep_segment_hops(binding, current, rng, prices)
        if move_set.passthroughs:
            current = sweep_passthroughs(binding, current, rng, prices)
        if current >= before - 1e-9:
            break
    return current
