"""Deterministic local polishing of a binding.

Systematic best-improvement sweeps over the cheap exhaustive neighborhoods
of the move set: alternative FU assignments (F2), operand reversals (F3),
read-source choices, whole-value register moves (R4), value-suffix hops
(R2b), and pass-through bind/unbind (F4/F5).  Each sweep tries every
candidate, keeps any strict improvement immediately, and the polish loop
repeats until a full pass makes no progress.

The two placement sweeps (R3 value exchanges, R4 value moves) price each
candidate first with :meth:`~repro.core.binding.Binding.price_placements`,
which leaves the binding untouched; only a candidate priced as a strict
improvement is applied.  A priced R3 reject still moves the exchanged
segment keys to the end of ``placements``, exactly as applying and
aborting it would (DESIGN.md §3.3).  Every applied candidate — and every
candidate of the other sweeps — runs inside a
``begin_move``/``commit_move``/``abort_move`` journal bracket: a rejected
candidate is reverted by replaying the binding's write journal
(:meth:`~repro.core.binding.Binding.abort_move`), the same reject path the
randomized engine uses.  Every sweep enumerates only legal candidates, so
no candidate fails partway.

The randomized engine (:mod:`repro.core.improve`) supplies the global
exploration; polishing collapses the search variance at the bottom of each
basin, which is what makes per-configuration comparisons between binding
models meaningful.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.binding import Binding
from repro.core.moves import (MoveSet, _best_pt_choice, _direct_transfers,
                              _swap_segments, fixup_segment)
import random


def _tie_rng(rng: Optional[random.Random]) -> random.Random:
    """Tie-breaking RNG for ``_best_pt_choice`` in deterministic sweeps.

    Always a *fresh* seeded instance when none is threaded in: a module
    -level RNG would carry state across ``polish()`` calls, making a
    binding's polish result depend on how many polishes ran earlier in
    the process (and breaking the serial-vs-parallel bit-identity of
    :mod:`repro.core.parallel`).
    """
    return rng if rng is not None else random.Random(0)


def _try(binding: Binding, current: float) -> Optional[float]:
    """Commit the open journaled mutation if it strictly improves."""
    new = binding.total_cost()
    if new < current - 1e-9:
        binding.commit_move()
        return new
    binding.abort_move()
    return None


def sweep_fu_moves(binding: Binding, current: float) -> float:
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
            improved = _try(binding, current)
            if improved is not None:
                current = improved
    return current


def sweep_operand_swaps(binding: Binding, current: float) -> float:
    for op_name, op in sorted(binding.graph.ops.items()):
        if op.arity != 2 or not op.commutative:
            continue
        flag = not binding.op_swap.get(op_name, False)
        binding.begin_move()
        binding.set_op_swap(op_name, flag)
        improved = _try(binding, current)
        if improved is not None:
            current = improved
    return current


def sweep_read_sources(binding: Binding, current: float) -> float:
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
                improved = _try(binding, current)
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


def _move_value(binding: Binding, value: str, steps: Sequence[int],
                reg: str) -> None:
    """Apply an R4 candidate: drop the value's pass-throughs, place every
    segment in *reg* alone and repair its sources."""
    for key in [k for k in binding.pt_impl if k[0] == value]:
        binding.set_pt(key[0], key[1], key[2], None)
    for step in steps:
        binding.set_placements(value, step, (reg,))
        fixup_segment(binding, value, step)


def _try_value_move(binding: Binding, value: str, steps: Sequence[int],
                    reg: str, current: float) -> Optional[float]:
    """Price one R4 candidate and apply it only if that improves; the
    new cost if kept.  A priced reject leaves the binding as it was."""
    price = binding.price_placements({(value, step): (reg,) for step in steps})
    if price is not None and price >= current - 1e-9:
        return None
    binding.begin_move()
    _move_value(binding, value, steps, reg)
    return _try(binding, current)


def sweep_value_moves(binding: Binding, current: float) -> float:
    for value, steps, reg in _value_move_targets(binding):
        improved = _try_value_move(binding, value, steps, reg, current)
        if improved is not None:
            current = improved
    return current


def sweep_segment_hops(binding: Binding, current: float,
                       rng: Optional[random.Random] = None) -> float:
    """Try every (value, cut point, target register) suffix hop."""
    rng = _tie_rng(rng)
    for value in sorted(binding.graph.values):
        if binding.port_captured(value):
            continue
        steps = binding.interval(value).steps
        if len(steps) < 2:
            continue
        for cut in range(1, len(steps)):
            run = steps[cut:]
            if any(len(binding.segment_regs(value, s)) != 1 for s in run):
                continue
            src_step = steps[cut - 1]
            cur_reg = binding.segment_regs(value, run[0])[0]
            for reg in sorted(binding.regs):
                if reg == cur_reg:
                    continue
                if not all(binding.reg_free(reg, s) for s in run):
                    continue
                binding.begin_move()
                for step in run:
                    binding.set_placements(value, step, (reg,))
                    fixup_segment(binding, value, step)
                if reg not in binding.segment_regs(value, src_step):
                    hop_cost = binding.total_cost()
                    impl = _best_pt_choice(binding, rng, value, run[0], reg,
                                           src_step)
                    if impl is not None:
                        # inner trial inside the open journal: the hop had
                        # no pass-through, so clearing it again reverts it
                        binding.set_pt(value, run[0], reg, impl)
                        if binding.total_cost() >= hop_cost - 1e-9:
                            binding.set_pt(value, run[0], reg, None)
                            binding.flush()
                improved = _try(binding, current)
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


def _exchange_values(binding: Binding, v1: str, v2: str,
                     shared: Sequence[int]) -> None:
    """Apply an R3 candidate: swap the two values' placements at every
    shared step."""
    for step in shared:
        _swap_segments(binding, v1, v2, step)


def _exchanged_placements(binding: Binding, v1: str, v2: str,
                          shared: Sequence[int]
                          ) -> Dict[Tuple[str, int], Tuple[str, ...]]:
    """The segments an R3 candidate changes, with their new registers."""
    placements = binding.placements
    swapped = {}
    for step in shared:
        swapped[(v1, step)] = placements.get((v2, step), ())
        swapped[(v2, step)] = placements.get((v1, step), ())
    return swapped


def _try_exchange(binding: Binding, v1: str, v2: str, shared: Sequence[int],
                  current: float) -> Optional[float]:
    """Price one R3 candidate and apply it only if that improves; the
    new cost if kept.  A priced reject leaves the binding exactly as
    applying and aborting the exchange would."""
    price = binding.price_placements(
        _exchanged_placements(binding, v1, v2, shared))
    if price is not None and price >= current - 1e-9:
        # the abort would re-insert each (v1, step) key, latest step first
        binding.requeue_segments([(v1, step) for step in reversed(shared)])
        return None
    binding.begin_move()
    _exchange_values(binding, v1, v2, shared)
    return _try(binding, current)


def sweep_value_exchanges(binding: Binding, current: float) -> float:
    """Try swapping the placements of every pair of values stepwise at
    their shared live steps (exhaustive R1/R3 neighborhood)."""
    for v1, v2, shared in _exchange_pairs(binding):
        improved = _try_exchange(binding, v1, v2, shared, current)
        if improved is not None:
            current = improved
    return current


def sweep_passthroughs(binding: Binding, current: float,
                       rng: Optional[random.Random] = None) -> float:
    rng = _tie_rng(rng)
    # bind the best pass-through for every direct transfer
    for value, dst_step, dst_reg, src_step in _direct_transfers(binding):
        impl = _best_pt_choice(binding, rng, value, dst_step, dst_reg,
                               src_step)
        if impl is None:
            continue
        binding.begin_move()
        binding.set_pt(value, dst_step, dst_reg, impl)
        improved = _try(binding, current)
        if improved is not None:
            current = improved
    # and drop any pass-through that no longer pays for itself
    for key in sorted(binding.pt_impl):
        binding.begin_move()
        binding.set_pt(key[0], key[1], key[2], None)
        improved = _try(binding, current)
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
    current = binding.total_cost()
    for _ in range(max_rounds):
        before = current
        current = sweep_fu_moves(binding, current)
        if move_set.operand_swap:
            current = sweep_operand_swaps(binding, current)
        current = sweep_read_sources(binding, current)
        current = sweep_value_moves(binding, current)
        current = sweep_value_exchanges(binding, current)
        if move_set.segments:
            current = sweep_segment_hops(binding, current, rng=rng)
        if move_set.passthroughs:
            current = sweep_passthroughs(binding, current, rng=rng)
        if current >= before - 1e-9:
            break
    return current
