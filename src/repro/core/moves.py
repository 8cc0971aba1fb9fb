"""The SALSA move set (paper Table 1).

Functional-unit moves
    F1  FU Exchange        exchange the FU bindings of two operations
    F2  FU Move            reassign an operation to another (free) FU
    F3  Operand Reverse    swap the FU input ports of a commutative op
    F4  Bind Pass-Through  implement a segment transfer through an idle FU
    F5  Unbind Pass-Through  revert a pass-through to a direct connection

Register moves
    R1  Segment Exchange   swap the registers of two segments in one step
    R2  Segment Move       move one segment copy to a free register
    R3  Value Exchange     exchange the register bindings of two values
    R4  Value Move         put *all* segments of a value in one register
    R5  Value Split        create a live copy of a run of segments
    R6  Value Merge        remove a copy, re-pointing its readers

Every move either applies completely and returns ``True``, or writes
nothing and returns ``False``: it checks legality before its first write,
so no move ever has a partial mutation to take back.  Moves keep the
binding legal: they repair consumer read sources, output sample sources
and pass-through implementations invalidated by placement changes
(:func:`fixup_segment`).

Moves mutate the binding **only through its primitives** (``set_op_fu``,
``set_placements``, ``set_read_src``, ``set_pt``, …).  That is a hard
rule, not a style preference: each primitive appends the old value to
the open write journal and marks the connection sites it touches dirty,
which is what makes ``Binding.abort_move()`` (journal replay) and the
derived state that ``restore_state()`` bulk-copies sound.  A move that
poked a dict directly would bypass both, and the next rollback or restore
would silently corrupt the search (see DESIGN.md §3.3; the shadow-state
sanitizer exists to catch exactly this).  The journal is the only way an
applied move is reverted: engines bracket each move with
``begin_move()`` and then ``commit_move()`` or ``abort_move()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.core.binding import Binding

#: a move: applies itself and returns True, or writes nothing and
#: returns False
MoveFn = Callable[[Binding, random.Random], bool]

#: how many random element picks a move attempts before giving up
_TRIES = 12


# --------------------------------------------------------------------- fixups

def fixup_segment(binding: Binding, value: str, step: int) -> None:
    """Repair read/out sources and pass-throughs after a placement change."""
    placements = binding.placements
    regs = placements.get((value, step), ())
    primary = regs[0] if regs else None
    read_src = binding.read_src
    for op_name, port in binding.reads_of(value, step):
        if read_src.get((op_name, port)) not in regs:
            binding.set_read_src(op_name, port, primary)
    val = binding.graph.values[value]
    if val.is_output and not binding.port_captured(value) and \
            step == binding.out_sample_step(value):
        if binding.out_src.get(value) not in regs:
            binding.set_out_src(value, primary)

    pt_impl = binding.pt_impl
    if pt_impl:
        interval = binding.interval(value)
        prev = interval.predecessor_step(step)
        succ = interval.successor_step(step)
        # pass-throughs into this step
        if prev is not None:
            prev_regs = placements.get((value, prev), ())
            for key in [k for k in pt_impl if k[0] == value
                        and k[1] == step]:
                _v, _t, dst = key
                impl = pt_impl[key]
                if dst not in regs or dst in prev_regs \
                        or impl[0] not in prev_regs:
                    binding.set_pt(value, step, dst, None)
        # pass-throughs out of this step (into the successor)
        if succ is not None:
            succ_regs = placements.get((value, succ), ())
            for key in [k for k in pt_impl if k[0] == value
                        and k[1] == succ]:
                _v, _t, dst = key
                impl = pt_impl[key]
                if impl[0] not in regs or dst in regs \
                        or dst not in succ_regs:
                    binding.set_pt(value, succ, dst, None)


def _movable_values(binding: Binding) -> Sequence[str]:
    return binding.movable_values


# ------------------------------------------------------------------ FU moves

def move_fu_exchange(binding: Binding, rng: random.Random) -> bool:
    """F1: exchange the FU bindings of two operations."""
    ops = binding.ops_sorted
    if len(ops) < 2:
        return False
    graph_ops = binding.graph.ops
    op_fu = binding.op_fu
    supporting = binding.fus_supporting
    tokens = binding.fu_tokens
    for _ in range(_TRIES):
        op1, op2 = rng.sample(ops, 2)
        fu1, fu2 = op_fu[op1], op_fu[op2]
        if fu1 == fu2:
            continue
        if fu2 not in supporting[graph_ops[op1].kind]:
            continue
        if fu1 not in supporting[graph_ops[op2].kind]:
            continue
        # check token conflicts before the first write (each op's own
        # tokens are released before the cross-bind, so only third-party
        # tokens conflict)
        t1, t2 = ("op", op1), ("op", op2)
        if any((t := tokens.get((fu1, s))) is not None and t != t1
               for s in binding.busy_steps(op2)):
            continue
        if any((t := tokens.get((fu2, s))) is not None and t != t2
               for s in binding.busy_steps(op1)):
            continue
        binding.set_op_fu(op1, None)
        binding.set_op_fu(op2, fu1)
        binding.set_op_fu(op1, fu2)
        return True
    return False


def move_fu_move(binding: Binding, rng: random.Random) -> bool:
    """F2: reassign an operation to a different free FU."""
    ops = binding.ops_sorted
    if not ops:
        return False
    graph_ops = binding.graph.ops
    tokens = binding.fu_tokens
    by_kind = binding.fus_by_kind
    for _ in range(_TRIES):
        op_name = rng.choice(ops)
        busy = binding.busy_steps(op_name)
        current = binding.op_fu[op_name]
        targets = [f for f in by_kind[graph_ops[op_name].kind]
                   if f != current
                   and all((f, s) not in tokens for s in busy)]
        if not targets:
            continue
        binding.set_op_fu(op_name, rng.choice(targets))
        return True
    return False


def move_operand_reverse(binding: Binding, rng: random.Random) -> bool:
    """F3: swap the input-port assignment of a commutative operation."""
    ops = binding.commutative_ops
    if not ops:
        return False
    op_name = rng.choice(ops)
    binding.set_op_swap(op_name, not binding.op_swap.get(op_name, False))
    return True


def _direct_transfers(binding: Binding) -> List[Tuple[str, int, str, int]]:
    """All (value, dst_step, dst_reg, src_step) transfers not yet pass-through.

    Iterates the placements map directly (one pass, no per-value interval
    walk); the order is the placements' insertion order, deterministic for
    a given move history.  The result is memoized on the binding — any
    placement or pass-through change invalidates it, so rejected moves
    (which restore the pre-move state) only cost one recompute.
    """
    found = binding._xfer_cache
    if found is not None:
        return found
    found = []
    placements = binding.placements
    pred_step = binding._pred_step
    pt_impl = binding.pt_impl
    for (value, dst_step), cur in placements.items():
        src_step = pred_step[(value, dst_step)]
        if src_step is None:
            continue
        prev = placements.get((value, src_step))
        if not prev:
            continue
        for dst in cur:
            if dst not in prev and (value, dst_step, dst) not in pt_impl:
                found.append((value, dst_step, dst, src_step))
    binding._xfer_cache = found
    return found


def _best_pt_choice(binding: Binding, rng: random.Random, value: str,
                    dst_step: int, dst_reg: str, src_step: int,
                    delta: Optional[Mapping[Tuple, int]] = None
                    ) -> Optional[Tuple[str, str, int]]:
    """Pick the (src_reg, fu, port) pass-through that re-uses the most
    existing connections (the paper's Fig. 3 rationale: a pass-through wins
    exactly when the register->FU and FU->register wires already exist).

    *delta* — a net ``{pair: Δuses}`` from
    :meth:`~repro.core.binding.Binding.placement_terms` — makes the
    choice on the connection uses the binding would have after that
    unapplied change; the candidates and the tie-break draw are the same
    as after applying it."""
    from repro.datapath.interconnect import fu_in, fu_out, reg_in, reg_out

    pt_fus = [n for n in binding.pt_capable_fus
              if binding.fu_free(n, src_step)]
    if not pt_fus:
        return None
    ledger_uses = binding.ledger.uses
    if delta:
        def uses(src, sink):
            return ledger_uses(src, sink) + delta.get((src, sink), 0)
    else:
        uses = ledger_uses
    best: List[Tuple[str, str, int]] = []
    best_new = None
    for src_reg in binding.segment_regs(value, src_step):
        for fu_name in pt_fus:
            for port in (0, 1):
                new = int(uses(reg_out(src_reg), fu_in(fu_name, port)) == 0)
                new += int(uses(fu_out(fu_name), reg_in(dst_reg)) == 0)
                if best_new is None or new < best_new:
                    best_new, best = new, [(src_reg, fu_name, port)]
                elif new == best_new:
                    best.append((src_reg, fu_name, port))
    return rng.choice(best) if best else None


def move_bind_passthrough(binding: Binding, rng: random.Random) -> bool:
    """F4: assign a slack node (transfer) to an idle pass-through FU."""
    candidates = _direct_transfers(binding)
    if not candidates:
        return False
    for _ in range(_TRIES):
        value, dst_step, dst_reg, src_step = rng.choice(candidates)
        impl = _best_pt_choice(binding, rng, value, dst_step, dst_reg,
                               src_step)
        if impl is None:
            continue
        binding.set_pt(value, dst_step, dst_reg, impl)
        return True
    return False


def move_unbind_passthrough(binding: Binding, rng: random.Random) -> bool:
    """F5: revert a pass-through transfer to a direct connection."""
    if not binding.pt_impl:
        return False
    key = rng.choice(sorted(binding.pt_impl))
    binding.set_pt(key[0], key[1], key[2], None)
    return True


# ------------------------------------------------------------- register moves

def _swap_segments(binding: Binding, v1: str, v2: str, step: int) -> None:
    """Swap the full placement tuples of two values at one step."""
    p1 = binding.segment_regs(v1, step)
    p2 = binding.segment_regs(v2, step)
    binding.set_placements(v1, step, ())
    binding.set_placements(v2, step, p1)
    binding.set_placements(v1, step, p2)
    fixup_segment(binding, v1, step)
    fixup_segment(binding, v2, step)


def _place_run(binding: Binding, value: str, steps: Sequence[int],
               reg: str) -> None:
    """Place each segment of *value* at *steps* in *reg* alone and repair
    its sources: the R2b hop, and R3's and R4's placement writes."""
    for step in steps:
        binding.set_placements(value, step, (reg,))
        fixup_segment(binding, value, step)


def _exchange_values(binding: Binding, v1: str, v2: str,
                     shared: Sequence[int]) -> None:
    """R3 on overlapping lifetimes: swap the two values' placements at
    every shared step."""
    for step in shared:
        _swap_segments(binding, v1, v2, step)


def _move_value(binding: Binding, value: str, steps: Sequence[int],
                reg: str) -> None:
    """R4: drop the value's pass-throughs (no transfer remains), then
    place every segment in *reg* alone."""
    for key in [k for k in binding.pt_impl if k[0] == value]:
        binding.set_pt(key[0], key[1], key[2], None)
    _place_run(binding, value, steps, reg)


def move_segment_exchange(binding: Binding, rng: random.Random) -> bool:
    """R1: exchange the register bindings of two segments in one step."""
    placements = binding.placements
    for _ in range(_TRIES):
        step = rng.randrange(binding.length)
        live = [v for v in binding.live_at(step)
                if placements.get((v, step))]
        if len(live) < 2:
            continue
        v1, v2 = rng.sample(live, 2)
        _swap_segments(binding, v1, v2, step)
        return True
    return False


def move_segment_move(binding: Binding, rng: random.Random) -> bool:
    """R2: move one segment copy to an unused register."""
    values = _movable_values(binding)
    if not values:
        return False
    free_regs = binding.regs_sorted
    reg_occ = binding.reg_occ
    for _ in range(_TRIES):
        value = rng.choice(values)
        step = rng.choice(binding.interval(value).steps)
        regs = binding.segment_regs(value, step)
        if not regs:
            continue
        old = rng.choice(regs)
        targets = [r for r in free_regs if (r, step) not in reg_occ]
        if not targets:
            continue
        new = rng.choice(targets)
        placement = tuple(new if r == old else r for r in regs)
        binding.set_placements(value, step, placement)
        fixup_segment(binding, value, step)
        return True
    return False


def move_segment_hop(binding: Binding, rng: random.Random) -> bool:
    """R2b: relocate a *suffix run* of a value's segments to another
    register, creating exactly one mid-lifetime transfer — the canonical
    "value moves between registers during its lifetime" transformation of
    the extended model (Sec. 2).  With probability 1/2 the transfer is
    immediately implemented as a pass-through (best re-use choice)."""
    values = binding.movable_multi_step
    if not values:
        return False
    placements = binding.placements
    reg_occ = binding.reg_occ
    for _ in range(_TRIES):
        value = rng.choice(values)
        steps = binding.interval(value).steps
        cut = rng.randrange(1, len(steps))
        run = steps[cut:]
        src_step = steps[cut - 1]
        # only hop single-copy runs (copies are R5/R6 territory)
        if any(len(placements.get((value, s), ())) != 1 for s in run):
            continue
        current = placements[(value, run[0])][0]
        targets = [r for r in binding.regs_sorted
                   if r != current
                   and all((r, s) not in reg_occ for s in run)]
        if not targets:
            continue
        new = rng.choice(targets)
        _place_run(binding, value, run, new)
        if rng.random() < 0.5 and \
                new not in binding.segment_regs(value, src_step):
            impl = _best_pt_choice(binding, rng, value, run[0], new,
                                   src_step)
            if impl is not None:
                binding.set_pt(value, run[0], new, impl)
        return True
    return False


def move_value_exchange(binding: Binding, rng: random.Random) -> bool:
    """R3: exchange the register bindings of two whole values."""
    values = _movable_values(binding)
    if len(values) < 2:
        return False
    for _ in range(_TRIES):
        v1, v2 = rng.sample(values, 2)
        steps1 = binding.interval(v1).steps
        steps2 = binding.interval(v2).steps
        shared = sorted(set(steps1) & set(steps2))
        if shared:
            _exchange_values(binding, v1, v2, shared)
            return True
        # disjoint lifetimes: swap home registers when both contiguous.
        # Both homes are checked before the first write; since the
        # lifetimes share no step, moving v1 cannot change the second check
        home1 = _single_home(binding, v1)
        home2 = _single_home(binding, v2)
        if home1 is None or home2 is None or home1 == home2:
            continue
        if not all(binding.reg_free(home2, step) for step in steps1):
            continue
        if not all(binding.reg_free(home1, step) for step in steps2):
            # this decline drops the transfer-candidate memo: F4 draws from
            # the memo in its stored order, so the drop is part of every
            # pinned seeded trajectory (DESIGN.md §3.3)
            binding._xfer_cache = None
            continue
        _place_run(binding, v1, steps1, home2)
        _place_run(binding, v2, steps2, home1)
        return True
    return False


def _single_home(binding: Binding, value: str) -> Optional[str]:
    """The unique register of a monolithically-bound value, else ``None``."""
    home = None
    for step in binding.interval(value).steps:
        regs = binding.segment_regs(value, step)
        if len(regs) != 1:
            return None
        if home is None:
            home = regs[0]
        elif regs[0] != home:
            return None
    return home


def move_value_move(binding: Binding, rng: random.Random) -> bool:
    """R4: assign all segments of a value to one register."""
    values = _movable_values(binding)
    if not values:
        return False
    for _ in range(_TRIES):
        value = rng.choice(values)
        steps = binding.interval(value).steps
        home = _single_home(binding, value)
        targets = []
        for reg in binding.regs_sorted:
            if reg == home:
                continue
            if all(binding.reg_occ.get((reg, s)) in (None, value)
                   for s in steps):
                targets.append(reg)
        if not targets:
            continue
        _move_value(binding, value, steps, rng.choice(targets))
        return True
    return False


def move_value_split(binding: Binding, rng: random.Random) -> bool:
    """R5: store a live copy of a run of segments in a second register."""
    values = _movable_values(binding)
    if not values:
        return False
    for _ in range(_TRIES):
        value = rng.choice(values)
        steps = binding.interval(value).steps
        i = rng.randrange(len(steps))
        j = rng.randrange(i, len(steps))
        run = steps[i:j + 1]
        existing = set()
        for step in run:
            existing.update(binding.segment_regs(value, step))
        targets = [r for r in binding.regs_sorted
                   if r not in existing
                   and all(binding.reg_free(r, s) for s in run)]
        if not targets:
            continue
        copy_reg = rng.choice(targets)
        for step in run:
            placement = binding.segment_regs(value, step) + (copy_reg,)
            binding.set_placements(value, step, placement)
            fixup_segment(binding, value, step)
        # move some readers (and possibly the output port) to the copy
        for step in run:
            for op_name, port in binding.reads_of(value, step):
                if rng.random() < 0.5:
                    binding.set_read_src(op_name, port, copy_reg)
        return True
    return False


def move_value_merge(binding: Binding, rng: random.Random) -> bool:
    """R6: eliminate one copy of a value segment run."""
    multi = sorted({(v, s) for (v, s), regs in binding.placements.items()
                    if len(regs) > 1})
    if not multi:
        return False
    for _ in range(_TRIES):
        value, step = rng.choice(multi)
        regs = binding.segment_regs(value, step)
        victim = rng.choice(regs)
        # grow a maximal run around `step` where victim is a removable copy
        steps = binding.interval(value).steps
        idx = steps.index(step)
        lo = idx
        while lo > 0 and victim in binding.segment_regs(value, steps[lo - 1]) \
                and len(binding.segment_regs(value, steps[lo - 1])) > 1:
            lo -= 1
        hi = idx
        while hi + 1 < len(steps) \
                and victim in binding.segment_regs(value, steps[hi + 1]) \
                and len(binding.segment_regs(value, steps[hi + 1])) > 1:
            hi += 1
        for s in steps[lo:hi + 1]:
            placement = tuple(r for r in binding.segment_regs(value, s)
                              if r != victim)
            binding.set_placements(value, s, placement)
            fixup_segment(binding, value, s)
        return True
    return False


# ---------------------------------------------------------------- move table

@dataclass
class MoveSet:
    """Enabled moves with selection weights (paper Sec. 4: complex moves
    are picked less often to control execution time)."""

    segments: bool = True      # R1/R2 single-step segment moves
    splits: bool = True        # R5/R6 value copies
    passthroughs: bool = True  # F4/F5
    operand_swap: bool = True  # F3
    weights: Dict[str, float] = field(default_factory=dict)

    DEFAULT_WEIGHTS = {
        "F1": 0.10, "F2": 0.12, "F3": 0.08, "F4": 0.08, "F5": 0.03,
        "R1": 0.14, "R2": 0.12, "R2b": 0.15, "R3": 0.04, "R4": 0.04,
        "R5": 0.06, "R6": 0.04,
    }

    _TABLE = {
        "F1": move_fu_exchange,
        "F2": move_fu_move,
        "F3": move_operand_reverse,
        "F4": move_bind_passthrough,
        "F5": move_unbind_passthrough,
        "R1": move_segment_exchange,
        "R2": move_segment_move,
        "R2b": move_segment_hop,
        "R3": move_value_exchange,
        "R4": move_value_move,
        "R5": move_value_split,
        "R6": move_value_merge,
    }

    def enabled_moves(self) -> List[Tuple[str, MoveFn, float]]:
        table = []
        for name, fn in self._TABLE.items():
            if name in ("R1", "R2", "R2b") and not self.segments:
                continue
            if name in ("R5", "R6") and not self.splits:
                continue
            if name in ("F4", "F5") and not self.passthroughs:
                continue
            if name == "F3" and not self.operand_swap:
                continue
            weight = self.weights.get(name, self.DEFAULT_WEIGHTS[name])
            if weight > 0:
                table.append((name, fn, weight))
        return table

    @classmethod
    def traditional(cls) -> "MoveSet":
        """The traditional binding model: monolithic values, no copies,
        no pass-throughs (used by the baseline allocator)."""
        return cls(segments=False, splits=False, passthroughs=False)
