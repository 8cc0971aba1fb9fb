"""The SALSA extended binding state.

A :class:`Binding` captures everything the paper's allocator decides
(Sec. 2):

* ``op_fu`` / ``op_swap`` — operator-to-functional-unit assignment and
  operand-order reversal (moves F1–F3);
* ``placements`` — for every value **segment** ``(value, step)`` the
  ordered tuple of registers holding it; more than one register means live
  copies created by *value split* (moves R1–R6).  Index 0 is the primary
  copy (the default transfer source);
* ``read_src`` — which register copy each consumer port reads;
* ``out_src`` — which register the primary-output port samples;
* ``pt_impl`` — transfers implemented as functional-unit *pass-throughs*
  instead of direct register-to-register connections (moves F4/F5).

Derived state (register/FU occupancy, the point-to-point connection ledger
and its equivalent-2-1-mux total) is maintained incrementally: every
primitive mutation marks the affected connection *sites* dirty, and
:meth:`Binding.flush` re-derives exactly the dirty sites.  The search
engines open a write journal (:meth:`Binding.begin_move`), apply a move as
a sequence of primitives, inspect the cost, and either keep the move
(:meth:`Binding.commit_move`) or replay the journal backwards
(:meth:`Binding.abort_move`); the journal is the only way a move is
reverted.

Timing conventions are those of DESIGN.md Sec. 3; in particular a transfer
into the segment at step ``t'`` happens during the preceding live step
``t`` (the pass-through FU must be idle at ``t``), and values born past the
last control step of an acyclic schedule are *port-captured*: they go
straight from the producing FU to the output port and never occupy a
register.
"""

from __future__ import annotations

from collections import Counter
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.errors import BindingError
from repro.cdfg.graph import CDFG
from repro.cdfg.lifetimes import LiveInterval
from repro.core.snapshot import BindingState, DerivedSnapshot
from repro.datapath.cost import CostBreakdown, CostWeights, weighted_total
from repro.datapath.interconnect import (ConnectionLedger, fu_in, fu_out,
                                         in_port, out_port, reg_in, reg_out)
from repro.datapath.units import FU, Register
from repro.sched.schedule import Schedule

SiteKey = Tuple
PtImpl = Tuple[str, str, int]  # (src_reg, fu, fu_port)
#: a priced change's integer terms: (Δreg, Δmux, Δwire, Δdepth)
PriceCounts = Tuple[int, int, int, int]
#: the counts plus the net connection-use change behind them
PriceTerms = Tuple[PriceCounts, Dict[Tuple, int]]

#: shared empty event list for absent sites (never mutated)
_NO_EVENTS: List[Tuple] = []

#: sentinel marking "key was absent" in the raw write journal
_ABSENT = object()


class Binding:
    """Mutable binding of a scheduled CDFG onto FUs and registers."""

    def __init__(self, schedule: Schedule, fus: Sequence[FU],
                 registers: Sequence[Register],
                 weights: CostWeights = CostWeights()) -> None:
        self.schedule = schedule
        self.graph: CDFG = schedule.graph
        self.spec = schedule.spec
        self.length = schedule.length
        self.lifetimes = schedule.lifetimes
        self.weights = weights

        self.fus: Dict[str, FU] = {}
        for fu in fus:
            if fu.name in self.fus:
                raise BindingError(f"duplicate FU name {fu.name!r}")
            self.fus[fu.name] = fu
        self.regs: Dict[str, Register] = {}
        for reg in registers:
            if reg.name in self.regs:
                raise BindingError(f"duplicate register name {reg.name!r}")
            self.regs[reg.name] = reg

        # raw decision state ------------------------------------------------
        self.op_fu: Dict[str, str] = {}
        self.op_swap: Dict[str, bool] = {}
        self.placements: Dict[Tuple[str, int], Tuple[str, ...]] = {}
        self.read_src: Dict[Tuple[str, int], str] = {}
        self.out_src: Dict[str, str] = {}
        self.pt_impl: Dict[Tuple[str, int, str], PtImpl] = {}

        # derived occupancy ---------------------------------------------------
        self.reg_occ: Dict[Tuple[str, int], str] = {}
        self.fu_tokens: Dict[Tuple[str, int], Tuple] = {}
        self._fu_load: Counter = Counter()   # fu -> #tokens
        self._reg_load: Counter = Counter()  # reg -> #segments held

        # incremental use counters, updated at 0<->1 load transitions so the
        # weighted total (:meth:`total_cost`) is O(1) per move; the sanitizer
        # cross-checks them against :meth:`cost_from_scratch`
        self._fu_used_count = 0
        self._reg_used_count = 0
        self._fu_used_by_type: Dict[str, int] = {}
        self._fu_used_area = 0.0
        self._type_area: Dict[str, float] = {}
        for fu in self.fus.values():
            area = fu.fu_type.area
            known = self._type_area.get(fu.type_name)
            if known is not None and known != area:
                raise BindingError(
                    f"FU type {fu.type_name!r} has conflicting areas "
                    f"{known} and {area}")
            self._type_area[fu.type_name] = area

        self.ledger = ConnectionLedger()
        self._site_events: Dict[SiteKey, List[Tuple]] = {}
        self._dirty: Set[SiteKey] = set()
        #: when journaling (:meth:`begin_move`), the pre-move event list of
        #: every site :meth:`flush` has changed since the journal started
        self._journal: Optional[Dict[SiteKey, List[Tuple]]] = None
        #: write log of raw/occupancy mutations since :meth:`begin_move` —
        #: ``(dict, key, old_value_or_ABSENT)`` in write order
        self._raw_journal: Optional[List[Tuple]] = None
        self._counter_snap: Tuple[int, int, float] = (0, 0, 0.0)

        # static lookups -------------------------------------------------------
        self._reads_at: Dict[Tuple[str, int], List[Tuple[str, int]]] = {}
        for vname, val in self.graph.values.items():
            for op_name, port in val.consumers:
                step = schedule.start[op_name]
                self._reads_at.setdefault((vname, step), []).append(
                    (op_name, port))
        # per-value interval / liveness caches: the hot loop resolves these
        # hundreds of times per move, so they are plain dict lookups here
        self._interval: Dict[str, LiveInterval] = dict(
            self.lifetimes.intervals)
        self._port_captured: Set[str] = {
            v for v, iv in self._interval.items() if iv.birth >= self.length}
        self._busy_steps: Dict[str, Tuple[int, ...]] = {
            op: schedule.busy_steps(op) for op in self.graph.ops}
        self._succ_step: Dict[Tuple[str, int], Optional[int]] = {}
        self._pred_step: Dict[Tuple[str, int], Optional[int]] = {}
        for vname, iv in self._interval.items():
            steps = iv.steps
            last = len(steps) - 1
            for idx, step in enumerate(steps):
                self._succ_step[(vname, step)] = \
                    steps[idx + 1] if idx < last else None
                self._pred_step[(vname, step)] = \
                    steps[idx - 1] if idx > 0 else None
        self._live_pairs: Set[Tuple[str, int]] = {
            pair for pair in self._succ_step
            if pair[0] not in self._port_captured}
        #: (value, birth) pairs at which the output port samples a register
        self._out_sample_sites: Set[Tuple[str, int]] = {
            (v, self._interval[v].birth)
            for v, val in self.graph.values.items()
            if val.is_output and v not in self._port_captured}
        #: values eligible for register moves, sorted (static per schedule)
        self.movable_values: Tuple[str, ...] = tuple(
            v for v in sorted(self.graph.values)
            if v not in self._port_captured)
        #: movable values with at least two live steps (hop candidates)
        self.movable_multi_step: Tuple[str, ...] = tuple(
            v for v in self.movable_values
            if self._interval[v].length >= 2)
        #: commutative binary operations (operand-reverse candidates)
        self.commutative_ops: Tuple[str, ...] = tuple(sorted(
            n for n, op in self.graph.ops.items()
            if op.arity == 2 and op.commutative))
        #: FUs that can implement pass-throughs, in declaration order
        self.pt_capable_fus: Tuple[str, ...] = tuple(
            n for n, f in self.fus.items() if f.fu_type.can_passthrough)
        self.regs_sorted: Tuple[str, ...] = tuple(sorted(self.regs))
        self._live_at: Dict[int, Tuple[str, ...]] = {
            step: tuple(self.lifetimes.live_at(step))
            for step in range(self.length)}
        # interned interconnect endpoints: the derive functions run on
        # every flush, so they look these tuples up instead of allocating
        self._reg_out_ep: Dict[str, Tuple] = {
            r: reg_out(r) for r in self.regs}
        self._reg_in_ep: Dict[str, Tuple] = {r: reg_in(r) for r in self.regs}
        self._fu_out_ep: Dict[str, Tuple] = {f: fu_out(f) for f in self.fus}
        self._fu_in_ep: Dict[Tuple[str, int], Tuple] = {
            (f, port): fu_in(f, port)
            for f in self.fus for port in (0, 1)}
        self._in_port_ep: Dict[str, Tuple] = {
            v: in_port(v) for v, val in self.graph.values.items()
            if val.is_input}
        self._out_port_ep: Dict[str, Tuple] = {
            v: out_port(v) for v, val in self.graph.values.items()
            if val.is_output}
        #: per-op read metadata: (value-carrying ports, is binary commutative)
        self._read_ports: Dict[str, Tuple[int, ...]] = {
            n: tuple(port for port, _ref in op.value_operands())
            for n, op in self.graph.ops.items()}
        self._swappable: Set[str] = {
            n for n, op in self.graph.ops.items() if op.arity == 2}
        self._producer: Dict[str, Optional[str]] = {
            v: val.producer for v, val in self.graph.values.items()}
        #: all operation names, sorted (every op is always bound, so this
        #: doubles as the sorted key list of ``op_fu`` for move proposals)
        self.ops_sorted: Tuple[str, ...] = tuple(sorted(self.graph.ops))
        fus_sorted = sorted(self.fus)
        #: op kind -> FU names that can execute it, sorted
        self.fus_by_kind: Dict[str, Tuple[str, ...]] = {
            kind: tuple(f for f in fus_sorted
                        if self.fus[f].fu_type.supports(kind))
            for kind in {op.kind for op in self.graph.ops.values()}}
        #: op kind -> same FU names as a set (membership tests)
        self.fus_supporting: Dict[str, frozenset] = {
            kind: frozenset(names)
            for kind, names in self.fus_by_kind.items()}
        #: memoized direct-transfer candidate list (see moves.py);
        #: any placement or pass-through change invalidates it
        self._xfer_cache: Optional[List[Tuple[str, int, str, int]]] = None
        self._xfer_snap: Optional[List[Tuple[str, int, str, int]]] = None
        # reusable journal containers (avoid two allocations per move)
        self._journal_store: Dict[SiteKey, List[Tuple]] = {}
        self._raw_store: List[Tuple] = []
        #: names this binding as the owner of the snapshots it clones
        self._token = object()
        #: insertion tick of each segment key, stamped when an empty
        #: segment is filled; ascending ticks give the order a snapshot
        #: lists ``placements`` in.  That is the dict order except for the
        #: keys a rejected move emptied and refilled: abort_move puts
        #: those at the end of the dict but restores their tick
        #: (DESIGN.md §3.3)
        self._seg_seq: Dict[Tuple[str, int], int] = {}
        #: next tick; monotone for the binding's life (abort_move never
        #: rewinds it — only the order of the ticks matters)
        self._seg_tick = 1

    # ------------------------------------------------------------------ helpers

    def interval(self, value: str) -> LiveInterval:
        return self._interval[value]

    def port_captured(self, value: str) -> bool:
        """True if *value* never occupies a register (born past last step)."""
        return value in self._port_captured

    def reads_of(self, value: str, step: int) -> List[Tuple[str, int]]:
        """Consumer ``(op, port)`` pairs reading *value* at *step*."""
        return self._reads_at.get((value, step), [])

    def segment_regs(self, value: str, step: int) -> Tuple[str, ...]:
        return self.placements.get((value, step), ())

    def reg_free(self, reg: str, step: int) -> bool:
        return (reg, step) not in self.reg_occ

    def fu_free(self, fu: str, step: int) -> bool:
        return (fu, step) not in self.fu_tokens

    def fu_free_all(self, fu: str, steps: Iterable[int]) -> bool:
        return all(self.fu_free(fu, s) for s in steps)

    def out_sample_step(self, value: str) -> int:
        """Step at which the output port samples *value* (its birth step)."""
        return self.interval(value).birth

    def fus_of_type(self, type_name: str) -> List[str]:
        return sorted(n for n, f in self.fus.items()
                      if f.type_name == type_name)

    def live_at(self, step: int) -> Tuple[str, ...]:
        """Values live at *step*, sorted (precomputed, O(1))."""
        return self._live_at[step]

    def busy_steps(self, op_name: str) -> Tuple[int, ...]:
        """Steps on which *op_name* occupies its FU (precomputed, O(1))."""
        return self._busy_steps[op_name]

    # ------------------------------------------------- incremental counters

    def _area_of(self, by_type: Dict[str, int]) -> float:
        """Canonical used-FU area: per-type counts summed in sorted order.

        Every consumer (incremental update, from-scratch recount, shadow
        rebuild) computes the area through this one expression, so equal
        used-FU multisets give bit-identical floats no matter the history.
        """
        area = 0.0
        for tname in sorted(by_type):
            area += self._type_area[tname] * by_type[tname]
        return area

    def _fu_type_add(self, name: str, journal) -> None:
        """Per-type accounting for an FU whose load just became nonzero."""
        tname = self.fus[name].type_name
        by_type = self._fu_used_by_type
        count = by_type.get(tname, 0)
        if journal is not None:
            journal.append((by_type, tname, count if count else _ABSENT))
        by_type[tname] = count + 1
        self._fu_used_area = self._area_of(by_type)

    def _fu_type_drop(self, name: str, journal) -> None:
        """Per-type accounting for an FU whose load just became zero."""
        tname = self.fus[name].type_name
        by_type = self._fu_used_by_type
        left = by_type[tname] - 1
        if journal is not None:
            journal.append((by_type, tname, left + 1))
        if left:
            by_type[tname] = left
        else:
            del by_type[tname]
        self._fu_used_area = self._area_of(by_type)

    def _fu_load_add(self, name: str) -> None:
        fu_load = self._fu_load
        journal = self._raw_journal
        load = fu_load.get(name, 0) + 1
        if journal is not None:
            journal.append((fu_load, name, load - 1 if load > 1 else _ABSENT))
        fu_load[name] = load
        if load == 1:
            self._fu_used_count += 1
            self._fu_type_add(name, journal)

    def _fu_load_drop(self, name: str) -> None:
        fu_load = self._fu_load
        journal = self._raw_journal
        load = fu_load[name] - 1
        if journal is not None:
            journal.append((fu_load, name, load + 1))
        if load:
            fu_load[name] = load
        else:
            del fu_load[name]
            self._fu_used_count -= 1
            self._fu_type_drop(name, journal)

    # ------------------------------------------------------------- primitives

    def set_op_fu(self, op_name: str, fu_name: Optional[str]) -> None:
        """(Re)bind *op_name* to *fu_name* (``None`` unbinds)."""
        op = self.graph.ops[op_name]
        old = self.op_fu.get(op_name)
        if fu_name == old:
            return
        busy = self._busy_steps[op_name]
        if fu_name is not None:
            fu = self.fus.get(fu_name)
            if fu is None:
                raise BindingError(f"unknown FU {fu_name!r}")
            if not fu.fu_type.supports(op.kind):
                raise BindingError(
                    f"FU {fu_name!r} ({fu.type_name}) cannot execute "
                    f"{op.kind!r} operation {op_name!r}")
            for step in busy:
                token = self.fu_tokens.get((fu_name, step))
                if token is not None and not (token[0] == "op"
                                              and token[1] == op_name):
                    raise BindingError(
                        f"FU {fu_name!r} busy at step {step} with {token}")
        # release old tokens, claim new; the load-counter updates are
        # batched (one adjustment of len(busy), not one per step) so the
        # 0<->1 transition logic runs at most once per rebind
        fu_tokens = self.fu_tokens
        fu_load = self._fu_load
        journal = self._raw_journal
        n_busy = len(busy)
        if old is not None and n_busy:
            for step in busy:
                token_key = (old, step)
                if journal is not None:
                    journal.append((fu_tokens, token_key,
                                    fu_tokens[token_key]))
                del fu_tokens[token_key]
            load = fu_load[old] - n_busy
            if journal is not None:
                journal.append((fu_load, old, load + n_busy))
            if load:
                fu_load[old] = load
            else:
                del fu_load[old]
                self._fu_used_count -= 1
                self._fu_type_drop(old, journal)
        if journal is not None:
            journal.append((self.op_fu, op_name,
                            _ABSENT if old is None else old))
        if fu_name is not None:
            if n_busy:
                token = ("op", op_name)
                for step in busy:
                    token_key = (fu_name, step)
                    if journal is not None:
                        journal.append((fu_tokens, token_key,
                                        fu_tokens.get(token_key, _ABSENT)))
                    fu_tokens[token_key] = token
                prior = fu_load.get(fu_name, 0)
                if journal is not None:
                    journal.append((fu_load, fu_name,
                                    prior if prior else _ABSENT))
                fu_load[fu_name] = prior + n_busy
                if prior == 0:
                    self._fu_used_count += 1
                    self._fu_type_add(fu_name, journal)
            self.op_fu[op_name] = fu_name
        else:
            self.op_fu.pop(op_name, None)
        self._mark(("read", op_name))
        if op.result is not None:
            self._mark(("write", op.result))

    def set_op_swap(self, op_name: str, flag: bool) -> None:
        """Set operand-reversal for a commutative binary operation.

        ``op_swap`` holds reversed operations only: clearing the flag
        removes the key.
        """
        op = self.graph.ops[op_name]
        old = self.op_swap.get(op_name, False)
        if flag == old:
            return
        if flag and (op.arity != 2 or not op.commutative):
            raise BindingError(
                f"operand reverse illegal on {op_name!r} ({op.kind})")
        journal = self._raw_journal
        if journal is not None:
            journal.append((self.op_swap, op_name, True if old else _ABSENT))
        if flag:
            self.op_swap[op_name] = True
        else:
            del self.op_swap[op_name]
        self._mark(("read", op_name))

    def set_placements(self, value: str, step: int,
                       regs: Sequence[str]) -> None:
        """Place the segment ``(value, step)`` into *regs* (ordered copies)."""
        new = tuple(regs)
        old = self.placements.get((value, step), ())
        if new == old:
            return
        if (value, step) not in self._live_pairs:
            if value in self._port_captured:
                raise BindingError(
                    f"value {value!r} is port-captured; it has no segments")
            raise BindingError(f"value {value!r} is not live at step {step}")
        if len(new) > 1 and len(set(new)) != len(new):
            raise BindingError(f"duplicate registers in placement {new}")
        for reg in new:
            if reg not in self.regs:
                raise BindingError(f"unknown register {reg!r}")
            occupant = self.reg_occ.get((reg, step))
            if occupant is not None and occupant != value:
                raise BindingError(
                    f"register {reg!r} holds {occupant!r} at step {step}")
        # the load-counter helpers are inlined here: this is the hottest
        # primitive and the extra call per register is measurable
        reg_occ = self.reg_occ
        reg_load = self._reg_load
        journal = self._raw_journal
        append = journal.append if journal is not None else None
        for reg in old:
            occ_key = (reg, step)
            if append is not None:
                append((reg_occ, occ_key, reg_occ[occ_key]))
            del reg_occ[occ_key]
            load = reg_load[reg] - 1
            if append is not None:
                append((reg_load, reg, load + 1))
            if load:
                reg_load[reg] = load
            else:
                del reg_load[reg]
                self._reg_used_count -= 1
        for reg in new:
            occ_key = (reg, step)
            if append is not None:
                append((reg_occ, occ_key, reg_occ.get(occ_key, _ABSENT)))
            reg_occ[occ_key] = value
            load = reg_load.get(reg, 0) + 1
            if append is not None:
                append((reg_load, reg, load - 1 if load > 1 else _ABSENT))
            reg_load[reg] = load
            if load == 1:
                self._reg_used_count += 1
        if journal is not None:
            journal.append((self.placements, (value, step),
                            old if old else _ABSENT))
        if new:
            self.placements[(value, step)] = new
        else:
            self.placements.pop((value, step), None)
        if not old:
            # fresh dict insert (at the end): stamp its tick
            seg_seq = self._seg_seq
            if append is not None:
                append((seg_seq, (value, step),
                        seg_seq.get((value, step), _ABSENT)))
            seg_seq[(value, step)] = self._seg_tick
            self._seg_tick += 1
        self._xfer_cache = None
        self._mark_segment_sites(value, step)

    def set_read_src(self, op_name: str, port: int,
                     reg: Optional[str]) -> None:
        """Choose which register copy consumer ``(op, port)`` reads."""
        old = self.read_src.get((op_name, port))
        if reg == old:
            return
        if reg is not None and reg not in self.regs:
            raise BindingError(f"unknown register {reg!r}")
        if port not in self._read_ports.get(op_name, ()):
            raise BindingError(
                f"({op_name!r}, {port}) is not a consumer read site")
        journal = self._raw_journal
        if journal is not None:
            journal.append(
                (self.read_src, (op_name, port),
                 _ABSENT if old is None else old))
        if reg is None:
            self.read_src.pop((op_name, port), None)
        else:
            self.read_src[(op_name, port)] = reg
        self._mark(("read", op_name))

    def set_out_src(self, value: str, reg: Optional[str]) -> None:
        """Choose the register the output port of *value* samples."""
        old = self.out_src.get(value)
        if reg == old:
            return
        if reg is not None and reg not in self.regs:
            raise BindingError(f"unknown register {reg!r}")
        if value not in self._out_port_ep:
            raise BindingError(f"{value!r} is not an output value")
        journal = self._raw_journal
        if journal is not None:
            journal.append(
                (self.out_src, value, _ABSENT if old is None else old))
        if reg is None:
            self.out_src.pop(value, None)
        else:
            self.out_src[value] = reg
        self._mark(("out", value))

    def set_pt(self, value: str, dst_step: int, dst_reg: str,
               impl: Optional[PtImpl]) -> None:
        """Set or clear the pass-through implementation of one transfer.

        *impl* is ``(src_reg, fu, fu_port)``; ``None`` reverts the transfer
        to a direct register-to-register connection.  The pass-through
        occupies the FU during the step preceding *dst_step* in the value's
        live interval.
        """
        key = (value, dst_step, dst_reg)
        old = self.pt_impl.get(key)
        if impl == old:
            return
        src_step = self._pred_step.get((value, dst_step))
        if src_step is None:
            raise BindingError(
                f"segment ({value!r}, {dst_step}) has no predecessor; "
                f"no transfer to implement")
        if impl is not None:
            src_reg, fu_name, fu_port = impl
            src_regs = self.placements.get((value, src_step), ())
            if dst_reg in src_regs:
                raise BindingError(
                    f"no transfer into ({value!r}, {dst_step}, {dst_reg!r}): "
                    f"the register already holds the value at step "
                    f"{src_step}")
            if src_reg not in src_regs:
                raise BindingError(
                    f"pass-through source {src_reg!r} does not hold "
                    f"{value!r} at step {src_step}")
            fu = self.fus.get(fu_name)
            if fu is None:
                raise BindingError(f"unknown FU {fu_name!r}")
            if not fu.fu_type.can_passthrough:
                raise BindingError(
                    f"FU {fu_name!r} ({fu.type_name}) cannot pass through")
            if fu_port not in (0, 1):
                raise BindingError(f"bad pass-through port {fu_port}")
            token = self.fu_tokens.get((fu_name, src_step))
            if token is not None and token != ("pt",) + key:
                raise BindingError(
                    f"FU {fu_name!r} busy at step {src_step} with {token}")
        journal = self._raw_journal
        if old is not None:
            token_key = (old[1], src_step)
            if journal is not None:
                journal.append((self.fu_tokens, token_key,
                                self.fu_tokens[token_key]))
            del self.fu_tokens[token_key]
            self._fu_load_drop(old[1])
        if journal is not None:
            journal.append((self.pt_impl, key,
                            _ABSENT if old is None else old))
        if impl is not None:
            token_key = (impl[1], src_step)
            if journal is not None:
                journal.append((self.fu_tokens, token_key,
                                self.fu_tokens.get(token_key, _ABSENT)))
            self.fu_tokens[token_key] = ("pt",) + key
            self._fu_load_add(impl[1])
            self.pt_impl[key] = impl
        else:
            self.pt_impl.pop(key, None)
        self._xfer_cache = None
        self._mark(("xfer", value, dst_step))

    # ------------------------------------------------------------ site engine

    def _mark(self, key: SiteKey) -> None:
        self._dirty.add(key)

    def _mark_segment_sites(self, value: str, step: int) -> None:
        """Mark the sites a placement change at ``(value, step)`` touches."""
        dirty = self._dirty
        if self._pred_step[(value, step)] is None:
            dirty.add(("write", value))
        dirty.add(("xfer", value, step))
        succ = self._succ_step[(value, step)]
        if succ is not None:
            dirty.add(("xfer", value, succ))
        if (value, step) in self._out_sample_sites:
            dirty.add(("out", value))

    # The _derive_* rules derive one site's events from the live decision
    # dicts.  flush() runs them on the dirty sites, and _derive() on every
    # site for the checker's from-scratch ledger; placement_terms() builds
    # a candidate's events inline instead (see there).

    def _derive(self, key: SiteKey) -> List[Tuple]:
        kind = key[0]
        if kind == "read":
            return self._derive_read(key[1])
        if kind == "write":
            return self._derive_write(key[1])
        if kind == "xfer":
            return self._derive_xfer(key[1], key[2])
        if kind == "out":
            return self._derive_out(key[1])
        raise BindingError(f"unknown site {key}")

    def _derive_read(self, op_name: str) -> List[Tuple]:
        fu_name = self.op_fu.get(op_name)
        if fu_name is None:
            return []
        swap = self.op_swap.get(op_name, False) \
            and op_name in self._swappable
        read_src = self.read_src
        reg_out_ep = self._reg_out_ep
        fu_in_ep = self._fu_in_ep
        events = []
        for port in self._read_ports[op_name]:
            reg = read_src.get((op_name, port))
            if reg is None:
                continue
            eff_port = (1 - port) if swap else port
            events.append((reg_out_ep[reg], fu_in_ep[(fu_name, eff_port)]))
        return events

    def _write_source(self, value: str) -> Optional[Tuple]:
        """The endpoint that writes *value* at its birth, if bound."""
        src = self._in_port_ep.get(value)
        if src is None:
            producer = self._producer[value]
            if producer is None:
                return None
            fu_name = self.op_fu.get(producer)
            if fu_name is None:
                return None
            src = self._fu_out_ep[fu_name]
        return src

    def _derive_write(self, value: str) -> List[Tuple]:
        src = self._write_source(value)
        if src is None:
            return []
        if value in self._port_captured:
            # straight from the FU to the output port, no register
            out_ep = self._out_port_ep.get(value)
            return [(src, out_ep)] if out_ep is not None else []
        reg_in_ep = self._reg_in_ep
        return [(src, reg_in_ep[reg])
                for reg in self.placements.get(
                    (value, self._interval[value].birth), ())]

    def _derive_xfer(self, value: str, dst_step: int) -> List[Tuple]:
        src_step = self._pred_step[(value, dst_step)]
        if src_step is None:
            return []
        placements = self.placements
        prev = placements.get((value, src_step), ())
        if not prev:
            return []
        cur = placements.get((value, dst_step), ())
        reg_out_ep = self._reg_out_ep
        reg_in_ep = self._reg_in_ep
        events = []
        for dst in cur:
            if dst in prev:
                continue  # the register keeps holding the value; no transfer
            impl = self.pt_impl.get((value, dst_step, dst))
            if impl is not None:
                src_reg, fu_name, fu_port = impl
                if src_reg not in prev:
                    raise BindingError(
                        f"stale pass-through for ({value!r}, {dst_step}, "
                        f"{dst!r}): source {src_reg!r} no longer holds the "
                        f"value at step {src_step}")
                events.append((reg_out_ep[src_reg],
                               self._fu_in_ep[(fu_name, fu_port)]))
                events.append((self._fu_out_ep[fu_name], reg_in_ep[dst]))
            else:
                events.append((reg_out_ep[prev[0]], reg_in_ep[dst]))
        return events

    def _derive_out(self, value: str) -> List[Tuple]:
        out_ep = self._out_port_ep.get(value)
        if out_ep is None or value in self._port_captured:
            return []
        reg = self.out_src.get(value)
        if reg is None:
            return []
        return [(self._reg_out_ep[reg], out_ep)]

    def flush(self) -> None:
        """Re-derive all dirty sites and update the connection ledger."""
        events = self._site_events
        journal = self._journal
        ledger = self.ledger
        ledger_remove = ledger.remove_pair
        ledger_add = ledger.add_pair
        for key in self._dirty:
            old = events.get(key, _NO_EVENTS)
            kind = key[0]
            if kind == "xfer":
                new = self._derive_xfer(key[1], key[2])
            elif kind == "read":
                new = self._derive_read(key[1])
            elif kind == "write":
                new = self._derive_write(key[1])
            elif kind == "out":
                new = self._derive_out(key[1])
            else:
                raise BindingError(f"unknown site {key}")
            if new == old:
                continue
            if journal is not None and key not in journal:
                journal[key] = old
            for pair in old:
                ledger_remove(pair)
            for pair in new:
                ledger_add(pair)
            if new:
                events[key] = new
            else:
                events.pop(key, None)
        self._dirty.clear()

    # --------------------------------------------------------- move journal

    def begin_move(self) -> None:
        """Open the write journal for one move.

        Between :meth:`begin_move` and :meth:`commit_move` /
        :meth:`abort_move`:

        * every raw/occupancy dict write is appended to a write log with
          the overwritten value;
        * every :meth:`flush` records the first pre-change event list of
          each site it touches.

        A rejected move is then reverted wholesale by :meth:`abort_move`
        — replaying the write log backwards and restoring the journaled
        site events — with no second flush.
        """
        journal = self._journal_store
        journal.clear()
        self._journal = journal
        raw = self._raw_store
        raw.clear()
        self._raw_journal = raw
        self._counter_snap = (self._fu_used_count, self._reg_used_count,
                              self._fu_used_area)
        self._xfer_snap = self._xfer_cache

    def commit_move(self) -> None:
        """Keep the move: discard the journals."""
        self._journal = None
        self._raw_journal = None

    def abort_move(self) -> None:
        """Revert the binding to its state at :meth:`begin_move`.

        This is the only way a move is reverted: the raw write log is
        replayed most-recent-first (restoring decision dicts, occupancy
        maps, and load counters), the use-count scalars are restored from
        their snapshot, and the journaled site events go back into the
        ledger verbatim.  Every site the move dirtied was either flushed
        (journaled if its events changed) or derives to its pre-move
        events from the restored raw state, so clearing the dirty set
        leaves the binding exactly as flushed before the move.
        """
        raw = self._raw_journal
        self._raw_journal = None
        if raw:
            for dct, key, old in reversed(raw):
                if old is _ABSENT:
                    dct.pop(key, None)
                else:
                    dct[key] = old
            (self._fu_used_count, self._reg_used_count,
             self._fu_used_area) = self._counter_snap
            # the restored state is exactly the pre-move state, so the
            # pre-move transfer-candidate memo is valid again
            self._xfer_cache = self._xfer_snap
        journal = self._journal
        self._journal = None
        if journal:
            events = self._site_events
            ledger = self.ledger
            ledger_remove = ledger.remove_pair
            ledger_add = ledger.add_pair
            for key, old in journal.items():
                cur = events.get(key, _NO_EVENTS)
                if cur == old:
                    continue
                for pair in cur:
                    ledger_remove(pair)
                for pair in old:
                    ledger_add(pair)
                if old:
                    events[key] = old
                else:
                    events.pop(key, None)
        self._dirty.clear()

    # ------------------------------------------------------------------- cost

    def fu_used_count(self) -> int:
        return self._fu_used_count

    def fu_used_area(self) -> float:
        return self._fu_used_area

    def reg_used_count(self) -> int:
        return self._reg_used_count

    def total_cost(self) -> float:
        """O(1) weighted total from the running counters.

        The per-move fast path: no :class:`CostBreakdown` is constructed
        and no occupancy map is scanned.  Bit-identical to
        ``self.cost().total`` — both route the same counter values through
        :func:`repro.datapath.cost.weighted_total`, and the sanitizer
        asserts equality against :meth:`cost_from_scratch` at every shadow
        check.
        """
        if self._dirty:
            self.flush()
        return weighted_total(self.weights, self._fu_used_area,
                              self._reg_used_count, self.ledger.mux_count,
                              self.ledger.wire_count, self.ledger.mux_depth)

    def placement_terms(self, changes: Mapping[Tuple[str, int],
                                               Tuple[str, ...]]
                        ) -> Optional[PriceTerms]:
        """Integer cost terms of placing each segment of *changes*, unapplied.

        *changes* maps ``(value, step)`` to its new register tuple; every
        segment is assumed legal to place there (free or already held).
        The result describes what ``set_placements`` plus
        ``fixup_segment`` on every listed segment would do, and the
        binding is not touched.

        One pass over *changes* collects what the change dirties: the
        transfers into and out of each changed segment, the write of a
        changed birth segment, and each read or output source the repair
        re-points to the new primary register.  Each of those sites' new
        events is then built inline, every placement read from *changes*
        over the live ``placements`` (nothing is copied), and its old
        events come from the site table.  A transfer site with no events
        before and none after is skipped.  Since no changed value has a
        pass-through, a transfer's events are the direct connections from
        the source segment's primary register, exactly what
        ``_derive_xfer`` would give.  The ledger then prices the net
        connection-use change.  The ``_derive_*`` rules are not called:
        they read only the live dicts, and pricing through them meant
        copying ``placements`` (and ``read_src``) per candidate.

        Returns ``((Δreg, Δmux, Δwire, Δdepth), Δuses)``: the change of
        the used-register count and of the three ledger totals, and the
        net ``{pair: Δuses}`` behind the last three.  :meth:`price_of`
        turns the counts into the total cost.

        Returns ``None`` — price it with a journaled mutation instead —
        when a changed value has a pass-through (the repair may drop it,
        moving FU use) or a segment would be left empty (the repair would
        clear a read source).  Aborting either write also reorders
        ``pt_impl`` or ``read_src``, which no price can reproduce.
        """
        if self._dirty:
            self.flush()
        pt_impl = self.pt_impl
        if pt_impl:
            values = {value for value, _step in changes}
            if any(key[0] in values for key in pt_impl):
                return None
        placements = self.placements
        read_src = self.read_src
        out_src = self.out_src
        reads_at = self._reads_at
        out_sites = self._out_sample_sites
        pred_step = self._pred_step
        succ_step = self._succ_step
        reg_out_ep = self._reg_out_ep
        reg_in_ep = self._reg_in_ep
        events = self._site_events
        # (old events, new events) of every site the change may move
        rederived: List[Tuple[List[Tuple], List[Tuple]]] = []
        xfers: Set[Tuple[str, int]] = set()
        new_reads: Dict[Tuple[str, int], str] = {}
        freed: List[str] = []
        taken: List[str] = []
        for seg, regs in changes.items():
            if not regs:
                return None
            old = placements.get(seg, ())
            if regs != old:
                freed.extend(old)
                taken.extend(regs)
                if pred_step[seg] is None:
                    # the birth segment: no transfer in, the write moves
                    value = seg[0]
                    src = self._write_source(value)
                    rederived.append((
                        events.get(("write", value), _NO_EVENTS),
                        [] if src is None
                        else [(src, reg_in_ep[reg]) for reg in regs]))
                else:
                    xfers.add(seg)
                succ = succ_step[seg]
                if succ is not None:
                    xfers.add((seg[0], succ))
            # fixup_segment's source repair
            for site in reads_at.get(seg, ()):
                if read_src.get(site) not in regs:
                    new_reads[site] = regs[0]
            if seg in out_sites and out_src.get(seg[0]) not in regs:
                value = seg[0]
                rederived.append((events.get(("out", value), _NO_EVENTS),
                                  [(reg_out_ep[regs[0]],
                                    self._out_port_ep[value])]))

        for seg in xfers:
            value = seg[0]
            old_events = events.get(("xfer", value, seg[1]), _NO_EVENTS)
            src = (value, pred_step[seg])
            prev = changes.get(src) or placements.get(src, ())
            cur = changes.get(seg) or placements.get(seg, ())
            if not prev or cur == prev:
                # no transfer after the change
                if old_events:
                    rederived.append((old_events, _NO_EVENTS))
                continue
            source = reg_out_ep[prev[0]]
            new_events = [(source, reg_in_ep[dst])
                          for dst in cur if dst not in prev]
            if new_events or old_events:
                rederived.append((old_events, new_events))
        if new_reads:
            op_fu = self.op_fu
            fu_in_ep = self._fu_in_ep
            for op_name in {op_name for op_name, _port in new_reads}:
                fu_name = op_fu.get(op_name)
                new_events = []
                if fu_name is not None:
                    swap = self.op_swap.get(op_name, False) \
                        and op_name in self._swappable
                    for port in self._read_ports[op_name]:
                        reg = new_reads.get((op_name, port)) \
                            or read_src.get((op_name, port))
                        if reg is None:
                            continue
                        eff_port = (1 - port) if swap else port
                        new_events.append((reg_out_ep[reg],
                                           fu_in_ep[(fu_name, eff_port)]))
                rederived.append((events.get(("read", op_name), _NO_EVENTS),
                                  new_events))

        use_delta: Dict[Tuple, int] = {}
        delta_get = use_delta.get
        for old_events, new_events in rederived:
            if new_events == old_events:
                continue
            for pair in old_events:
                use_delta[pair] = delta_get(pair, 0) - 1
            for pair in new_events:
                use_delta[pair] = delta_get(pair, 0) + 1

        d_reg = 0
        if sorted(freed) != sorted(taken):
            load_delta: Dict[str, int] = {}
            for reg in taken:
                load_delta[reg] = load_delta.get(reg, 0) + 1
            for reg in freed:
                load_delta[reg] = load_delta.get(reg, 0) - 1
            reg_load = self._reg_load
            for reg, change in load_delta.items():
                if change:
                    before = reg_load.get(reg, 0)
                    d_reg += (before + change > 0) - (before > 0)
        return (d_reg,) + self.ledger.price(use_delta), use_delta

    def price_of(self, counts: PriceCounts) -> float:
        """Total cost after a change with the integer terms *counts*.

        The counts go through :func:`weighted_total` with the binding's
        current counters, so the result equals, bit for bit, what
        :meth:`total_cost` returns after the change is applied.
        """
        d_reg, d_mux, d_wire, d_depth = counts
        ledger = self.ledger
        return weighted_total(self.weights, self._fu_used_area,
                              self._reg_used_count + d_reg,
                              ledger.mux_count + d_mux,
                              ledger.wire_count + d_wire,
                              ledger.mux_depth + d_depth)

    def price_passthrough(self, terms: PriceTerms, value: str,
                          dst_step: int, dst_reg: str,
                          impl: PtImpl) -> float:
        """Total cost after the change priced as *terms* plus the
        pass-through *impl* for the transfer into ``(value, dst_step,
        dst_reg)``, unapplied.

        The change must leave that transfer direct (no pass-through on
        *value*, *dst_reg* not holding it at the preceding step) and must
        not move the preceding segment, whose primary register is the
        direct source.  ``set_pt`` then swaps the direct connection for
        the two through the FU, and loads the FU: a 0→1 load adds its
        type's area, re-summed through :meth:`_area_of`.  The result
        equals :meth:`total_cost` after the change and ``set_pt``, bit
        for bit.
        """
        (d_reg, _mux, _wire, _depth), use_delta = terms
        src_reg, fu_name, fu_port = impl
        prev = self.placements[(value, self._pred_step[(value, dst_step)])]
        reg_in_ep = self._reg_in_ep
        delta = dict(use_delta)
        for pair, change in (
                ((self._reg_out_ep[prev[0]], reg_in_ep[dst_reg]), -1),
                ((self._reg_out_ep[src_reg],
                  self._fu_in_ep[(fu_name, fu_port)]), 1),
                ((self._fu_out_ep[fu_name], reg_in_ep[dst_reg]), 1)):
            delta[pair] = delta.get(pair, 0) + change
        area = self._fu_used_area
        if not self._fu_load.get(fu_name):
            by_type = dict(self._fu_used_by_type)
            tname = self.fus[fu_name].type_name
            by_type[tname] = by_type.get(tname, 0) + 1
            area = self._area_of(by_type)
        ledger = self.ledger
        d_mux, d_wire, d_depth = ledger.price(delta)
        return weighted_total(self.weights, area,
                              self._reg_used_count + d_reg,
                              ledger.mux_count + d_mux,
                              ledger.wire_count + d_wire,
                              ledger.mux_depth + d_depth)

    def requeue_segments(self, keys: Iterable[Tuple[str, int]]) -> None:
        """Move the placed segments *keys* to the end of ``placements``.

        :meth:`abort_move` re-inserts every segment key a move emptied and
        refilled at the end of the dict, and that order feeds the search
        RNG (DESIGN.md §3.3).  A caller that priced such a move with
        :meth:`placement_terms` instead of applying and aborting it calls
        this, outside any journal bracket, to leave the same state.  As
        after the abort, the contents and the ticks stay as they are.
        """
        placements = self.placements
        for key in keys:
            placements[key] = placements.pop(key)

    def cost(self) -> CostBreakdown:
        """Evaluate the current allocation cost (requires a flushed state)."""
        if self._dirty:
            self.flush()
        return CostBreakdown(
            fu_count=self._fu_used_count,
            fu_area=self._fu_used_area,
            register_count=self._reg_used_count,
            mux_count=self.ledger.mux_count,
            wire_count=self.ledger.wire_count,
            weights=self.weights,
            mux_depth=self.ledger.mux_depth,
        )

    def cost_from_scratch(self) -> CostBreakdown:
        """Recompute the cost with no incremental counter involved.

        The sanitizer's oracle for the fast path: FU/register use is
        re-derived from the token/occupancy maps and the interconnect
        totals from the per-site event lists, so a skewed incremental
        counter (``_fu_used_count``/``_reg_used_count``/``_fu_used_area``
        or a drifted ledger) shows up as a cost mismatch.
        """
        if self._dirty:
            self.flush()
        used_fus = {f for (f, _s) in self.fu_tokens}
        by_type: Dict[str, int] = {}
        for name in used_fus:
            tname = self.fus[name].type_name
            by_type[tname] = by_type.get(tname, 0) + 1
        uses: Counter = Counter()
        for events in self._site_events.values():
            for src, sink in events:
                uses[(src, sink)] += 1
        fanin: Counter = Counter(sink for (_src, sink) in uses)
        return CostBreakdown(
            fu_count=len(used_fus),
            fu_area=self._area_of(by_type),
            register_count=len({r for (r, _s) in self.reg_occ}),
            mux_count=sum(max(0, n - 1) for n in fanin.values()),
            wire_count=len(uses),
            weights=self.weights,
            mux_depth=sum((n - 1).bit_length()
                          for n in fanin.values() if n > 1),
        )

    # -------------------------------------------------------------- snapshots

    def derived_snapshot(self) -> Dict[str, object]:
        """Canonical snapshot of all incrementally-maintained derived state.

        Two bindings with the same decisions must produce bit-identical
        snapshots; :mod:`repro.verify.sanitizer` compares the live binding
        against a shadow rebuilt from :meth:`clone_state` to detect stale
        sites, writes that escaped the journal, or ledger drift.
        """
        if self._dirty:
            self.flush()
        return {
            "reg_occ": dict(self.reg_occ),
            "fu_tokens": dict(self.fu_tokens),
            "fu_load": {n: c for n, c in self._fu_load.items() if c},
            "reg_load": {n: c for n, c in self._reg_load.items() if c},
            "site_events": {key: tuple(events)
                            for key, events in self._site_events.items()
                            if events},
            "uses": self.ledger.use_counts(),
        }

    def duplicate(self) -> "Binding":
        """A fresh, independent Binding with the same decisions."""
        return Binding.from_state(self.schedule, list(self.fus.values()),
                                  list(self.regs.values()),
                                  self.clone_state(), self.weights)

    @classmethod
    def from_state(cls, schedule: Schedule, fus: Sequence[FU],
                   registers: Sequence[Register], state: Mapping,
                   weights: CostWeights) -> "Binding":
        """A fresh binding holding the decisions of *state*.

        *state* is any name-keyed snapshot: a :meth:`clone_state` of any
        binding (pickled or not), or the decision sections of a binding
        document decoded by :func:`~repro.core.snapshot.state_from_dict`
        (a binding file, a warm-store blob, a sanitizer reproducer).  Its
        six sections are written through the primitives in snapshot
        order — ``op_fu``, ``placements``, ``op_swap``, ``read_src``,
        ``out_src``, ``pt_impl`` — and then flushed, so every derived
        datum is re-derived from the decisions alone (the property the
        sanitizer's shadow rebuild relies on) and ``placements``
        iterates, and ticks, in snapshot order.
        """
        binding = cls(schedule, fus, registers, weights=weights)
        for op_name, fu in state["op_fu"].items():
            binding.set_op_fu(op_name, fu)
        for (value, step), regs in state["placements"].items():
            binding.set_placements(value, step, regs)
        for op_name, flag in state["op_swap"].items():
            binding.set_op_swap(op_name, flag)
        for (op_name, port), reg in state["read_src"].items():
            binding.set_read_src(op_name, port, reg)
        for value, reg in state["out_src"].items():
            binding.set_out_src(value, reg)
        for (value, step, reg), impl in state["pt_impl"].items():
            binding.set_pt(value, step, reg, tuple(impl))
        binding.flush()
        return binding

    def clone_state(self) -> BindingState:
        """Snapshot of the decision state (for best-so-far).

        Copies of the six decision dicts — ``placements`` in tick order,
        ``pt_impl`` sorted, the rest in live order — plus shallow copies
        of the derived state and this binding's token, so
        :meth:`restore_state` can bulk-copy instead of re-derive.
        """
        if self._dirty:
            self.flush()
        derived = DerivedSnapshot(
            reg_occ=dict(self.reg_occ),
            fu_tokens=dict(self.fu_tokens),
            fu_load=dict(self._fu_load),
            reg_load=dict(self._reg_load),
            fu_by_type=dict(self._fu_used_by_type),
            counters=(self._fu_used_count, self._reg_used_count,
                      self._fu_used_area),
            site_events=dict(self._site_events),
            ledger=self.ledger.snapshot(),
        )
        placements = self.placements
        order = sorted(placements, key=self._seg_seq.__getitem__)
        return BindingState({
            "op_fu": dict(self.op_fu),
            "op_swap": dict(self.op_swap),
            "placements": dict(zip(order, map(placements.__getitem__, order))),
            "read_src": dict(self.read_src),
            "out_src": dict(self.out_src),
            "pt_impl": dict(sorted(self.pt_impl.items())),
        }, derived, self._token)

    def restore_state(self, state: BindingState) -> None:
        """Return to a snapshot this binding took with :meth:`clone_state`.

        Each decision dict is compared with its snapshot copy, and only a
        differing one is touched.  In ``placements`` every differing key
        is popped and the snapshot's are re-inserted in snapshot (tick)
        order with fresh ticks, so unchanged keys keep their live order
        and the restored keys follow them (DESIGN.md §3.3).  The other
        dicts are patched in place (:func:`_replay`), and the
        pass-through table is replaced by the snapshot's sorted copy.
        Derived state is then bulk-copied from the clone-time
        :class:`DerivedSnapshot` instead of re-derived.

        Any other snapshot — a plain dict, a pickled or decoded copy,
        another binding's clone — raises :class:`BindingError`; load it
        into a fresh binding with :meth:`from_state`.  So does a restore
        inside an open :meth:`begin_move` bracket, which the journal
        could not revert.
        """
        if not isinstance(state, BindingState) \
                or state.owner is not self._token:
            raise BindingError(
                "restore_state takes only a snapshot this binding cloned; "
                "load any other with Binding.from_state")
        if self._raw_journal is not None:
            raise BindingError(
                "restore_state inside an open begin_move bracket")
        if self._dirty:
            self.flush()
        changed = False
        for live, section in ((self.op_fu, "op_fu"),
                              (self.op_swap, "op_swap"),
                              (self.read_src, "read_src"),
                              (self.out_src, "out_src")):
            changed = _replay(live, state[section]) or changed
        xfer_dirty = False
        placements = self.placements
        snap = state["placements"]
        if placements != snap:
            xfer_dirty = True
            for key in [key for key, regs in placements.items()
                        if snap.get(key) != regs]:
                del placements[key]
            seg_seq = self._seg_seq
            tick = self._seg_tick
            for key, regs in snap.items():
                if key not in placements:
                    placements[key] = regs
                    seg_seq[key] = tick
                    tick += 1
            self._seg_tick = tick
        pt_impl = state["pt_impl"]
        if self.pt_impl != pt_impl:
            xfer_dirty = True
            self.pt_impl.clear()
            self.pt_impl.update(pt_impl)
        if not (changed or xfer_dirty):
            return

        derived = state.derived
        assert derived is not None
        self.reg_occ.clear()
        self.reg_occ.update(derived.reg_occ)
        self.fu_tokens.clear()
        self.fu_tokens.update(derived.fu_tokens)
        self._fu_load.clear()
        self._fu_load.update(derived.fu_load)
        self._reg_load.clear()
        self._reg_load.update(derived.reg_load)
        self._fu_used_by_type.clear()
        self._fu_used_by_type.update(derived.fu_by_type)
        (self._fu_used_count, self._reg_used_count,
         self._fu_used_area) = derived.counters
        self._site_events.clear()
        self._site_events.update(derived.site_events)
        self.ledger.restore(derived.ledger)
        if xfer_dirty:
            self._xfer_cache = None


def _replay(live: Dict, snap: Mapping) -> bool:
    """Make the decision dict *live* equal *snap*; True if it changed.

    Live keys the snapshot lacks are popped, and the snapshot's differing
    keys are written in snapshot order: a key still present keeps its
    live position, a missing one goes to the end.
    """
    if live == snap:
        return False
    for key in [key for key in live if key not in snap]:
        del live[key]
    for key, value in snap.items():
        if live.get(key, _ABSENT) != value:
            live[key] = value
    return True
