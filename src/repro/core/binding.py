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

from array import array
from collections import Counter
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Set,
                    Tuple)

from repro.errors import BindingError
from repro.cdfg.graph import CDFG
from repro.cdfg.lifetimes import LiveInterval
from repro.core.arraystate import CompactState, DerivedSnapshot
from repro.core.interning import BindingTables
from repro.datapath.cost import CostBreakdown, CostWeights, weighted_total
from repro.datapath.interconnect import (ConnectionLedger, fu_in, fu_out,
                                         in_port, out_port, reg_in, reg_out)
from repro.datapath.units import FU, Register
from repro.sched.schedule import Schedule

SiteKey = Tuple
PtImpl = Tuple[str, str, int]  # (src_reg, fu, fu_port)

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
        #: ``(container, key, old_value_or_ABSENT)`` in write order, where
        #: the container is a decision/occupancy dict or a flat array
        #: column (arrays replay through the same ``container[key] = old``
        #: branch; their old value is never ``_ABSENT``)
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

        # dense-id tables + flat integer columns: the array mirror of the
        # decision dicts (repro.core.interning / repro.core.arraystate).
        # Every primitive writes dict and column together — through the
        # same write journal, so abort_move replays both — and the columns
        # are what clone_state()/restore_state() snapshot and diff.
        self._tables = BindingTables(
            ops=self.ops_sorted,
            fus=tuple(fus_sorted),
            regs=self.regs_sorted,
            segs=sorted(self._live_pairs),
            reads=sorted({(op_name, port)
                          for val in self.graph.values.values()
                          for op_name, port in val.consumers}),
            outs=sorted(v for v, val in self.graph.values.items()
                        if val.is_output))
        tables = self._tables
        self._op_fu_col = array("i", [-1]) * len(tables.op_names)
        self._op_swap_col = array("b", bytes(len(tables.op_names)))
        self._read_col = array("i", [-1]) * len(tables.read_keys)
        self._out_col = array("i", [-1]) * len(tables.out_values)
        self._seg_col = array("i", bytes(4 * len(tables.seg_keys)))
        #: dict-position tick per segment: ascending ticks over the placed
        #: segments reproduce the placements dict's iteration order, which
        #: is the one dict order the search trajectory observes
        self._seg_seq = array("q", bytes(8 * len(tables.seg_keys)))
        #: next position tick; monotone for the binding's life (abort_move
        #: restores seq cells but never rewinds the counter — monotonicity
        #: is the only property the order reconstruction needs)
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

    def ops_on_fu(self, fu: str) -> List[str]:
        """Operations currently bound to *fu* (each listed once)."""
        ops = {tok[1] for (f, _s), tok in self.fu_tokens.items()
               if f == fu and tok[0] == "op"}
        return sorted(ops)

    def values_in_reg(self, reg: str) -> List[Tuple[str, int]]:
        """(value, step) segments currently placed in *reg*."""
        return sorted((v, s) for (r, s), v in self.reg_occ.items() if r == reg)

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

    def _reg_load_add(self, name: str) -> None:
        reg_load = self._reg_load
        journal = self._raw_journal
        load = reg_load.get(name, 0) + 1
        if journal is not None:
            journal.append((reg_load, name,
                            load - 1 if load > 1 else _ABSENT))
        reg_load[name] = load
        if load == 1:
            self._reg_used_count += 1

    def _reg_load_drop(self, name: str) -> None:
        reg_load = self._reg_load
        journal = self._raw_journal
        load = reg_load[name] - 1
        if journal is not None:
            journal.append((reg_load, name, load + 1))
        if load:
            reg_load[name] = load
        else:
            del reg_load[name]
            self._reg_used_count -= 1

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
        tables = self._tables
        op_fu_col = self._op_fu_col
        op_idx = tables.op_ids[op_name]
        if journal is not None:
            journal.append((op_fu_col, op_idx, op_fu_col[op_idx]))
        op_fu_col[op_idx] = \
            -1 if fu_name is None else tables.fu_ids[fu_name]
        self._mark(("read", op_name))
        if op.result is not None:
            self._mark(("write", op.result))

    def set_op_swap(self, op_name: str, flag: bool) -> None:
        """Set operand-reversal for a commutative binary operation."""
        op = self.graph.ops[op_name]
        old = self.op_swap.get(op_name, False)
        if flag == old:
            return
        if flag and (op.arity != 2 or not op.commutative):
            raise BindingError(
                f"operand reverse illegal on {op_name!r} ({op.kind})")
        journal = self._raw_journal
        swap_col = self._op_swap_col
        op_idx = self._tables.op_ids[op_name]
        if journal is not None:
            journal.append(
                (self.op_swap, op_name,
                 self.op_swap.get(op_name, _ABSENT)))
            journal.append((swap_col, op_idx, swap_col[op_idx]))
        self.op_swap[op_name] = flag
        swap_col[op_idx] = 1 if flag else 0
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
        tables = self._tables
        seg_idx = tables.seg_ids[(value, step)]
        seg_col = self._seg_col
        if append is not None:
            append((seg_col, seg_idx, seg_col[seg_idx]))
        seg_col[seg_idx] = tables.pool.intern(new)
        if not old:
            # fresh dict insert (at the end): stamp its position tick
            seg_seq = self._seg_seq
            if append is not None:
                append((seg_seq, seg_idx, seg_seq[seg_idx]))
            seg_seq[seg_idx] = self._seg_tick
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
        tables = self._tables
        read_idx = tables.read_ids.get((op_name, port))
        if read_idx is None:
            raise BindingError(
                f"({op_name!r}, {port}) is not a consumer read site")
        journal = self._raw_journal
        read_col = self._read_col
        if journal is not None:
            journal.append(
                (self.read_src, (op_name, port),
                 _ABSENT if old is None else old))
            journal.append((read_col, read_idx, read_col[read_idx]))
        read_col[read_idx] = -1 if reg is None else tables.reg_ids[reg]
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
        tables = self._tables
        out_idx = tables.out_ids.get(value)
        if out_idx is None:
            raise BindingError(f"{value!r} is not an output value")
        journal = self._raw_journal
        out_col = self._out_col
        if journal is not None:
            journal.append(
                (self.out_src, value, _ABSENT if old is None else old))
            journal.append((out_col, out_idx, out_col[out_idx]))
        out_col[out_idx] = -1 if reg is None else tables.reg_ids[reg]
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

    def _mark_segment_sites(self, value: str, step: int,
                            dirty: Optional[Set[SiteKey]] = None) -> None:
        """Mark the sites a placement change at ``(value, step)`` touches.

        They go into *dirty*, by default the binding's own dirty set.
        """
        if dirty is None:
            dirty = self._dirty
        if self._pred_step[(value, step)] is None:
            dirty.add(("write", value))
        dirty.add(("xfer", value, step))
        succ = self._succ_step[(value, step)]
        if succ is not None:
            dirty.add(("xfer", value, succ))
        if (value, step) in self._out_sample_sites:
            dirty.add(("out", value))

    # The _derive_* rules read the decision dicts; the placement, read
    # -source and out-source lookups can be swapped for hypothetical ones,
    # which is how price_placements() derives a candidate's events without
    # applying it.

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

    def _derive_read(self, op_name: str,
                     read_src: Optional[Mapping] = None) -> List[Tuple]:
        fu_name = self.op_fu.get(op_name)
        if fu_name is None:
            return []
        swap = self.op_swap.get(op_name, False) \
            and op_name in self._swappable
        if read_src is None:
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

    def _derive_write(self, value: str,
                      placements: Optional[Mapping] = None) -> List[Tuple]:
        src = self._in_port_ep.get(value)
        if src is None:
            producer = self._producer[value]
            if producer is None:
                return []
            fu_name = self.op_fu.get(producer)
            if fu_name is None:
                return []
            src = self._fu_out_ep[fu_name]
        if value in self._port_captured:
            # straight from the FU to the output port, no register
            out_ep = self._out_port_ep.get(value)
            return [(src, out_ep)] if out_ep is not None else []
        if placements is None:
            placements = self.placements
        reg_in_ep = self._reg_in_ep
        return [(src, reg_in_ep[reg])
                for reg in placements.get(
                    (value, self._interval[value].birth), ())]

    def _derive_xfer(self, value: str, dst_step: int,
                     placements: Optional[Mapping] = None) -> List[Tuple]:
        src_step = self._pred_step[(value, dst_step)]
        if src_step is None:
            return []
        if placements is None:
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

    def _derive_out(self, value: str,
                    out_src: Optional[Mapping] = None) -> List[Tuple]:
        out_ep = self._out_port_ep.get(value)
        if out_ep is None or value in self._port_captured:
            return []
        if out_src is None:
            out_src = self.out_src
        reg = out_src.get(value)
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

    def price_placements(self, changes: Mapping[Tuple[str, int],
                                                Tuple[str, ...]]
                         ) -> Optional[float]:
        """Total cost after placing each segment of *changes*, unapplied.

        *changes* maps ``(value, step)`` to its new register tuple; every
        segment is assumed legal to place there (free or already held).
        The result equals, bit for bit, what :meth:`total_cost` returns
        after ``set_placements`` plus ``fixup_segment`` on every listed
        segment: the read/out-source repair re-points to the new primary
        register, the dirtied sites' old events come from the site table,
        their new events from the same ``_derive_*`` rules :meth:`flush`
        uses (over hypothetical lookups), and the ledger prices the net
        connection-use change.  The binding is not touched.

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
        mark = self._mark_segment_sites
        sites: Set[SiteKey] = set()
        new_reads: Dict[Tuple[str, int], str] = {}
        new_outs: Dict[str, str] = {}
        freed: List[str] = []
        taken: List[str] = []
        for seg, regs in changes.items():
            if not regs:
                return None
            old = placements.get(seg, ())
            if regs != old:
                freed.extend(old)
                taken.extend(regs)
                mark(seg[0], seg[1], sites)
            # fixup_segment's source repair
            for site in reads_at.get(seg, ()):
                if read_src.get(site) not in regs:
                    new_reads[site] = regs[0]
                    sites.add(("read", site[0]))
            if seg in out_sites and out_src.get(seg[0]) not in regs:
                new_outs[seg[0]] = regs[0]
                sites.add(("out", seg[0]))

        view = placements.copy()
        view.update(changes)
        if new_reads:
            read_src = read_src.copy()
            read_src.update(new_reads)
        if new_outs:
            out_src = out_src.copy()
            out_src.update(new_outs)
        events = self._site_events
        derive_xfer = self._derive_xfer
        use_delta: Dict[Tuple, int] = {}
        delta_get = use_delta.get
        for key in sites:
            kind = key[0]
            if kind == "xfer":
                new_events = derive_xfer(key[1], key[2], view)
            elif kind == "read":
                new_events = self._derive_read(key[1], read_src)
            elif kind == "write":
                new_events = self._derive_write(key[1], view)
            else:
                new_events = self._derive_out(key[1], out_src)
            old_events = events.get(key, _NO_EVENTS)
            if new_events == old_events:
                continue
            for pair in old_events:
                use_delta[pair] = delta_get(pair, 0) - 1
            for pair in new_events:
                use_delta[pair] = delta_get(pair, 0) + 1

        reg_count = self._reg_used_count
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
                    reg_count += (before + change > 0) - (before > 0)
        ledger = self.ledger
        d_mux, d_wire, d_depth = ledger.price(use_delta)
        return weighted_total(self.weights, self._fu_used_area, reg_count,
                              ledger.mux_count + d_mux,
                              ledger.wire_count + d_wire,
                              ledger.mux_depth + d_depth)

    def requeue_segments(self, keys: Iterable[Tuple[str, int]]) -> None:
        """Move the placed segments *keys* to the end of ``placements``.

        :meth:`abort_move` re-inserts every segment key a move emptied and
        refilled at the end of the dict, and that order feeds the search
        RNG (DESIGN.md §3.3).  A caller that priced such a move with
        :meth:`price_placements` instead of applying and aborting it calls
        this, outside any journal bracket, to leave the same state.  As
        after the abort, the contents, the columns and ``seg_seq`` stay
        as they are, and one position tick is spent per key (the abort
        restores the tick each refill stamped, but never the counter).
        """
        placements = self.placements
        for key in keys:
            placements[key] = placements.pop(key)
            self._seg_tick += 1

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
        twin = Binding(self.schedule, list(self.fus.values()),
                       list(self.regs.values()), weights=self.weights)
        twin.restore_state(self.clone_state())
        return twin

    def clone_state(self) -> CompactState:
        """Compact snapshot of the decision state (for best-so-far).

        Column slices plus shallow copies of the derived state — no
        per-key dict copying.  The result is a read-only
        :class:`~repro.core.arraystate.CompactState`; it also behaves as
        the legacy ``{"op_fu": {...}, ...}`` mapping for name-keyed
        consumers (codecs, cross-binding restores).
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
        return CompactState(
            tables=self._tables,
            op_fu=self._op_fu_col[:],
            op_swap=self._op_swap_col[:],
            read_src=self._read_col[:],
            out_src=self._out_col[:],
            seg=self._seg_col[:],
            seg_seq=self._seg_seq[:],
            pt=tuple(sorted(self.pt_impl.items())),
            derived=derived,
        )

    def restore_state(self, state: Mapping) -> None:
        """Restore a snapshot taken with :meth:`clone_state`.

        A :class:`~repro.core.arraystate.CompactState` made by **this**
        binding takes the fast path (:meth:`_restore_fast`): column diffs
        applied to the decision dicts plus a bulk copy of the clone-time
        derived state — no site is re-derived.  Anything else — a legacy
        name-keyed dict, or a compact snapshot from another binding (the
        sanitizer's shadow rebuild, ``duplicate``, a deserialized warm
        start) — goes through :meth:`_restore_mapping`, which mutates via
        the primitives and re-derives the dirty sites, keeping the
        shadow-rebuild oracle independent of this binding's derived state.
        Both paths yield bit-identical dict iteration orders and search
        trajectories.
        """
        if isinstance(state, CompactState):
            if (state.tables is self._tables and state.derived is not None
                    and self._raw_journal is None):
                self._restore_fast(state)
            else:
                self._restore_mapping(state.to_mapping())
            return
        self._restore_mapping(state)

    def _restore_fast(self, state: CompactState) -> None:
        """Same-binding diff-replay restore from the array columns.

        For each column, a C-speed array compare decides whether anything
        changed; only differing indices touch the name-keyed dicts.
        Removed placements are popped first, then the snapshot's differing
        segments are re-inserted in ascending clone-time ``seg_seq`` with
        fresh ticks — reproducing exactly the dict order the primitive
        path would produce ([unchanged keys in live order] + [restored
        keys in snapshot order]).  Derived state is then bulk-copied from
        the clone-time :class:`DerivedSnapshot` instead of re-derived.
        """
        if self._dirty:
            self.flush()
        tables = self._tables
        changed = False
        xfer_dirty = False

        seg_col = self._seg_col
        snap_seg = state.seg
        if seg_col != snap_seg:
            changed = True
            xfer_dirty = True
            placements = self.placements
            seg_keys = tables.seg_keys
            pool_tuples = tables.pool.tuples
            snap_seq = state.seg_seq
            diff = [i for i, (live, want)
                    in enumerate(zip(seg_col, snap_seg)) if live != want]
            for i in diff:
                if seg_col[i]:
                    del placements[seg_keys[i]]
            seg_seq = self._seg_seq
            tick = self._seg_tick
            for _pos, i in sorted((snap_seq[i], i) for i in diff
                                  if snap_seg[i]):
                placements[seg_keys[i]] = pool_tuples[snap_seg[i]]
                seg_seq[i] = tick
                tick += 1
            self._seg_tick = tick
            seg_col[:] = snap_seg

        col = self._op_fu_col
        snap = state.op_fu
        if col != snap:
            changed = True
            op_names = tables.op_names
            fu_names = tables.fu_names
            op_fu = self.op_fu
            for i, (live, want) in enumerate(zip(col, snap)):
                if live != want:
                    if want < 0:
                        op_fu.pop(op_names[i], None)
                    else:
                        op_fu[op_names[i]] = fu_names[want]
            col[:] = snap

        col = self._op_swap_col
        snap = state.op_swap
        if col != snap:
            changed = True
            op_names = tables.op_names
            op_swap = self.op_swap
            for i, (live, want) in enumerate(zip(col, snap)):
                if live != want:
                    if want:
                        op_swap[op_names[i]] = True
                    else:
                        op_swap.pop(op_names[i], None)
            col[:] = snap

        col = self._read_col
        snap = state.read_src
        if col != snap:
            changed = True
            read_keys = tables.read_keys
            reg_names = tables.reg_names
            read_src = self.read_src
            for i, (live, want) in enumerate(zip(col, snap)):
                if live != want:
                    if want < 0:
                        read_src.pop(read_keys[i], None)
                    else:
                        read_src[read_keys[i]] = reg_names[want]
            col[:] = snap

        col = self._out_col
        snap = state.out_src
        if col != snap:
            changed = True
            out_values = tables.out_values
            reg_names = tables.reg_names
            out_src = self.out_src
            for i, (live, want) in enumerate(zip(col, snap)):
                if live != want:
                    if want < 0:
                        out_src.pop(out_values[i], None)
                    else:
                        out_src[out_values[i]] = reg_names[want]
            col[:] = snap

        if tuple(sorted(self.pt_impl.items())) != state.pt:
            changed = True
            xfer_dirty = True
            self.pt_impl.clear()
            self.pt_impl.update(state.pt)

        if not changed:
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

    def _restore_mapping(self, state: Mapping) -> None:
        """Restore a legacy name-keyed snapshot through the primitives.

        Diff-based: only keys whose value differs between the live state
        and the snapshot are touched, so restoring a near-identical state
        costs proportional to the drift, not to the binding size.  All
        mutation goes through the primitives, so the derived state is
        re-derived incrementally and independently of the snapshot's
        origin — the property the sanitizer's shadow rebuild relies on.

        Clear-then-set ordering keeps every intermediate state legal:
        stale pass-throughs are dropped first (they pin FU tokens and
        reference placements), then differing placements and FU bindings
        are vacated before the snapshot's values are written, and the
        snapshot's pass-throughs are re-bound last, once the placements
        they validate against are in place.
        """
        op_fu: Dict[str, Optional[str]] = state["op_fu"]  # type: ignore
        placements: Dict[Tuple[str, int], Tuple[str, ...]] = \
            state["placements"]                           # type: ignore
        op_swap: Dict[str, bool] = state["op_swap"]       # type: ignore
        read_src: Dict[Tuple[str, int], str] = state["read_src"]  # type: ignore
        out_src: Dict[str, str] = state["out_src"]        # type: ignore
        pt_impl: Dict[Tuple[str, int, str], PtImpl] = \
            state["pt_impl"]                              # type: ignore

        # 1. drop pass-throughs that the snapshot lacks or implements
        #    differently (frees their FU tokens and placement references)
        for key, impl in list(self.pt_impl.items()):
            if pt_impl.get(key) != impl:
                self.set_pt(key[0], key[1], key[2], None)
        # 2. vacate placements and FU bindings that differ, so the set
        #    phase below never collides with a stale occupant
        for key, regs in list(self.placements.items()):
            if placements.get(key) != regs:
                self.set_placements(key[0], key[1], ())
        for op_name, fu in list(self.op_fu.items()):
            if op_fu.get(op_name) != fu:
                self.set_op_fu(op_name, None)
        # 3. write the snapshot's decisions (no-ops for unchanged keys)
        for op_name, fu in op_fu.items():
            if self.op_fu.get(op_name) != fu:
                self.set_op_fu(op_name, fu)
        for (value, step), regs in placements.items():
            if self.placements.get((value, step), ()) != tuple(regs):
                self.set_placements(value, step, regs)
        for op_name in list(self.op_swap):
            if op_name not in op_swap:
                self.set_op_swap(op_name, False)
        for op_name, flag in op_swap.items():
            self.set_op_swap(op_name, flag)
        for (op_name, port) in list(self.read_src):
            if (op_name, port) not in read_src:
                self.set_read_src(op_name, port, None)
        for (op_name, port), reg in read_src.items():
            self.set_read_src(op_name, port, reg)
        for value in list(self.out_src):
            if value not in out_src:
                self.set_out_src(value, None)
        for value, reg in out_src.items():
            self.set_out_src(value, reg)
        # 4. re-bind the snapshot's pass-throughs against final placements
        for key, impl in pt_impl.items():
            if self.pt_impl.get(key) != tuple(impl):
                self.set_pt(key[0], key[1], key[2], tuple(impl))
        self.flush()
