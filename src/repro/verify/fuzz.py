"""Budgeted differential fuzzing of the full allocation pipeline.

Each *case* is sampled deterministically from a root seed (all randomness
flows through :class:`repro.rng.SeedStream` — a case index alone pins the
graph, the scheduler, and every search seed).  A case:

1. generates a random CDFG (:func:`repro.bench.random_cdfg.random_cdfg`)
   across sizes, with or without loop-carried values;
2. schedules it with one of ASAP / resource-constrained list scheduling /
   force-directed scheduling;
3. runs **both** allocators (traditional baseline and extended SALSA) with
   the shadow-state sanitizer on, so every accepted move is audited against
   a fresh rebuild of the binding;
4. cross-checks each result with the RTL-vs-CDFG-interpreter differential
   simulator (:func:`repro.datapath.simulate.verify_binding`);
5. asserts cost-model invariants: warm-started improvement never ends worse
   than its start, multiplexer merging never increases mux cost, and
   unbinding a pass-through inside a journal bracket and aborting restores
   the exact cost, decision state and derived state (pass-through removal
   round-trips).

Failures are bucketed by signature (:mod:`repro.verify.corpus`), greedily
shrunk to a smallest reproducer (:mod:`repro.verify.shrink`), and emitted
as runnable scripts.  ``python -m repro.verify`` is the CLI entry point.

The module also hosts the test-only fault-injection hook
(:class:`BrokenRollbackMoveSet`, ``inject="undo"``) used to prove the
pipeline end-to-end: a move write that bypasses the journal must be caught
by the sanitizer, shrunk, and emitted as a reproducer.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.rng import SeedStream, make_rng
from repro.bench.random_cdfg import random_cdfg
from repro.bench.zoo import FAMILIES as ZOO_FAMILIES
from repro.bench.zoo import scenario_for_fuzz
from repro.cdfg.graph import CDFG
from repro.core.allocator import (AllocationResult, SalsaAllocator,
                                  TraditionalAllocator,
                                  salsa_from_traditional)
from repro.core.improve import ImproveConfig
from repro.core.moves import MoveSet
from repro.datapath.muxmerge import merge_muxes
from repro.datapath.netlist import build_netlist
from repro.datapath.simulate import verify_binding
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.explore import schedule_graph
from repro.sched.schedule import Schedule
from repro.verify.corpus import Corpus, failure_signature
from repro.verify.shrink import ShrinkResult, shrink_case

_SCHEDULERS = ("asap", "list", "fds")


# ----------------------------------------------------------------- the case

@dataclass(frozen=True)
class FuzzCase:
    """A fully deterministic description of one fuzz case."""

    index: int
    seed: int
    n_ops: int
    n_inputs: int
    const_fraction: float
    loop_fraction: float
    scheduler: str          # "asap" | "list" | "fds"
    length_slack: int       # extra steps past the critical path
    extra_registers: int    # registers beyond the schedule minimum
    restarts: int
    max_trials: int
    moves_per_trial: int
    uphill: int
    iterations: int         # differential-simulation iterations
    #: zoo family name for a structured case ("" = random CDFG); the
    #: family reuses ``n_ops`` as its size knob so the shrinker's integer
    #: bisection shrinks structured cases too
    family: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index, "seed": self.seed, "n_ops": self.n_ops,
            "n_inputs": self.n_inputs,
            "const_fraction": self.const_fraction,
            "loop_fraction": self.loop_fraction,
            "scheduler": self.scheduler,
            "length_slack": self.length_slack,
            "extra_registers": self.extra_registers,
            "restarts": self.restarts, "max_trials": self.max_trials,
            "moves_per_trial": self.moves_per_trial,
            "uphill": self.uphill, "iterations": self.iterations,
            "family": self.family,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        """Rebuild a case; fields absent from *data* (reproducers written
        before the field existed) keep their dataclass defaults."""
        values: Dict[str, Any] = {}
        for name, spec in cls.__dataclass_fields__.items():
            if name in data:
                values[name] = data[name]
            elif spec.default is not MISSING:
                values[name] = spec.default
            else:
                values[name] = data[name]  # KeyError: genuinely required
        return cls(**values)


@dataclass
class FuzzFailure:
    """One failing case with its classification."""

    case: FuzzCase
    stage: str
    exc_type: str
    message: str

    @property
    def signature(self) -> str:
        return failure_signature(self.stage, self.exc_type, self.message)


@dataclass
class FuzzConfig:
    """Knobs of one fuzzing run."""

    seed: int = 0
    budget_seconds: Optional[float] = None
    max_cases: Optional[int] = None
    min_ops: int = 6
    max_ops: int = 18
    #: fraction of cases built from structured zoo scenarios
    #: (:mod:`repro.bench.zoo`) instead of purely random CDFGs — the
    #: random generator explores unusual shapes, the zoo guarantees the
    #: realistic ones (filters, butterflies, ALU op mixes) every run
    zoo_fraction: float = 0.35
    sanitize_every: int = 8
    shrink: bool = True
    shrink_attempts: int = 48
    out_dir: Optional[str] = None
    known_buckets: Optional[str] = None
    #: test-only fault injection ("undo" makes one move write outside the
    #: journal, so rolling it back leaves a difference behind)
    inject: Optional[str] = None
    #: when > 0, every Nth improvement trial round-trips the binding
    #: through clone/restore (``ImproveConfig.restore_churn``), stressing
    #: the diff-replay restore path under the sanitizer
    restore_churn: int = 0
    #: additionally run the RTL round-trip lane per case: interpret the
    #: CDFG, simulate the emitted netlist cycle-accurately, diff outputs,
    #: and lint the generated Verilog (:mod:`repro.timing.rtlcheck`)
    rtl_check: bool = False


# ------------------------------------------------------------ fault injection

class BrokenRollbackMoveSet(MoveSet):
    """Test-only move set whose victim move cannot be rolled back cleanly.

    From the *arm_at*-th application of the victim move onward, the victim
    additionally toggles one operand-swap flag with the binding's write
    journal detached, so ``Binding.abort_move`` cannot revert it.  The
    binding stays legal — the toggle is an ordinary primitive — but rolling
    the move back leaves it silently different from the pre-move state,
    exactly the journal-bypass class of bug the shadow-state sanitizer
    exists to catch.  Never use outside tests and fuzz fault-injection
    runs.
    """

    def __init__(self, victim: str = "R2", arm_at: int = 1) -> None:
        super().__init__()
        self.victim = victim
        self.arm_at = max(1, int(arm_at))
        self.applications = 0

    def enabled_moves(self):
        table = super().enabled_moves()
        return [(name, self._wrap(fn) if name == self.victim else fn,
                 weight) for name, fn, weight in table]

    def _wrap(self, fn):
        def buggy(binding, rng):
            applied = fn(binding, rng)
            if applied:
                self.applications += 1
                if self.applications >= self.arm_at and \
                        binding.commutative_ops:
                    op = binding.commutative_ops[0]
                    raw = binding._raw_journal
                    binding._raw_journal = None  # hide from abort_move
                    try:
                        binding.set_op_swap(
                            op, not binding.op_swap.get(op, False))
                    finally:
                        binding._raw_journal = raw
            return applied
        return buggy


def _injected_move_set(inject: Optional[str]) -> Optional[MoveSet]:
    if inject is None:
        return None
    if inject == "undo":
        return BrokenRollbackMoveSet()
    raise ValueError(f"unknown fault injection {inject!r}")


# ------------------------------------------------------------- case sampling

def sample_case(stream: SeedStream, index: int,
                config: FuzzConfig) -> FuzzCase:
    """Deterministically derive case *index* of the run."""
    rng = make_rng(stream.child(index, 0))
    n_ops = rng.randrange(config.min_ops, max(config.min_ops,
                                              config.max_ops) + 1)
    cyclic = rng.random() < 0.3
    family = ""
    if rng.random() < config.zoo_fraction:
        family = rng.choice(sorted(ZOO_FAMILIES))
    return FuzzCase(
        family=family,
        index=index,
        seed=stream.child(index, 1),
        n_ops=n_ops,
        n_inputs=rng.randrange(1, 4),
        const_fraction=round(rng.uniform(0.0, 0.4), 3),
        loop_fraction=round(rng.uniform(0.1, 0.3), 3) if cyclic else 0.0,
        scheduler=rng.choice(list(_SCHEDULERS)),
        length_slack=rng.randrange(0, 3),
        extra_registers=rng.randrange(0, 3),
        restarts=rng.randrange(1, 3),
        max_trials=rng.randrange(2, 4),
        moves_per_trial=rng.randrange(60, 161),
        uphill=rng.randrange(0, 7),
        iterations=rng.randrange(2, 5),
    )


def build_problem(case: FuzzCase) -> Tuple[CDFG, Schedule]:
    """Materialize the CDFG and schedule of a case (clamped to validity).

    Clamping (rather than raising) keeps every shrunk parameter vector
    buildable, so the shrinker can explore aggressively.
    """
    n_ops = max(2, case.n_ops)
    if case.family:
        # structured case: the zoo scenario fixes graph and hardware spec;
        # scenario_for_fuzz clamps n_ops onto valid family parameters so
        # every shrunk size stays buildable
        scenario = scenario_for_fuzz(case.family, n_ops, case.seed)
        graph = scenario.build()
        spec = scenario.spec()
    else:
        n_inputs = max(1, min(case.n_inputs, n_ops))
        loop_fraction = case.loop_fraction
        if loop_fraction > 0:
            n_loop = min(max(1, round(n_ops * loop_fraction)), n_ops // 2)
            if n_loop + n_inputs > n_ops - n_loop:
                loop_fraction = 0.0  # the loop head/tail would not fit
        graph = random_cdfg(n_ops=n_ops, n_inputs=n_inputs,
                            const_fraction=case.const_fraction,
                            loop_fraction=loop_fraction, seed=case.seed,
                            name=f"fuzz{case.index}")
        spec = HardwareSpec.non_pipelined()
    if case.scheduler == "asap":
        schedule = schedule_graph(graph, spec, None, method="list")
    elif case.scheduler == "fds":
        from repro.sched.asap import asap_length
        length = asap_length(graph, spec) + case.length_slack
        schedule = schedule_graph(graph, spec, length, method="fds")
    else:
        from repro.sched.asap import asap_length
        length = asap_length(graph, spec) + case.length_slack
        schedule = schedule_graph(graph, spec, length, method="list")
    return graph, schedule


# --------------------------------------------------------------- case replay

def _improve_config(case: FuzzCase, sanitize_every: int,
                    move_set: Optional[MoveSet],
                    restore_churn: int = 0) -> ImproveConfig:
    config = ImproveConfig(
        max_trials=max(1, case.max_trials),
        moves_per_trial=max(1, case.moves_per_trial),
        uphill_per_trial=max(0, case.uphill),
        idle_trials_stop=2,
        sanitize=True,
        sanitize_every=max(1, sanitize_every),
        restore_churn=max(0, restore_churn))
    if move_set is not None:
        config = replace(config, move_set=move_set)
    return config


def _check_invariants(case: FuzzCase, trad: AllocationResult,
                      salsa: AllocationResult,
                      sanitize_every: int) -> None:
    # warm-started improvement never ends worse than its start
    warm = salsa_from_traditional(
        trad, config=_improve_config(case, sanitize_every, None),
        seed=case.seed)
    if warm.cost.total > trad.cost.total + 1e-9:
        raise AssertionError(
            f"warm-started improvement worsened cost: {trad.cost.total} "
            f"-> {warm.cost.total}")

    for result in (trad, salsa):
        # mux merging must never increase mux cost or instance count
        report = merge_muxes(build_netlist(result.binding))
        if report.after_eq21 > report.before_eq21 or \
                report.after_instances > report.before_instances:
            raise AssertionError(
                f"mux merge increased cost on {result.label}: {report}")

    # pass-through removal round-trips: unbind + abort restores everything
    binding = salsa.binding
    for key in sorted(binding.pt_impl):
        before_cost = binding.cost()
        before_state = binding.clone_state()
        before_derived = binding.derived_snapshot()
        binding.begin_move()
        binding.set_pt(key[0], key[1], key[2], None)
        binding.flush()
        binding.abort_move()
        if binding.cost() != before_cost or \
                binding.clone_state() != before_state or \
                binding.derived_snapshot() != before_derived:
            raise AssertionError(
                f"pass-through removal did not round-trip for {key}")


def run_case(case: FuzzCase,
             inject: Optional[str] = None,
             sanitize_every: int = 8,
             restore_churn: int = 0,
             rtl_check: bool = False) -> Optional[FuzzFailure]:
    """Replay one case; ``None`` on success, the failure otherwise."""
    stage = "generate"
    try:
        _graph, schedule = build_problem(case)
        registers = schedule.min_registers() + max(0, case.extra_registers)

        stage = "traditional"
        trad = TraditionalAllocator(
            seed=case.seed, restarts=max(1, case.restarts),
            config=_improve_config(
                case, sanitize_every, None,
                restore_churn=restore_churn)).allocate(
                schedule.graph, schedule=schedule, registers=registers)
        stage = "traditional-simulate"
        verify_binding(trad.binding, iterations=max(1, case.iterations),
                       seed=case.seed)

        stage = "salsa"
        salsa = SalsaAllocator(
            seed=case.seed, restarts=max(1, case.restarts),
            config=_improve_config(
                case, sanitize_every, _injected_move_set(inject),
                restore_churn=restore_churn)).allocate(
                schedule.graph, schedule=schedule, registers=registers)
        stage = "salsa-simulate"
        verify_binding(salsa.binding, iterations=max(1, case.iterations),
                       seed=case.seed)

        if rtl_check:
            stage = "rtl-roundtrip"
            # deferred: repro.timing.rtlcheck reaches back into the bench
            # scenario machinery this module also imports
            from repro.timing.rtlcheck import roundtrip_binding
            report = roundtrip_binding(
                salsa.binding, name=_case_brief(case),
                family=case.family, iterations=max(1, case.iterations),
                seed=case.seed)
            if not report.ok:
                raise AssertionError(str(report))

        stage = "invariants"
        _check_invariants(case, trad, salsa, sanitize_every)
    except Exception as exc:  # noqa: BLE001 - the fuzzer traps everything
        return FuzzFailure(case=case, stage=stage,
                           exc_type=type(exc).__name__, message=str(exc))
    return None


# ----------------------------------------------------------------- the loop

@dataclass
class FuzzReport:
    """Everything one fuzzing run produced."""

    config: FuzzConfig
    cases_run: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    corpus: Corpus = field(default_factory=Corpus)
    shrinks: Dict[str, ShrinkResult] = field(default_factory=dict)
    new_buckets: List[str] = field(default_factory=list)
    elapsed: float = 0.0
    reproducer_paths: List[str] = field(default_factory=list)

    def summary(self) -> str:
        """Deterministic run summary (wall-clock intentionally excluded)."""
        lines = [f"fuzz: {self.cases_run} case(s) run, "
                 f"{len(self.failures)} failure(s), "
                 f"{len(self.corpus)} bucket(s), "
                 f"{len(self.new_buckets)} new"]
        lines.append(self.corpus.summary())
        for signature in sorted(self.shrinks):
            shrunk = self.shrinks[signature]
            lines.append(
                f"  shrunk {signature}: {shrunk.reductions} reduction(s) "
                f"in {shrunk.attempts} replay(s) -> "
                f"{_case_brief(shrunk.case)}")
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        """0 when clean or all failures are known buckets, 1 otherwise."""
        return 1 if self.new_buckets else 0


def _case_brief(case: FuzzCase) -> str:
    shape = f"zoo:{case.family}" if case.family else "random"
    return (f"case(index={case.index}, {shape}, ops={case.n_ops}, "
            f"sched={case.scheduler}, restarts={case.restarts}, "
            f"trials={case.max_trials}x{case.moves_per_trial})")


def run_fuzz(config: FuzzConfig,
             progress=None) -> FuzzReport:
    """Run the fuzzing loop until the case or time budget is exhausted."""
    started = time.perf_counter()
    report = FuzzReport(config=config)
    stream = SeedStream(config.seed)
    max_cases = config.max_cases
    if max_cases is None and config.budget_seconds is None:
        max_cases = 20  # neither budget given: bounded default

    index = 0
    while True:
        if max_cases is not None and index >= max_cases:
            break
        if config.budget_seconds is not None and \
                time.perf_counter() - started >= config.budget_seconds:
            break
        case = sample_case(stream, index, config)
        index += 1
        report.cases_run += 1
        failure = run_case(case, inject=config.inject,
                           sanitize_every=config.sanitize_every,
                           restore_churn=config.restore_churn,
                           rtl_check=config.rtl_check)
        if progress is not None:
            progress(case, failure)
        if failure is None:
            continue
        report.failures.append(failure)
        shrunk_dict: Optional[Dict[str, Any]] = None
        if config.shrink:
            target = failure.signature

            def replay(candidate: FuzzCase) -> Optional[str]:
                result = run_case(candidate, inject=config.inject,
                                  sanitize_every=config.sanitize_every,
                                  restore_churn=config.restore_churn,
                                  rtl_check=config.rtl_check)
                return None if result is None else result.signature

            shrunk = shrink_case(failure.case, target, replay,
                                 max_attempts=config.shrink_attempts)
            report.shrinks[target] = shrunk
            shrunk_dict = shrunk.case.to_dict()
        report.corpus.add(failure.signature, failure.stage,
                          failure.exc_type, failure.message,
                          failure.case.to_dict(), shrunk=shrunk_dict)

    known = Corpus.known_signatures(config.known_buckets)
    report.new_buckets = report.corpus.new_signatures(known)
    if config.out_dir is not None:
        report.reproducer_paths = report.corpus.write_reproducers(
            config.out_dir, inject=config.inject,
            sanitize_every=config.sanitize_every)
    report.elapsed = time.perf_counter() - started
    return report
