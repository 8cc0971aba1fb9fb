"""Inputs and measurement loops of the four benchmark workloads.

Every input is a pure function of the run's ``--seed``; the program under
test receives only the generated CDFGs, schedules and request bodies.

* ``zoo-pipeline``  — the nine zoo families through schedule → SALSA
  (sweep fast budget, 2 restarts) → checker → STA → encode, one round of
  fresh scenario seeds after another.  Polish does most of the work here
  and the service none.
* ``search-hotloop`` — ``improve()`` with polish off and a move budget
  that is always spent, on EWF, DCT, ``fir`` and ``fanout``: propose,
  evaluate, rollback, restore and clone do nearly all the work.
* ``service-miss``  — distinct embedded zoo bodies against a served
  ``repro.service`` subprocess (process workers), 2 closed-loop clients:
  every request pays decode, key, cache miss, queue, search, encode and
  cache write.
* ``service-hit``   — a prefilled set of bodies re-issued by the same
  clients: every request is a cache hit, so HTTP transport, decode, key
  hashing and response encoding do all the work.

Each loop measures until ``--seconds`` have passed *and* its minimum
sample count is reached, so every run reports the same percentiles.
Output checks run outside the timed regions.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import math
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.alloc.checker import check_binding
from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.bench.runner import FAST_BUDGET
from repro.bench.zoo import FAMILIES, Scenario
from repro.core import ImproveConfig, SalsaAllocator
from repro.core.improve import improve
from repro.core.initial import initial_allocation
from repro.datapath.simulate import verify_binding
from repro.datapath.units import HardwareSpec, make_registers
from repro.io.json_io import (binding_from_json, binding_to_dict,
                              canonical_dumps, cdfg_to_dict, spec_to_dict)
from repro.rng import SeedStream
from repro.sched.asap import asap_length
from repro.sched.explore import schedule_graph
from repro.timing.sta import analyze_binding

import spans as sp

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("zoo-pipeline", "search-hotloop", "service-miss",
             "service-hit")

FAMILY_ORDER = tuple(sorted(FAMILIES, key=lambda name: FAMILIES[name].fid))

#: seed-stream paths, one per independent input stream
_ZOO, _HOT_SCENARIO, _HOT_SEARCH, _MISS, _HIT, _WARMUP = range(1, 7)

#: zoo-pipeline: restarts per allocation (the sweep's default)
ZOO_RESTARTS = 2
#: search-hotloop budget: 3 trials x 600 moves, idle stop out of reach
HOT_TRIALS, HOT_MOVES = 3, 600
#: search-hotloop problems: (name, schedule length or None for the zoo
#: family's own slack); EWF/DCT at the paper's design points
HOT_PROBLEMS = (("ewf", 19), ("dct", 10), ("fir", None), ("fanout", None))
#: service body budget: the service load generator's fast budget
SERVICE_IMPROVE = {"max_trials": 2, "moves_per_trial": 120}
#: the closed loop's client threads (one generator process)
CLIENTS = 2
#: service loops pause this often, with the server idle, to read the
#: host's speed (:func:`calibrated_loop`)
SEGMENT_S = 2.0
#: sampling period of the per-phase timers in traced runs
PROFILE_EVERY = 16
#: no measurement loop runs longer than this, whatever its minimum
HARD_CAP_S = 120.0
#: reference time of one :func:`calibration_ms` pass: about the median
#: pass of a library run, so that its scaled values stay near its raw ones
CAL_REF_MS = 4.4



@dataclass(frozen=True)
class Sizes:
    """The least work one run does, whatever ``--seconds`` says."""

    #: one zoo-pipeline round: a scenario of each family, in this order
    families: Tuple[str, ...] = FAMILY_ORDER
    #: zoo-pipeline rounds always run, summed into quality_cost_sum
    zoo_rounds: int = 3
    #: search-hotloop calls and service requests: p90 needs 100 samples
    #: (10 beyond it); the hotloop's quality_cost_sum sums the first ones
    min_calls: int = sp.min_samples_for(90)
    #: service-miss replies summed into quality_cost_sum
    miss_quality: int = 2 * len(FAMILY_ORDER)
    #: service-hit: distinct bodies prefilled and then re-issued
    hit_bodies: int = 12
    #: set-up repetitions whose median is ``setup_s``
    setup_repeats: int = 3


FULL = Sizes()
#: seconds-long sizes for the benchmark's own smoke tests (``--quick``)
QUICK = Sizes(families=("loopy", "fanout"), zoo_rounds=1, min_calls=4,
              miss_quality=2, hit_bodies=2, setup_repeats=1)

#: modules each library workload imports (timed by the set-up probe)
_LIBRARY_IMPORTS = ("repro.bench", "repro.core", "repro.sched.explore",
                    "repro.alloc.checker", "repro.timing.sta",
                    "repro.io.json_io")


# ------------------------------------------------------------------ inputs

def zoo_round(seed: int, round_index: int,
              families: Sequence[str] = FAMILY_ORDER) -> List[Scenario]:
    """Round *round_index*: one fresh scenario per family."""
    stream = SeedStream(seed).split(_ZOO)
    return [Scenario.make(family,
                          seed=stream.child(round_index,
                                            FAMILY_ORDER.index(family)))
            for family in families]


@dataclass
class Problem:
    """A scheduled search-hotloop problem."""

    name: str
    schedule: Any
    fus: List[Any]
    regs: List[Any]


def hotloop_problems(seed: int) -> List[Problem]:
    stream = SeedStream(seed).split(_HOT_SCENARIO)
    spec = HardwareSpec.non_pipelined()
    problems = []
    for index, (name, length) in enumerate(HOT_PROBLEMS):
        if name == "ewf":
            graph, pspec, extra = elliptic_wave_filter(), spec, 1
        elif name == "dct":
            graph, pspec, extra = discrete_cosine_transform(), spec, 1
        else:
            scenario = Scenario.make(name, seed=stream.child(index))
            graph, pspec = scenario.build(), scenario.spec()
            extra = scenario.definition.extra_registers
            length = asap_length(graph, pspec) + \
                scenario.definition.length_slack
        schedule = schedule_graph(graph, pspec, length, label=name)
        problems.append(Problem(
            name, schedule, pspec.make_fus(schedule.min_fus()),
            make_registers(schedule.min_registers() + extra)))
    return problems


def hotloop_config(seed: int, call: int, profile_every: int = 0) \
        -> ImproveConfig:
    return ImproveConfig(
        max_trials=HOT_TRIALS, moves_per_trial=HOT_MOVES,
        idle_trials_stop=HOT_TRIALS + 1, polish_trials=False,
        seed=SeedStream(seed).split(_HOT_SEARCH).child(call),
        profile_every=profile_every)


def service_body(seed: int, stream_id: int, index: int) -> Dict[str, Any]:
    """Body *index*: an embedded zoo scenario, families cycled in order."""
    stream = SeedStream(seed).split(stream_id)
    family = FAMILY_ORDER[index % len(FAMILY_ORDER)]
    scenario = Scenario.make(family, seed=stream.child(index, 0))
    return {"cdfg": cdfg_to_dict(scenario.build()),
            "spec": spec_to_dict(scenario.spec()),
            "seed": stream.child(index, 1) % (1 << 31),
            "restarts": 1,
            "improve": dict(SERVICE_IMPROVE)}


def encode_body(body: Dict[str, Any]) -> bytes:
    return json.dumps(body, sort_keys=True).encode("utf-8")


# ------------------------------------------------------------ measurement

@dataclass
class Op:
    """One measured operation (an allocation, an improve() call or an
    HTTP request) and what its checks found."""

    label: str
    ms: float
    moves: int = 0
    cost: float = 0.0
    failure: Optional[str] = None
    root_span: int = -1
    stats: List[Any] = field(default_factory=list)
    #: how much slower than the reference the host ran around this op
    #: (:func:`attach_slowdowns`, :func:`calibrated_loop`)
    slowdown: float = 1.0


@dataclass
class Measurement:
    """Everything one workload phase produced."""

    workload: str
    ops: List[Op] = field(default_factory=list)
    #: how many ops, from the first, the latency percentiles cover (0: all)
    percentile_ops: int = 0
    #: set-up seconds, scaled by the host slowdown around each step, and raw
    setup_s: float = 0.0
    setup_raw_s: float = 0.0
    #: services: (wall seconds, host slowdown) of each loop segment
    segments: List[Tuple[float, float]] = field(default_factory=list)
    #: search moves behind ``moves_per_s``, and their search seconds when
    #: these are not the loop's (service-hit: the prefill)
    search_moves: int = 0
    search_wall_s: float = 0.0
    quality_cost_sum: float = 0.0
    peak_rss_mb: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: checked operations outside ``ops`` (re-runs, the prefill)
    extra_attempted: int = 0
    spans: List[list] = field(default_factory=list)
    #: service extras: /metricsz before/after the loop, healthz probes,
    #: per-request client latency keyed by request id, loop window
    metricsz: Dict[str, Any] = field(default_factory=dict)
    healthz_ms: List[float] = field(default_factory=list)
    latency_by_id: Dict[str, float] = field(default_factory=dict)
    window_ns: Tuple[int, int] = (0, 0)
    #: :func:`calibration_ms` passes: one before each op, one at the end
    calibration: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.extra_attempted

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failure) + \
            len(self.failures)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _span(tracer: Optional[sp.Tracer], name: str,
          request_id: Optional[str] = None):
    return tracer.span(name, request_id) if tracer is not None \
        else nullcontext()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_probe(modules: Sequence[str]) -> None:
    """Spawn an interpreter that imports *modules*, and wait for it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "".join(f"import {name}\n" for name in modules)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def calibration_ms() -> float:
    """One pass of a fixed pure-Python loop (dict, list, str, sort), in
    milliseconds of this thread's CPU time.

    The loop is the benchmark's own code and runs with the garbage
    collector off, so it never pays for collecting objects the program
    keeps alive or leaves behind: no change to the program moves it,
    while its time tracks the host's speed (shared hosts run it in modes
    20-40% apart that last seconds to minutes).  CPU time leaves out any
    moment the pass waits to be scheduled.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time_ns()
        table: Dict[int, int] = {}
        items = []
        for i in range(6000):
            key = i & 127
            table[key] = table.get(key, 0) + i
            items.append((str(key), i))
        items.sort()
        return (time.thread_time_ns() - started) / 1e6
    finally:
        if collecting:
            gc.enable()


def attach_slowdowns(m: Measurement) -> None:
    """Take the closing calibration pass, then give each op the host's
    slowdown around it: the geometric mean of the passes just before and
    just after it, over ``CAL_REF_MS``."""
    m.calibration.append(calibration_ms())
    for op, before, after in zip(m.ops, m.calibration, m.calibration[1:]):
        op.slowdown = math.sqrt(before * after) / CAL_REF_MS


def _verify(binding: Any) -> Optional[str]:
    """Legality and functional checks of one binding (None when clean)."""
    violations = check_binding(binding)
    if violations:
        return f"{len(violations)} checker violation(s): {violations[0]}"
    try:
        verify_binding(binding)
    except Exception as exc:  # the check's verdict, not a crash
        return f"functional mismatch: {exc}"
    return None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------ zoo-pipeline

def _pipeline(scenario: Scenario, graph: Any, config: ImproveConfig,
              tracer: Optional[sp.Tracer]) -> Tuple[Op, Any, str]:
    """CDFG in, checked and encoded binding out (the timed region)."""
    spec = scenario.spec()
    definition = scenario.definition
    root = -1
    started = time.perf_counter_ns()
    with _span(tracer, "pipeline.alloc", scenario.name) as root:
        with _span(tracer, "sched.schedule"):
            length = asap_length(graph, spec) + definition.length_slack
            schedule = schedule_graph(graph, spec, length=length,
                                      method="list", label=scenario.name)
        allocator = SalsaAllocator(
            seed=SeedStream(scenario.seed).child(definition.fid, 0xB),
            restarts=ZOO_RESTARTS, config=config)
        with _span(tracer, "core.allocate"):
            result = allocator.allocate(
                graph, schedule=schedule, spec=spec,
                registers=schedule.min_registers()
                + definition.extra_registers)
        with _span(tracer, "alloc.check"):
            violations = check_binding(result.binding)
        with _span(tracer, "timing.sta"):
            analyze_binding(result.binding)
        with _span(tracer, "io.encode"):
            document = canonical_dumps(binding_to_dict(result.binding))
    elapsed_ms = (time.perf_counter_ns() - started) / 1e6
    op = Op(scenario.family, elapsed_ms,
            moves=sum(s.moves_attempted for s in result.stats),
            cost=result.cost.total, root_span=root if tracer else -1,
            stats=list(result.stats))
    if violations:
        op.failure = f"{scenario.name}: {len(violations)} violation(s)"
    return op, result.binding, document


def _library_setup(make_inputs: Callable[[], Any],
                   warm_up: Callable[[Any], None],
                   repeats: int) -> Tuple[float, float, Any]:
    """Median import probe + median (input generation + one warm-up op),
    in raw and in scaled seconds, and the inputs."""
    def prepare() -> Any:
        inputs = make_inputs()
        warm_up(inputs)
        return inputs

    imports = [scaled_step(lambda: _import_probe(_LIBRARY_IMPORTS))
               for _ in range(repeats)]
    prepares = [scaled_step(prepare) for _ in range(repeats)]
    raw, scaled = (statistics.median(step[k] for step in imports)
                   + statistics.median(step[k] for step in prepares)
                   for k in (0, 1))
    return raw, scaled, prepares[-1][2]


def run_zoo(seed: int, seconds: float, tracer: Optional[sp.Tracer],
            sizes: Sizes = FULL, do_setup: bool = True) -> Measurement:
    # the percentiles cover the rounds every run completes, so that every
    # run takes them over the same family mix
    m = Measurement("zoo-pipeline",
                    percentile_ops=sizes.zoo_rounds * len(sizes.families))
    config = replace(FAST_BUDGET, profile_every=PROFILE_EVERY) \
        if tracer is not None else FAST_BUDGET
    if do_setup:
        warm = Scenario.make("fanout",
                             seed=SeedStream(seed).child(_WARMUP))

        def warm_up(_inputs: Any) -> None:
            _pipeline(warm, warm.build(), config, None)

        m.setup_raw_s, m.setup_s, _ = _library_setup(
            lambda: zoo_round(seed, 0, sizes.families), warm_up,
            sizes.setup_repeats)
    started = time.perf_counter()
    first_round: Dict[str, str] = {}
    round_index = 0
    while (round_index < sizes.zoo_rounds
           or time.perf_counter() - started < seconds) \
            and time.perf_counter() - started < HARD_CAP_S:
        scenarios = zoo_round(seed, round_index, sizes.families)
        for scenario in scenarios:
            graph = scenario.build()
            m.calibration.append(calibration_ms())
            try:
                op, binding, document = _pipeline(scenario, graph, config,
                                                  tracer)
            except Exception as exc:  # counted, not fatal
                m.ops.append(Op(scenario.family, 0.0,
                                failure=f"{scenario.name}: {exc!r}"))
                continue
            problem = _verify(binding)
            if problem and not op.failure:
                op.failure = f"{scenario.name}: {problem}"
            m.ops.append(op)
            if round_index < sizes.zoo_rounds:
                m.quality_cost_sum += op.cost
            if round_index == 0:
                first_round[scenario.name] = _digest(document)
        round_index += 1
    attach_slowdowns(m)
    # determinism: the round-0 scenario re-run (untimed) must reproduce
    # its binding byte for byte
    replay = zoo_round(seed, 0, sizes.families)[-1]
    m.extra_attempted += 1
    _op, _binding, document = _pipeline(replay, replay.build(),
                                        FAST_BUDGET, None)
    if replay.name in first_round and \
            _digest(document) != first_round[replay.name]:
        m.fail(f"{replay.name}: re-run produced a different binding")
    m.peak_rss_mb = _self_rss_mb()
    return m


# ---------------------------------------------------------- search-hotloop

def _hot_call(problem: Problem, config: ImproveConfig,
              tracer: Optional[sp.Tracer]) -> Tuple[Op, Any]:
    binding = initial_allocation(problem.schedule, problem.fus,
                                 problem.regs)
    root = -1
    started = time.perf_counter_ns()
    with _span(tracer, "core.improve", problem.name) as root:
        stats = improve(binding, config)
    elapsed_ms = (time.perf_counter_ns() - started) / 1e6
    op = Op(problem.name, elapsed_ms, moves=stats.moves_attempted,
            cost=stats.final_cost.total, root_span=root if tracer else -1,
            stats=[stats])
    expected = HOT_TRIALS * HOT_MOVES
    if stats.moves_attempted != expected:
        op.failure = (f"{problem.name}: {stats.moves_attempted} moves, "
                      f"budget {expected}")
    return op, binding


def run_hotloop(seed: int, seconds: float, tracer: Optional[sp.Tracer],
                sizes: Sizes = FULL, do_setup: bool = True) -> Measurement:
    m = Measurement("search-hotloop")
    profile_every = PROFILE_EVERY if tracer is not None else 0
    if do_setup:
        def warm_up(problems: List[Problem]) -> None:
            _hot_call(problems[0], hotloop_config(
                SeedStream(seed).child(_WARMUP), 0), None)

        m.setup_raw_s, m.setup_s, problems = _library_setup(
            lambda: hotloop_problems(seed), warm_up, sizes.setup_repeats)
    else:
        problems = hotloop_problems(seed)
    minimum = sizes.min_calls
    started = time.perf_counter()
    first: Optional[Tuple[int, str]] = None
    call = 0
    while (call < minimum or time.perf_counter() - started < seconds) \
            and time.perf_counter() - started < HARD_CAP_S:
        problem = problems[call % len(problems)]
        m.calibration.append(calibration_ms())
        try:
            op, binding = _hot_call(
                problem, hotloop_config(seed, call, profile_every), tracer)
        except Exception as exc:  # counted, not fatal
            m.ops.append(Op(problem.name, 0.0, failure=repr(exc)))
            call += 1
            continue
        problem_note = _verify(binding)
        if problem_note and not op.failure:
            op.failure = f"{problem.name} call {call}: {problem_note}"
        if first is None:
            first = (call, _digest(canonical_dumps(binding_to_dict(binding))))
        m.ops.append(op)
        call += 1
    attach_slowdowns(m)
    m.quality_cost_sum = sum(
        op.cost for op in m.ops[:sizes.min_calls])
    if first is not None:
        m.extra_attempted += 1
        index, digest = first
        _op, binding = _hot_call(problems[index % len(problems)],
                                 hotloop_config(seed, index), None)
        if _digest(canonical_dumps(binding_to_dict(binding))) != digest:
            m.fail(f"hotloop call {index}: re-run produced a different "
                   f"binding")
    m.peak_rss_mb = _self_rss_mb()
    return m


# ---------------------------------------------------------------- service

def _read_status_kb(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _descendants(pid: int) -> List[int]:
    found: List[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children",
                          "r", encoding="ascii") as handle:
                    kids = [int(text) for text in handle.read().split()]
            except OSError:
                continue
            found.extend(kids)
            pending.extend(kids)
    return found


class Server:
    """One ``repro.service`` server subprocess started through serve.py."""

    def __init__(self, workdir: str, trace_out: Optional[str] = None) \
            -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
        self.log_path = os.path.join(self.cache_dir, "server.log")
        command = [sys.executable, "-u", os.path.join(HERE, "serve.py"),
                   "--cache-dir", self.cache_dir]
        if trace_out:
            command += ["--trace-out", trace_out]
        # TMPDIR keeps the job manager's stop-flag directory inside the
        # checkout; a new session lets stop() reach the pool workers too
        env = dict(os.environ, TMPDIR=workdir)
        started = time.perf_counter()
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env, text=True,
                                     start_new_session=True)
        try:
            self.port = self._read_port(deadline=started + 60.0)
            self._wait_healthy(deadline=started + 60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        assert self.proc.stdout is not None
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline
                                            - time.perf_counter()))
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                break
            marker = "listening on http://127.0.0.1:"
            if marker in line:
                return int(line.split(marker, 1)[1].split()[0])
        raise RuntimeError(f"server did not start: {self.log_tail()}")

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _raw, _ms = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"server never became healthy: "
                           f"{self.log_tail()}")

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "r", encoding="utf-8") as handle:
                return handle.read()[-2000:]
        except OSError:
            return ""

    def request(self, method: str, path: str, body: Optional[bytes] = None,
                request_id: Optional[str] = None) \
            -> Tuple[int, bytes, float]:
        """One request on a fresh connection, as the service's own client
        (urllib) makes it; returns (status, body, latency ms)."""
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=120)
        try:
            started = time.perf_counter_ns()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            elapsed_ms = (time.perf_counter_ns() - started) / 1e6
            return response.status, raw, elapsed_ms
        finally:
            connection.close()

    def metricsz(self) -> Dict[str, Any]:
        status, raw, _ = self.request("GET", "/metricsz")
        if status != 200:
            raise RuntimeError(f"/metricsz answered {status}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid] + _descendants(self.proc.pid)
        return sum(_read_status_kb(pid, "VmHWM") for pid in pids) / 1024.0

    def _group_alive(self) -> bool:
        try:
            os.killpg(self.proc.pid, 0)
        except ProcessLookupError:
            return False
        return True

    def stop(self) -> None:
        """Stop the server and its pool workers, and wait for all."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        # the pool workers share the server's session: give them a moment
        # to finish exiting, then kill whatever is left
        deadline = time.perf_counter() + 10.0
        while self._group_alive() and time.perf_counter() < deadline:
            if time.perf_counter() > deadline - 8.0:
                with suppress(ProcessLookupError):
                    os.killpg(self.proc.pid, signal.SIGKILL)
            time.sleep(0.02)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def _start_server(workdir: str, trace_out: Optional[str],
                  repeats: int) -> Tuple[Server, float, float]:
    """Median of *repeats* spawn-to-healthy times, raw and scaled; keeps
    the last server."""
    steps = []
    for attempt in range(repeats):
        last = attempt == repeats - 1
        steps.append(scaled_step(
            lambda: Server(workdir, trace_out if last else None)))
        if not last:
            steps[-1][2].stop()
    return (steps[-1][2], statistics.median(step[0] for step in steps),
            statistics.median(step[1] for step in steps))


@dataclass
class _Reply:
    index: int
    request_id: str
    status: int
    raw: bytes
    ms: float
    error: Optional[str] = None
    slowdown: float = 1.0


def closed_loop(server: Server, bodies: Callable[[int], bytes],
                seconds: float, minimum: int, first: int = 0,
                maximum: Optional[int] = None, clients: int = CLIENTS) \
        -> Tuple[List[_Reply], float, Tuple[int, int]]:
    """Each client sends its next body when its previous reply is in.

    Each request opens a fresh connection, like the service's own client.
    (On a kept-alive connection every reply stalls about 40 ms: the server
    writes headers and body separately, and Nagle's algorithm holds the
    body until the client's delayed ACK.)  Runs until *seconds* have
    passed and at least *minimum* requests were issued, or *maximum*
    were, numbering them from *first*; returns the replies in issue
    order, the wall seconds and the perf_counter_ns window of the loop.
    """
    lock = threading.Lock()
    replies: List[_Reply] = []
    counter = [first]
    started = time.perf_counter()

    def client() -> None:
        while True:
            elapsed = time.perf_counter() - started
            with lock:
                index = counter[0]
                issued = index - first
                if (elapsed >= seconds and issued >= minimum) or \
                        (maximum is not None and issued >= maximum) or \
                        elapsed >= HARD_CAP_S:
                    return
                counter[0] += 1
            body = bodies(index)
            request_id = f"r{index}"
            try:
                status, raw, ms = server.request("POST", "/allocate", body,
                                                 request_id)
                reply = _Reply(index, request_id, status, raw, ms)
            except (OSError, http.client.HTTPException) as exc:
                reply = _Reply(index, request_id, 0, b"", 0.0, repr(exc))
            with lock:
                replies.append(reply)

    window_start = time.perf_counter_ns()
    threads = [threading.Thread(target=client, name=f"client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    window = (window_start, time.perf_counter_ns())
    replies.sort(key=lambda reply: reply.index)
    return replies, time.perf_counter() - started, window


def host_slowdown() -> float:
    """How much slower than the reference the CPUs this process may use
    run now: the median of three calibration passes pinned to each CPU in
    turn, averaged over the CPUs, over ``CAL_REF_MS``."""
    cpus = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(statistics.median(
                calibration_ms() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(readings) / CAL_REF_MS


def scaled_step(step: Callable[[], Any]) -> Tuple[float, float, Any]:
    """Run one set-up step: its wall seconds, the same divided by the
    host slowdown around it (:func:`host_slowdown` before and after),
    and its result."""
    before = host_slowdown()
    started = time.perf_counter()
    result = step()
    elapsed = time.perf_counter() - started
    return elapsed, elapsed / math.sqrt(before * host_slowdown()), result


def calibrated_loop(m: Measurement, server: Server,
                    bodies: Callable[[int], bytes], seconds: float,
                    minimum: int) -> List[_Reply]:
    """:func:`closed_loop` in segments of ``SEGMENT_S``.

    Between segments every reply is in, so the server and its pool are
    idle while :func:`host_slowdown` reads the host's speed.  Each reply
    gets the geometric mean of the readings before and after its
    segment; ``m.segments`` and ``m.window_ns`` are filled in.  Segments
    stop at *minimum* replies once, and ``m.peak_rss_mb`` is read there:
    read at the end, it grew with the replies a faster host served.
    """
    replies: List[_Reply] = []
    started = time.perf_counter()
    window_start = time.perf_counter_ns()
    before = host_slowdown()
    while (len(replies) < minimum
           or time.perf_counter() - started < seconds) \
            and time.perf_counter() - started < HARD_CAP_S:
        short = len(replies) < minimum
        part, wall_s, _window = closed_loop(
            server, bodies, min(SEGMENT_S, seconds), 1 if short else 0,
            first=len(replies),
            maximum=minimum - len(replies) if short else None)
        after = host_slowdown()
        slowdown = math.sqrt(before * after)
        for reply in part:
            reply.slowdown = slowdown
        replies += part
        m.segments.append((wall_s, slowdown))
        before = after
        if short and len(replies) >= minimum:
            m.peak_rss_mb = server.peak_rss_mb()
    m.window_ns = (window_start, time.perf_counter_ns())
    return replies


def _reply_payload(reply: _Reply) -> Tuple[Optional[Dict[str, Any]],
                                           Optional[str]]:
    if reply.error is not None:
        return None, reply.error
    if reply.status != 200:
        return None, f"HTTP {reply.status}: {reply.raw[:200]!r}"
    try:
        payload = json.loads(reply.raw)
    except ValueError as exc:
        return None, f"bad JSON reply: {exc}"
    if payload.get("status") != "done":
        return payload, f"status {payload.get('status')!r}"
    if payload.get("degraded"):
        return payload, "degraded result"
    return payload, None


def _check_result(result: Dict[str, Any]) -> Optional[str]:
    """Rebuild the served binding; legality, function and cost checks."""
    binding = binding_from_json(json.dumps(result["binding"]))
    problem = _verify(binding)
    if problem:
        return problem
    if abs(binding.cost().total - result["cost"]["total"]) > 1e-9:
        return (f"served cost {result['cost']['total']} but the binding "
                f"costs {binding.cost().total}")
    return None


def _reply_op(reply: _Reply, payload: Optional[Dict[str, Any]],
              failure: Optional[str]) -> Op:
    op = Op(reply.request_id, reply.ms, failure=failure,
            slowdown=reply.slowdown)
    if payload is not None and "result" in payload:
        result = payload["result"]
        op.cost = result["cost"]["total"]
        op.moves = result["telemetry"]["moves_attempted"]
        op.stats = [result["telemetry"]]
    return op


def _finish_service(m: Measurement, server: Server,
                    trace_out: Optional[str]) -> None:
    m.metricsz["after"] = server.metricsz()
    for _ in range(30):
        status, _raw, ms = server.request("GET", "/healthz")
        if status == 200:
            m.healthz_ms.append(ms)
    server.stop()
    if server.proc.returncode != 0:
        m.fail(f"server exited with {server.proc.returncode}: "
               f"{server.log_tail()}")
    if trace_out:
        with open(trace_out, "r", encoding="utf-8") as handle:
            m.spans = json.load(handle)


def run_service_miss(seed: int, seconds: float, workdir: str,
                     traced: bool, sizes: Sizes = FULL) -> Measurement:
    m = Measurement("service-miss")
    trace_out = os.path.join(workdir, "miss-spans.json") if traced else None
    server, m.setup_raw_s, m.setup_s = _start_server(
        workdir, trace_out, sizes.setup_repeats)
    try:
        m.metricsz["before"] = server.metricsz()
        replies = calibrated_loop(
            m, server, lambda i: encode_body(service_body(seed, _MISS, i)),
            seconds, sizes.min_calls)
        m.metricsz["window_end"] = server.metricsz()
    except BaseException:
        server.stop()
        raise
    _finish_service(m, server, trace_out)
    for reply in replies:
        payload, failure = _reply_payload(reply)
        if failure is None and payload is not None:
            if payload.get("cached"):
                failure = "unexpected cache hit on a distinct body"
            else:
                failure = _check_result(payload["result"])
        m.ops.append(_reply_op(reply, payload, failure))
        m.latency_by_id[reply.request_id] = reply.ms
    m.quality_cost_sum = sum(op.cost for op in
                             m.ops[:sizes.miss_quality])
    m.search_moves = sum(op.moves for op in m.ops)
    return m


def run_service_hit(seed: int, seconds: float, workdir: str,
                    traced: bool, sizes: Sizes = FULL) -> Measurement:
    m = Measurement("service-hit")
    trace_out = os.path.join(workdir, "hit-spans.json") if traced else None
    bodies = [encode_body(service_body(seed, _HIT, i))
              for i in range(sizes.hit_bodies)]
    server, spawn_raw_s, spawn_s = _start_server(workdir, trace_out,
                                                 sizes.setup_repeats)
    try:
        # the prefill computes every body once; it is part of set-up
        prefill_raw_s, prefill_s, (prefill, _wall, _window) = scaled_step(
            lambda: closed_loop(server, lambda i: bodies[i], 0.0,
                                sizes.hit_bodies))
        m.setup_raw_s = spawn_raw_s + prefill_raw_s
        m.setup_s = spawn_s + prefill_s
        m.metricsz["before"] = server.metricsz()
        replies = calibrated_loop(
            m, server, lambda i: bodies[i % sizes.hit_bodies], seconds,
            sizes.min_calls)
        m.metricsz["window_end"] = server.metricsz()
    except BaseException:
        server.stop()
        raise
    _finish_service(m, server, trace_out)

    expected: List[Optional[str]] = []
    prefill_ops: List[Op] = []
    for reply in prefill:
        payload, failure = _reply_payload(reply)
        if failure is None and payload is not None:
            failure = _check_result(payload["result"])
        op = _reply_op(reply, payload, failure)
        if op.stats:
            prefill_ops.append(op)
        m.quality_cost_sum += op.cost
        m.search_moves += op.moves
        expected.append(canonical_dumps(payload["result"])
                        if failure is None and payload else None)
        if failure:
            m.fail(f"prefill {reply.request_id}: {failure}")
    # no search runs during the loop: moves_per_s is the workers' search
    # rate while they filled the cache (moves over reported search time)
    m.search_wall_s = sum(op.stats[0]["seconds"] for op in prefill_ops)
    m.extra_attempted += len(prefill)
    first_raw: Dict[int, str] = {}
    for reply in replies:
        body = reply.index % sizes.hit_bodies
        digest = hashlib.sha256(reply.raw).hexdigest()
        failure = None
        if body not in first_raw:
            payload, failure = _reply_payload(reply)
            if failure is None and payload is not None:
                if not payload.get("cached"):
                    failure = "prefilled body was not served from cache"
                elif canonical_dumps(payload["result"]) != expected[body]:
                    failure = "cached result differs from the prefill"
            if failure is None:
                first_raw[body] = digest
        elif digest != first_raw[body]:
            failure = "reply differs from earlier replies for its body"
        m.ops.append(Op(reply.request_id, reply.ms,
                        failure=failure or reply.error,
                        slowdown=reply.slowdown))
        m.latency_by_id[reply.request_id] = reply.ms
    return m


# ------------------------------------------------------------- dispatcher

def make_workdir() -> str:
    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass  # another run still uses it


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: str, sizes: Sizes = FULL,
        do_setup: bool = True) -> Measurement:
    """One measurement phase of *workload*."""
    if workload == "service-miss":
        return run_service_miss(seed, seconds, workdir, traced, sizes)
    if workload == "service-hit":
        return run_service_hit(seed, seconds, workdir, traced, sizes)
    runners = {"zoo-pipeline": run_zoo, "search-hotloop": run_hotloop}
    if workload not in runners:
        raise ValueError(f"unknown workload {workload!r}")
    tracer = _library_tracer() if traced else None
    try:
        m = runners[workload](seed, seconds, tracer, sizes, do_setup)
    finally:
        if tracer is not None:
            tracer.unpatch()
    if tracer is not None:
        m.spans = tracer.export()
    return m


def _library_tracer() -> sp.Tracer:
    """Wrap the library layers' module-level names.

    ``repro.core.improve`` is re-exported as a function by
    ``repro.core``, so the module is reached through ``sys.modules``;
    ``improve`` finds ``polish``, and ``run_restart`` finds
    ``initial_allocation``/``improve``, through their module globals.
    """
    from repro.core import allocator, parallel
    from repro.core.binding import Binding

    tracer = sp.Tracer()
    tracer.patch(sys.modules["repro.core.improve"], "polish", "core.polish")
    tracer.patch(parallel, "initial_allocation", "core.initial")
    tracer.patch(parallel, "improve", "core.improve")
    tracer.patch(allocator, "rebuild_binding", "core.rebuild")
    tracer.patch(allocator, "assert_legal", "alloc.check")
    tracer.patch(Binding, "clone_state", "core.clone_state")
    return tracer
