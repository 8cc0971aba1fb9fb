"""The repository benchmark: one command, four workloads, two modes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zoo-pipeline --seed 0 --seconds 20
    python3 perfbench/run.py --workload service-hit --trace 1
    python3 perfbench/run.py --seconds 20            # all four workloads

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload twice (untraced, then traced, half the
seconds each) and prints the per-layer metrics, the tracing overhead and
the attribution report.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Any failed
operation or check makes the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans as sp  # noqa: E402

#: (name, unit, better) of every end-to-end metric, printed by every
#: untraced run; BENCHMARK.json lists the same names
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("allocs_per_s", "1/s", "higher"),
    ("alloc_ms_p50", "ms", "lower"),
    ("moves_per_s", "1/s", "higher"),
    ("requests_per_s", "1/s", "higher"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_p90", "ms", "lower"),
    ("quality_cost_sum", "cost", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

MOVE_KINDS = ("F1", "F2", "F3", "F4", "F5", "R1", "R2", "R2b", "R3", "R4",
              "R5", "R6")
PHASES = ("propose", "evaluate", "rollback", "restore")
FAMILIES = ("fft", "fir", "iir", "lattice", "loopy", "branchy",
            "multiprec", "longlife", "fanout")


def _per_layer() -> Tuple[Tuple[str, str, str], ...]:
    rows: List[Tuple[str, str, str]] = [
        ("sched.schedule_ms", "ms", "lower"),
        ("core.initial_ms", "ms", "lower"),
        ("core.rebuild_ms", "ms", "lower"),
        ("core.polish_ms", "ms", "lower"),
        ("core.polish_calls", "count", "lower"),
        ("core.polish_share", "ratio", "lower"),
        ("core.loop_ms", "ms", "lower"),
        ("core.loop_moves_per_s", "1/s", "higher"),
    ]
    rows += [(f"core.{phase}_us", "us", "lower") for phase in PHASES]
    rows += [(f"core.phase_us.{phase}_{q}", "us", "lower")
             for phase in PHASES for q in ("p50", "p99")]
    rows += [("core.clone_state_us", "us", "lower"),
             ("core.clone_state_calls", "count", "lower"),
             ("core.apply_ratio", "ratio", "higher"),
             ("core.accept_ratio", "ratio", "higher")]
    rows += [(f"core.accept_ratio.{kind}", "ratio", "higher")
             for kind in MOVE_KINDS]
    rows += [(f"core.polish_share.{family}", "ratio", "lower")
             for family in FAMILIES]
    rows += [(f"core.loop_moves_per_s.{family}", "1/s", "higher")
             for family in FAMILIES]
    rows += [("alloc.check_ms", "ms", "lower"),
             ("timing.sta_ms", "ms", "lower"),
             ("io.encode_ms", "ms", "lower"),
             ("service.decode_ms", "ms", "lower"),
             ("service.key_ms", "ms", "lower"),
             ("service.response_encode_ms", "ms", "lower"),
             ("service.json_parse_ms", "ms", "lower"),
             ("service.cache_get_ms", "ms", "lower"),
             ("service.cache_put_ms", "ms", "lower"),
             ("service.cache_hit_ratio", "ratio", "higher"),
             ("service.queue_wait_ms_p50", "ms", "lower"),
             ("service.queue_wait_ms_p90", "ms", "lower"),
             ("service.job_ms_p50", "ms", "lower")]
    rows += [(f"service.phase_us.{phase}_{q}", "us", "lower")
             for phase in PHASES for q in ("p50", "p99")]
    rows += [("server.transport_ms", "ms", "lower"),
             ("server.healthz_ms", "ms", "lower"),
             ("trace.overhead_frac", "ratio", "lower"),
             ("attrib.covered_share", "ratio", "higher")]
    return tuple(rows)


#: (name, unit, better) of every per-layer metric, printed by every
#: traced run
PER_LAYER = _per_layer()

WORKLOAD_NAMES = ("zoo-pipeline", "search-hotloop", "service-miss",
                  "service-hit")

#: span names that count as a named layer in the coverage report
NAMED_LAYERS = frozenset((
    "sched.schedule", "core.initial", "core.polish", "core.improve",
    "core.rebuild", "core.clone_state", "alloc.check", "timing.sta",
    "io.encode", "service.decode", "service.key", "service.cache_get",
    "service.cache_put", "service.response_encode", "service.json_parse"))


# ------------------------------------------------------------ end to end

def end_to_end(m: Any, raw: bool = False) -> Dict[str, float]:
    """Every end-to-end metric of one untraced measurement.

    Operation times, loop segments and set-up steps are divided by their
    host slowdown unless *raw*; the service-hit prefill's search time
    never is.
    """
    def scaled_ms(op: Any) -> float:
        return op.ms / (1.0 if raw else op.slowdown)

    ok = [op for op in m.ops if not op.failure]
    times = [scaled_ms(op) for op in ok] or [0.0]
    sample = [scaled_ms(op) for op in m.ops[:m.percentile_ops or len(m.ops)]
              if not op.failure] or [0.0]
    if m.workload in ("zoo-pipeline", "search-hotloop"):
        busy_s = sum(times) / 1000.0
        per_s = len(ok) / busy_s if busy_s else 0.0
        moves_per_s = sum(op.moves for op in ok) / busy_s if busy_s else 0.0
    else:
        wall_s = sum(wall / (1.0 if raw else slowdown)
                     for wall, slowdown in m.segments)
        per_s = len(ok) / wall_s if wall_s else 0.0
        search_s = m.search_wall_s or wall_s
        moves_per_s = m.search_moves / search_s if search_s else 0.0
    p90 = sp.percentile(sample, 90)
    if p90 is None:
        # zoo-pipeline runs a few dozen allocations: the p90 there is the
        # plain order statistic (README, "End-to-end metrics")
        p90 = sp.order_statistic(sample, 90)
    median = statistics.median(sample)
    return {
        "setup_s": m.setup_raw_s if raw else m.setup_s,
        "allocs_per_s": per_s,
        "alloc_ms_p50": median,
        "moves_per_s": moves_per_s,
        "requests_per_s": per_s,
        "latency_ms_p50": median,
        "latency_ms_p90": p90,
        "quality_cost_sum": m.quality_cost_sum,
        "peak_rss_mb": m.peak_rss_mb,
    }


# ------------------------------------------------------------- per layer

def _counters(stats: Any) -> Tuple[Dict[str, Dict[str, int]],
                                   Dict[str, int], Dict[str, int]]:
    """(per-move counters, phase ns, phase samples) of an ImproveStats or
    of a service response's telemetry dict."""
    if isinstance(stats, dict):
        return (stats.get("per_move", {}), stats.get("phase_ns", {}),
                stats.get("phase_samples", {}))
    return ({name: c.to_dict() for name, c in stats.per_move.items()},
            stats.phase_ns, stats.phase_samples)


def _histogram_quantile(values: Sequence[float], q: float) -> float:
    """The estimator ``/metricsz`` histograms use (nearest index)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1,
                max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def search_metrics(ops: Sequence[Any]) -> Dict[str, float]:
    """Move-kind ratios and sampled phase times from the ops' telemetry."""
    attempts = applies = accepts = 0
    kind_applies: Dict[str, int] = {}
    kind_accepts: Dict[str, int] = {}
    phase_ns: Dict[str, int] = {}
    phase_samples: Dict[str, int] = {}
    per_op_phase: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    for op in ops:
        op_ns: Dict[str, int] = {}
        op_samples: Dict[str, int] = {}
        for stats in op.stats:
            per_move, ns, samples = _counters(stats)
            for kind, counts in per_move.items():
                attempts += counts["attempts"]
                applies += counts["applies"]
                accepts += counts["accepts"]
                kind_applies[kind] = kind_applies.get(kind, 0) \
                    + counts["applies"]
                kind_accepts[kind] = kind_accepts.get(kind, 0) \
                    + counts["accepts"]
            for phase, total in ns.items():
                op_ns[phase] = op_ns.get(phase, 0) + total
                op_samples[phase] = op_samples.get(phase, 0) \
                    + samples.get(phase, 0)
        for phase in PHASES:
            if op_samples.get(phase):
                per_op_phase[phase].append(
                    op_ns[phase] / op_samples[phase] / 1000.0)
                phase_ns[phase] = phase_ns.get(phase, 0) + op_ns[phase]
                phase_samples[phase] = phase_samples.get(phase, 0) \
                    + op_samples[phase]
    out = {"core.apply_ratio": applies / attempts if attempts else 0.0,
           "core.accept_ratio": accepts / applies if applies else 0.0}
    for kind in MOVE_KINDS:
        kind_apply = kind_applies.get(kind, 0)
        out[f"core.accept_ratio.{kind}"] = \
            kind_accepts.get(kind, 0) / kind_apply if kind_apply else 0.0
    for phase in PHASES:
        samples = phase_samples.get(phase, 0)
        out[f"core.{phase}_us"] = \
            phase_ns[phase] / samples / 1000.0 if samples else 0.0
        for q, label in ((50, "p50"), (99, "p99")):
            out[f"core.phase_us.{phase}_{label}"] = \
                _histogram_quantile(per_op_phase[phase], q)
    return out


def library_layers(m: Any) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics and report lines of a traced library run."""
    spans = m.spans
    children = sp.children_of(spans)
    selfs = sp.self_times(spans)
    ok = [op for op in m.ops if not op.failure and op.root_span >= 0]
    n = max(1, len(ok))
    totals: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    family_rows: Dict[str, Dict[str, float]] = {}
    covered_ns = root_ns = 0
    coverage_rows: List[Tuple[str, float, str]] = []  # label, share, gap
    for op in ok:
        tree = [op.root_span] + sp.descendants(spans, op.root_span, children)
        op_totals: Dict[str, int] = {}
        op_self: Dict[str, int] = {}
        for index in tree:
            name = spans[index][sp.NAME]
            op_totals[name] = op_totals.get(name, 0) \
                + sp.duration_ns(spans[index])
            op_self[name] = op_self.get(name, 0) + selfs[index]
            counts[name] = counts.get(name, 0) + 1
        for name, value in op_totals.items():
            totals[name] = totals.get(name, 0) + value
        root = sp.duration_ns(spans[op.root_span])
        polish = op_totals.get("core.polish", 0)
        loop = op_totals.get("core.improve", 0) - polish
        row = family_rows.setdefault(op.label, {"root": 0, "polish": 0,
                                                "loop": 0, "moves": 0,
                                                "n": 0, "covered": 0})
        row["root"] += root
        row["polish"] += polish
        row["loop"] += loop
        row["moves"] += op.moves
        row["n"] += 1
        covered = sum(value for name, value in op_self.items()
                      if name in NAMED_LAYERS)
        row["covered"] += covered
        covered_ns += covered
        root_ns += root
        unnamed = {name: value for name, value in op_self.items()
                   if name not in NAMED_LAYERS}
        missing = max(unnamed, key=unnamed.__getitem__) if unnamed else "-"
        coverage_rows.append((op.label, covered / root if root else 0.0,
                              missing))

    polish_total = totals.get("core.polish", 0)
    loop_total = totals.get("core.improve", 0) - polish_total
    moves = sum(op.moves for op in ok)
    clone_calls = counts.get("core.clone_state", 0)
    out = {
        "sched.schedule_ms": totals.get("sched.schedule", 0) / 1e6 / n,
        "core.initial_ms": totals.get("core.initial", 0) / 1e6 / n,
        "core.rebuild_ms": totals.get("core.rebuild", 0) / 1e6 / n,
        "core.polish_ms": polish_total / 1e6 / n,
        "core.polish_calls": counts.get("core.polish", 0) / n,
        "core.polish_share": polish_total / root_ns if root_ns else 0.0,
        "core.loop_ms": loop_total / 1e6 / n,
        "core.loop_moves_per_s": moves / (loop_total / 1e9)
        if loop_total else 0.0,
        "core.clone_state_us": totals.get("core.clone_state", 0) / 1e3
        / clone_calls if clone_calls else 0.0,
        "core.clone_state_calls": clone_calls / n,
        "alloc.check_ms": totals.get("alloc.check", 0) / 1e6 / n,
        "timing.sta_ms": totals.get("timing.sta", 0) / 1e6 / n,
        "io.encode_ms": totals.get("io.encode", 0) / 1e6 / n,
        "attrib.covered_share": covered_ns / root_ns if root_ns else 0.0,
    }
    out.update(search_metrics(ok))
    for label, row in family_rows.items():
        if label in FAMILIES:
            out[f"core.polish_share.{label}"] = \
                row["polish"] / row["root"] if row["root"] else 0.0
            out[f"core.loop_moves_per_s.{label}"] = \
                row["moves"] / (row["loop"] / 1e9) if row["loop"] else 0.0

    lines = [f"attribution: {m.workload}, {len(ok)} traced operations"]
    lines.append(f"  {'problem':<10} {'n':>3} {'op ms':>9} "
                 f"{'polish %':>9} {'loop mv/s':>10} {'all mv/s':>9} "
                 f"{'named %':>8}")
    for label, row in sorted(family_rows.items(),
                             key=lambda item: -item[1]["polish"]
                             / max(1, item[1]["root"])):
        root_s = row["root"] / 1e9
        loop_rate = row["moves"] / (row["loop"] / 1e9) if row["loop"] else 0
        lines.append(
            f"  {label:<10} {row['n']:>3} "
            f"{row['root'] / 1e6 / row['n']:>9.1f} "
            f"{100 * row['polish'] / max(1, row['root']):>9.1f} "
            f"{loop_rate:>10.0f} "
            f"{row['moves'] / root_s if root_s else 0:>9.0f} "
            f"{100 * row['covered'] / max(1, row['root']):>8.1f}")
    low = [row for row in coverage_rows if row[1] < 0.90]
    lines.append(f"  named layers cover "
                 f"{100 * out['attrib.covered_share']:.1f}% of operation "
                 f"time; operations below 90%: {len(low)}")
    for label, share, missing in low:
        lines.append(f"    {label}: {100 * share:.1f}% named; largest "
                     f"unnamed self time: {missing}")
    lines.append("  sampled phase us (mean / per-op p50 / per-op p99): "
                 + ", ".join(f"{phase} {out[f'core.{phase}_us']:.1f}/"
                             f"{out[f'core.phase_us.{phase}_p50']:.1f}/"
                             f"{out[f'core.phase_us.{phase}_p99']:.1f}"
                             for phase in PHASES))
    return out, lines


def _histogram(snapshot: Dict[str, Any], name: str, key: str) -> float:
    value = snapshot.get(name, {}).get(key)
    return float(value) if value is not None else 0.0


def _counter_delta(m: Any, name: str) -> float:
    before = m.metricsz["before"].get(name, {}).get("value", 0.0)
    after = m.metricsz["window_end"].get(name, {}).get("value", 0.0)
    return after - before


def service_layers(m: Any) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics and report lines of a traced service run."""
    low, high = m.window_ns
    window = [record for record in m.spans
              if low <= record[sp.START] <= high]
    by_name: Dict[str, List[int]] = {}
    for record in window:
        by_name.setdefault(record[sp.NAME], []).append(
            sp.duration_ns(record))
    handles = {record[sp.REQUEST]: sp.duration_ns(record)
               for record in window if record[sp.NAME] == "server.handle"}
    requests = max(1, len(handles))
    transport = [m.latency_by_id[rid] - duration / 1e6
                 for rid, duration in handles.items()
                 if rid in m.latency_by_id]

    def per_request(name: str) -> float:
        return sum(by_name.get(name, ())) / 1e6 / requests

    def per_call(name: str) -> float:
        values = by_name.get(name, ())
        return sum(values) / 1e6 / len(values) if values else 0.0

    hits = _counter_delta(m, "cache_hits")
    misses = _counter_delta(m, "cache_misses")
    after = m.metricsz["after"]
    # coverage: self time of named layers inside each handled request
    children = sp.children_of(m.spans)
    selfs = sp.self_times(m.spans)
    covered = handled = 0
    unnamed: Dict[str, int] = {}
    for index, record in enumerate(m.spans):
        if record[sp.NAME] != "server.handle" or \
                not low <= record[sp.START] <= high:
            continue
        handled += sp.duration_ns(record)
        for member in [index] + sp.descendants(m.spans, index, children):
            name = m.spans[member][sp.NAME]
            if name in NAMED_LAYERS:
                covered += selfs[member]
            else:
                unnamed[name] = unnamed.get(name, 0) + selfs[member]
    missing = max(unnamed, key=unnamed.__getitem__) if unnamed else "-"
    out = {
        "service.decode_ms": per_request("service.decode"),
        "service.key_ms": per_request("service.key"),
        "service.response_encode_ms": per_request("service.response_encode"),
        "service.json_parse_ms": per_request("service.json_parse"),
        "service.cache_get_ms": per_call("service.cache_get"),
        "service.cache_put_ms": per_call("service.cache_put"),
        "service.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "service.queue_wait_ms_p50":
            _histogram(after, "queue_seconds", "p50") * 1000.0,
        "service.queue_wait_ms_p90":
            _histogram(after, "queue_seconds", "p90") * 1000.0,
        "service.job_ms_p50": _histogram(after, "job_seconds", "p50") * 1000.0,
        "server.transport_ms": statistics.median(transport)
        if transport else 0.0,
        "server.healthz_ms": statistics.median(m.healthz_ms)
        if m.healthz_ms else 0.0,
        "attrib.covered_share": covered / handled if handled else 0.0,
    }
    for phase in PHASES:
        for label in ("p50", "p99"):
            out[f"service.phase_us.{phase}_{label}"] = _histogram(
                after, f"phase_us_{phase}", label)
    computed = [op for op in m.ops if not op.failure and op.stats]
    out.update(search_metrics(computed))
    latency = statistics.median([op.ms for op in m.ops]) if m.ops else 0.0
    handling = statistics.median(handles.values()) / 1e6 if handles else 0.0
    lines = [f"attribution: {m.workload}, {len(handles)} traced requests, "
             f"client latency p50 {latency:.2f} ms",
             f"  server handling p50 {handling:.2f} ms;"
             f" transport p50 {out['server.transport_ms']:.2f} ms;"
             f" healthz {out['server.healthz_ms']:.2f} ms",
             "  per request: JSON parse {0:.3f} ms, decode {1:.3f} ms, key "
             "{2:.3f} ms, response encode {3:.3f} ms, cache get {4:.3f} "
             "ms/call, hit ratio {5:.3f}".format(
                 out["service.json_parse_ms"], out["service.decode_ms"],
                 out["service.key_ms"], out["service.response_encode_ms"],
                 out["service.cache_get_ms"],
                 out["service.cache_hit_ratio"]),
             f"  named service layers cover "
             f"{100 * out['attrib.covered_share']:.1f}% of server handling"
             + ("" if out["attrib.covered_share"] >= 0.9 else
                f"; largest unnamed self time: {missing} "
                f"({100 * unnamed.get(missing, 0) / max(1, handled):.1f}%)"),
             "  /metricsz phase us p50/p99 (per-job means, "
             f"{int(_histogram(after, 'phase_us_evaluate', 'count'))} jobs): "
             + ", ".join(f"{phase} {out[f'service.phase_us.{phase}_p50']:.1f}/"
                         f"{out[f'service.phase_us.{phase}_p99']:.1f}"
                         for phase in PHASES)]
    return out, lines


def per_layer(untraced: Any, traced: Any) -> Tuple[Dict[str, float],
                                                   List[str]]:
    """Every per-layer metric (0 where a layer does no work)."""
    if traced.workload in ("zoo-pipeline", "search-hotloop"):
        found, lines = library_layers(traced)
    else:
        found, lines = service_layers(traced)
    plain = end_to_end(untraced)["allocs_per_s"]
    with_trace = end_to_end(traced)["allocs_per_s"]
    found["trace.overhead_frac"] = plain / with_trace - 1.0 \
        if with_trace else 0.0
    lines.append(f"  tracing overhead: {plain:.3f} -> {with_trace:.3f} "
                 f"ops/s untraced -> traced "
                 f"({100 * found['trace.overhead_frac']:+.1f}%)")
    return {name: float(found.get(name, 0.0))
            for name, _unit, _better in PER_LAYER}, lines


# ---------------------------------------------------------- command line

def _result_line(correct: bool, attempted: int, failed: int,
                 values: Dict[str, float],
                 table: Iterable[Tuple[str, str, str]]) -> str:
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better in table}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _print_metrics(values: Dict[str, float],
                   table: Iterable[Tuple[str, str, str]],
                   raw: Optional[Dict[str, float]] = None) -> None:
    for name, unit, better in table:
        note = f"  raw {raw[name]:.6g}" \
            if raw is not None and raw[name] != values[name] else ""
        print(f"  {name:<34} {values[name]:>14.6g} {unit:<6} "
              f"({better} is better){note}")


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> int:
    import workloads

    sizes = workloads.QUICK if quick else workloads.FULL
    workdir = workloads.make_workdir()
    try:
        if trace:
            untraced = workloads.run(workload, seed, seconds / 2, False,
                                     workdir, sizes)
            traced = workloads.run(workload, seed, seconds / 2, True,
                                   workdir, sizes, do_setup=False)
            phases = (untraced, traced)
        else:
            untraced = workloads.run(workload, seed, seconds, False,
                                     workdir, sizes)
            phases = (untraced,)
    finally:
        workloads.remove_workdir(workdir)

    attempted = sum(m.attempted for m in phases)
    failed = sum(m.failed for m in phases)
    for m in phases:
        for op in m.ops:
            if op.failure:
                print(f"FAILED {workload} {op.label}: {op.failure}")
        for message in m.failures:
            print(f"FAILED {workload}: {message}")
    print(f"{workload}: seed {seed}, {attempted} operations attempted, "
          f"{failed} failed (failed_frac {failed / max(1, attempted):.4f})")
    e2e = end_to_end(untraced)
    slowdown = statistics.median(op.slowdown for op in untraced.ops) \
        if untraced.ops else 1.0
    print(f"end-to-end metrics{' (untraced half)' if trace else ''}, "
          f"scaled to the calibration reference speed (median slowdown of "
          f"this run's operations: {slowdown:.3f}x):")
    _print_metrics(e2e, END_TO_END, end_to_end(untraced, raw=True))
    if trace:
        layers, lines = per_layer(untraced, phases[1])
        for line in lines:
            print(line)
        print("per-layer metrics:")
        _print_metrics(layers, PER_LAYER)
        print(_result_line(failed == 0, attempted, failed, layers,
                           PER_LAYER))
    else:
        print(_result_line(failed == 0, attempted, failed, e2e, END_TO_END))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool, quick: bool) -> int:
    """Every workload in its own process; a combined table at the end."""
    results: Dict[str, Optional[Dict[str, Any]]] = {}
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
        if quick:
            command.append("--quick")
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr[-3000:])
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[workload] = None
            status = 1
    table = PER_LAYER if trace else END_TO_END
    print()
    print(f"{'metric':<34}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES))
    for name, unit, _better in table:
        cells = []
        for workload in WORKLOAD_NAMES:
            result = results[workload]
            value = result["metrics"][name]["value"] if result else None
            cells.append(f"{value:>16.6g}" if value is not None
                         else f"{'-':>16}")
        print(f"{name + ' [' + unit + ']':<34}" + "".join(cells))
    if trace and results.get("service-miss") and \
            results.get("search-hotloop"):
        miss = results["service-miss"]["metrics"]
        hot = results["search-hotloop"]["metrics"]
        print()
        print("phase us p50/p99, per-job means: service-miss /metricsz "
              "(2 pool workers under load) vs search-hotloop (one process, "
              "no contention)")
        for phase in PHASES:
            print(f"  {phase:<9} service "
                  f"{miss[f'service.phase_us.{phase}_p50']['value']:8.1f} /"
                  f"{miss[f'service.phase_us.{phase}_p99']['value']:8.1f}"
                  f"   hotloop "
                  f"{hot[f'core.phase_us.{phase}_p50']['value']:8.1f} /"
                  f"{hot[f'core.phase_us.{phase}_p99']['value']:8.1f}")
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the allocation library and service.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny minimum sizes, for the smoke tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to benchmark under "
              f"{os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace),
                       args.quick)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.quick)


if __name__ == "__main__":
    sys.exit(main())
