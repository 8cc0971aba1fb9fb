"""Gate one perfbench run against its committed reference line.

    python3 benchmarks/perf_gate.py RUN REFERENCE

RUN is a perfbench run's standard output; REFERENCE is the last line of
the same command's output saved verbatim under ``results/``, refreshed
by re-running that command (``--seed 0 --seconds 10``; search-hotloop,
search-hotloop ``--trace 1``, zoo-pipeline).  Its file name picks the
metric (:data:`GATES`).  A throughput may fall by its ``BENCHMARK.json``
bound; traced ``core.restore_us`` may rise to :data:`RESTORE_CEILING`
times the reference.  That ceiling keeps the search's restore on the bulk
copy of ``Binding.restore_state``: re-deriving it through the primitives,
as ``Binding.from_state`` does, measured over 5x the reference (597-692
µs against 106 µs on a 2-CPU container).  A failed operation fails the
gate.  Exit 0 held, 1 failed, 2 bad usage.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: reference file name -> gated metric
GATES = {
    "perf_search_hotloop.json": "moves_per_s",
    "perf_search_hotloop_traced.json": "core.restore_us",
    "perf_zoo_pipeline.json": "allocs_per_s",
}

RESTORE_CEILING = 3.0


def last_result(path):
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.read().strip().splitlines()[-1])


def main(argv):
    if len(argv) != 2 or os.path.basename(argv[1]) not in GATES:
        print(f"usage: perf_gate.py RUN REFERENCE, REFERENCE one of "
              f"{sorted(GATES)}", file=sys.stderr)
        return 2
    metric = GATES[os.path.basename(argv[1])]
    run, reference = last_result(argv[0]), last_result(argv[1])
    value = run["metrics"][metric]["value"]
    base = reference["metrics"][metric]["value"]
    if metric == "core.restore_us":
        limit = RESTORE_CEILING * base
        held = value <= limit
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            bounds = {row["name"]: row["bound"]
                      for row in json.load(handle)["end_to_end"]}
        limit = (1.0 - bounds[metric]) * base
        held = value >= limit
    held = held and run["correct"] and run["failed"] == 0
    print(f"{metric}: {value:.6g} against reference {base:.6g}, limit "
          f"{limit:.6g}; {run['failed']} failed operations: "
          f"{'ok' if held else 'FAIL'}")
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
