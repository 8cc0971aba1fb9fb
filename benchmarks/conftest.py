"""Shared helpers for the benchmark harness.

Every table and figure of the paper's evaluation has one module here; each
regenerates its table (printed live and saved under ``results/out/``) and
asserts the shape the paper reports.  Speed is measured by perfbench, not
here.

Set ``REPRO_BENCH_FULL=1`` for full search budgets (several minutes);
the default "fast" mode reproduces the same shapes in well under a minute
per table.
"""

import os

# per-run regenerated outputs land in the untracked results/out/ so local
# bench runs never dirty the curated golden files committed under results/
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results", "out")

#: fast mode unless the user asks for the full-budget run
FAST = os.environ.get("REPRO_BENCH_FULL", "") != "1"


def publish(table, filename, capsys):
    """Print a reproduced table live and persist it under results/out/."""
    text = table.render()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, filename), "w") as fh:
        fh.write(text + "\n")
    with capsys.disabled():
        print("\n" + text)
