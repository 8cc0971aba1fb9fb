"""numpy and scipy load only when the bipartite-matching baseline runs.

The paper's flow (schedule -> SALSA extended binding -> check), the CLIs
and the service never need them, and loading them costs about two thirds
of the package's import time and ~55 MB in every process.  The check
runs in a fresh interpreter, since this test process may already hold
numpy from another test.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PROBE = """
import sys

import repro.core
import repro.alloc
import repro.service.__main__
import repro.bench
import repro.timing.sta
import repro.io.json_io


def heavy():
    return sorted(name for name in sys.modules
                  if name.startswith(("numpy", "scipy")))


assert heavy() == [], heavy()

from repro.alloc import bipartite_fu_binding, left_edge
from repro.bench import elliptic_wave_filter
from repro.sched import HardwareSpec, schedule_graph

spec = HardwareSpec.non_pipelined()
schedule = schedule_graph(elliptic_wave_filter(), spec, 19)
op_fu = bipartite_fu_binding(schedule, spec.make_fus(schedule.min_fus()),
                             left_edge(schedule))
assert set(op_fu) == set(schedule.graph.ops)
assert "scipy.optimize" in sys.modules, heavy()
print("ok")
"""


def test_numpy_and_scipy_load_only_on_the_bipartite_call():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "ok"
