"""``python -m repro.bench`` — sweep the scenario zoo.

Runs zoo scenarios through the full schedule → SALSA binding → checker
pipeline and prints a per-scenario cost table, plus a machine-readable
JSON report.  ``--check`` re-runs the scenarios recorded
in the committed golden file (``results/bench_zoo.json``) and gates the
deterministic quality numbers against it; ``--write-golden`` refreshes
the file after an intentional change.

Examples::

    python -m repro.bench                       # sweep defaults, seed 0
    python -m repro.bench --list                # show families
    python -m repro.bench --families fft,fir --seed 3
    python -m repro.bench --check               # golden gate (CI)
    python -m repro.bench --timing              # add clock_ns/depth columns
    python -m repro.bench --timing --check      # exact clock-period gate
    python -m repro.bench --write-golden        # refresh the goldens
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.runner import (BUDGETS, GOLDEN_PATH, check_rows,
                                load_golden, render_table,
                                results_document, run_suite, write_results)
from repro.bench.zoo import FAMILIES, Scenario, default_suite


def _parse_scenario(token: str) -> Scenario:
    """Parse ``family`` or ``family-key<int>-...-s<seed>`` back to a triple."""
    parts = token.split("-")
    family = parts[0]
    if family not in FAMILIES:
        raise argparse.ArgumentTypeError(
            f"unknown family {family!r} in scenario {token!r}")
    seed = 0
    params = {}
    for part in parts[1:]:
        key = part.rstrip("0123456789")
        digits = part[len(key):]
        if not key or not digits:
            raise argparse.ArgumentTypeError(
                f"bad scenario component {part!r} in {token!r}")
        if key == "s":
            seed = int(digits)
        else:
            params[key] = int(digits)
    try:
        return Scenario.make(family, seed=seed, **params)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="sweep the CDFG scenario zoo through the allocator")
    parser.add_argument("--list", action="store_true",
                        help="list zoo families and exit")
    parser.add_argument("--families", default="",
                        help="comma-separated families (default: all)")
    parser.add_argument("--scenarios", default="",
                        help="comma-separated scenario names, e.g. "
                             "lattice-order7-s2 (overrides --families)")
    parser.add_argument("--seed", type=int, default=0,
                        help="scenario seed for --families sweeps")
    parser.add_argument("--budget", choices=sorted(BUDGETS), default="fast",
                        help="search budget per scenario")
    parser.add_argument("--restarts", type=int, default=2,
                        help="allocator restarts per scenario")
    parser.add_argument("--method", choices=("list", "fds"), default="list",
                        help="scheduling method")
    parser.add_argument("--timing", action="store_true",
                        help="run static timing analysis per scenario and "
                             "add clock_period_ns / mux_depth_max columns")
    parser.add_argument("--json", default="",
                        help="write the sweep report to this path")
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed golden file")
    parser.add_argument("--golden", default=GOLDEN_PATH,
                        help=f"golden file path (default {GOLDEN_PATH})")
    parser.add_argument("--tolerance", type=float, default=0.0,
                        help="relative cost tolerance for --check")
    parser.add_argument("--write-golden", action="store_true",
                        help="refresh the golden file from this sweep")
    return parser


def _selected_scenarios(args: argparse.Namespace) -> List[Scenario]:
    if args.scenarios:
        return [_parse_scenario(token.strip())
                for token in args.scenarios.split(",") if token.strip()]
    if args.families:
        names = [token.strip() for token in args.families.split(",")
                 if token.strip()]
        for name in names:
            if name not in FAMILIES:
                raise argparse.ArgumentTypeError(
                    f"unknown family {name!r}; "
                    f"known: {', '.join(sorted(FAMILIES))}")
        return [Scenario.make(name, seed=args.seed) for name in names]
    return default_suite(seed=args.seed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(name) for name in FAMILIES)
        for name in sorted(FAMILIES, key=lambda n: FAMILIES[n].fid):
            family = FAMILIES[name]
            defaults = ", ".join(f"{k}={v}"
                                 for k, v in sorted(family.defaults.items()))
            print(f"{name.ljust(width)}  {family.doc}  [{defaults}]")
        return 0

    golden = None
    if args.check:
        try:
            golden = load_golden(args.golden)
        except (OSError, ValueError) as exc:
            print(f"cannot load golden file: {exc}", file=sys.stderr)
            return 2
        scenarios = [_parse_scenario(name)
                     for name in sorted(golden["rows"])]
    else:
        try:
            scenarios = _selected_scenarios(args)
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))

    timing = args.timing
    if args.check and golden is not None and golden.get("timing") \
            and not timing:
        # a timing golden pins clock periods; gate them even when the
        # caller forgot the flag
        timing = True
    budget = BUDGETS[args.budget]
    rows = run_suite(scenarios, budget=budget, restarts=args.restarts,
                     method=args.method, timing=timing)
    print(render_table(rows))

    document = results_document(rows, budget_name=args.budget,
                                restarts=args.restarts, method=args.method)
    if args.json:
        write_results(document, args.json)
        print(f"wrote {args.json}")
    if args.write_golden:
        write_results(document, args.golden)
        print(f"refreshed golden file {args.golden}")
        return 0

    if args.check:
        assert golden is not None
        if golden.get("budget") != args.budget \
                or golden.get("restarts") != args.restarts \
                or golden.get("method") != args.method:
            print(f"golden file was recorded with budget="
                  f"{golden.get('budget')!r} restarts="
                  f"{golden.get('restarts')!r} method="
                  f"{golden.get('method')!r}; rerun with matching flags "
                  f"or --write-golden", file=sys.stderr)
            return 2
        problems = check_rows(rows, golden, tolerance=args.tolerance)
        if problems:
            print(f"\n--check FAILED ({len(problems)} problem(s)):",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"\n--check OK: {len(rows)} scenario(s) match "
              f"{args.golden} (tolerance {args.tolerance:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
