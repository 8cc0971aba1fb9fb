"""Differential fuzzer: determinism, fault injection, CLI plumbing."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.rng import SeedStream
from repro.verify import fuzz as fuzz_module
from repro.verify.__main__ import build_parser, main, parse_budget, parse_seed
from repro.verify.fuzz import (FuzzCase, FuzzConfig, build_problem,
                               run_case, run_fuzz, sample_case)


def _quick_config(**kwargs):
    defaults = dict(seed=7, max_cases=2, min_ops=6, max_ops=8,
                    sanitize_every=4, shrink=False)
    defaults.update(kwargs)
    return FuzzConfig(**defaults)


class TestCaseSampling:
    def test_case_dict_roundtrip(self):
        case = sample_case(SeedStream(5), 3, _quick_config())
        assert FuzzCase.from_dict(case.to_dict()) == case
        json.dumps(case.to_dict())  # serializable as-is

    def test_sampling_is_deterministic(self):
        config = _quick_config()
        a = [sample_case(SeedStream(9), i, config) for i in range(6)]
        b = [sample_case(SeedStream(9), i, config) for i in range(6)]
        assert a == b

    def test_build_problem_clamps_degenerate_cases(self):
        """Shrunk parameter vectors must always be buildable."""
        base = sample_case(SeedStream(1), 0, _quick_config())
        for n_ops, n_inputs, loop in ((2, 3, 0.0), (2, 1, 0.3),
                                      (3, 3, 0.25)):
            case = FuzzCase.from_dict({**base.to_dict(), "n_ops": n_ops,
                                       "n_inputs": n_inputs,
                                       "loop_fraction": loop})
            graph, schedule = build_problem(case)
            assert schedule.graph is graph


class TestDeterminism:
    def test_two_runs_identical(self):
        """Same seed, same config: identical corpus and summary (the
        regression guard for all randomness flowing through SeedStream)."""
        reports = [run_fuzz(_quick_config()) for _ in range(2)]
        assert reports[0].cases_run == 2
        assert reports[0].summary() == reports[1].summary()
        assert reports[0].corpus.to_dict() == reports[1].corpus.to_dict()
        assert reports[0].exit_code == reports[1].exit_code == 0

    def test_no_bare_random_in_verify(self):
        """Satellite guard: repro.verify uses SeedStream/make_rng only."""
        verify_dir = pathlib.Path(fuzz_module.__file__).parent
        offenders = []
        for path in sorted(verify_dir.glob("*.py")):
            text = path.read_text()
            if re.search(r"random\.Random\(|^import random|^from random",
                         text, re.MULTILINE):
                offenders.append(path.name)
        assert offenders == []


class TestInjectedBug:
    """Acceptance: an injected journal bypass is caught, shrunk and
    emitted."""

    @pytest.fixture(scope="class")
    def injected_report(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("fuzz-out")
        config = FuzzConfig(seed=0, max_cases=3, min_ops=6, max_ops=8,
                            sanitize_every=1, shrink=True,
                            shrink_attempts=16, out_dir=str(out_dir),
                            inject="undo")
        return run_fuzz(config), out_dir

    def test_failures_are_sanitizer_errors(self, injected_report):
        report, _out = injected_report
        assert report.failures
        assert {f.exc_type for f in report.failures} == {"SanitizerError"}
        assert all(f.stage == "salsa" for f in report.failures)
        assert report.exit_code == 1
        assert report.new_buckets == report.corpus.signatures()

    def test_failure_was_shrunk(self, injected_report):
        report, _out = injected_report
        assert report.shrinks
        for signature, shrunk in report.shrinks.items():
            bucket = report.corpus.buckets[signature]
            original = FuzzCase.from_dict(bucket.cases[0])
            assert shrunk.case.restarts <= original.restarts
            assert shrunk.case.max_trials <= original.max_trials
            assert shrunk.case.n_ops <= original.n_ops

    def test_shrunk_case_still_reproduces(self, injected_report):
        report, _out = injected_report
        signature, shrunk = sorted(report.shrinks.items())[0]
        failure = run_case(shrunk.case, inject="undo", sanitize_every=1)
        assert failure is not None
        assert failure.signature == signature

    def test_reproducer_files_emitted(self, injected_report):
        report, out_dir = injected_report
        buckets_path = out_dir / "buckets.json"
        assert buckets_path.exists()
        data = json.loads(buckets_path.read_text())
        assert data["format"] == "repro.fuzz-corpus/1"
        assert data["buckets"]
        scripts = sorted(out_dir.glob("repro_*.py"))
        assert scripts
        for script in scripts:
            compile(script.read_text(), str(script), "exec")

    def test_reproducer_script_replays(self, injected_report):
        """The emitted script exits 1 while the injected bug is present."""
        _report, out_dir = injected_report
        script = sorted(out_dir.glob("repro_*.py"))[0]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "reproduced" in proc.stdout

    def test_known_buckets_suppress_exit_code(self, injected_report,
                                              tmp_path):
        """A baseline buckets.json turns known failures into exit 0."""
        report, out_dir = injected_report
        rerun = run_fuzz(FuzzConfig(
            seed=0, max_cases=3, min_ops=6, max_ops=8, sanitize_every=1,
            shrink=False, inject="undo",
            known_buckets=str(out_dir / "buckets.json")))
        assert rerun.failures
        assert rerun.new_buckets == []
        assert rerun.exit_code == 0


class TestCli:
    def test_parse_budget(self):
        assert parse_budget("300") == 300.0
        assert parse_budget("300s") == 300.0
        assert parse_budget("5m") == 300.0
        assert parse_budget("1h") == 3600.0
        with pytest.raises(Exception):
            parse_budget("-3")

    def test_parse_seed(self):
        assert parse_seed("42") == 42
        assert parse_seed("0x10") == 16
        assert parse_seed("from-date") >= 20260101
        with pytest.raises(Exception):
            parse_seed("tuesday")

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.out == "results/fuzz"
        assert args.budget is None and args.max_cases is None

    def test_main_clean_run(self, tmp_path, capsys):
        code = main(["--max-cases", "1", "--seed", "3", "--min-ops", "6",
                     "--max-ops", "8", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz: 1 case(s) run, 0 failure(s)" in out
