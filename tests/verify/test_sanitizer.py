"""Shadow-state sanitizer: clean runs stay clean, corruption is caught."""

import json

import pytest

from repro.core.anneal import AnnealConfig, anneal
from repro.core.binding import Binding
from repro.core.improve import ImproveConfig, improve
from repro.core.initial import initial_allocation
from repro.core.parallel import RestartJob, run_restart
from repro.core.polish import _ReuseScope, polish
from repro.core.snapshot import state_from_dict, state_to_dict
from repro.datapath.units import make_registers
from repro.sched.explore import schedule_graph
from repro.verify.fuzz import BrokenRollbackMoveSet
from repro.verify.sanitizer import (SANITIZE_ENV, SanitizerError,
                                    ShadowSanitizer, make_sanitizer,
                                    sanitize_enabled)


def _fresh_binding(diffeq, nonpipe_spec):
    schedule = schedule_graph(diffeq, nonpipe_spec, 6)
    fus = nonpipe_spec.make_fus(schedule.min_fus())
    regs = make_registers(schedule.min_registers() + 1)
    return initial_allocation(schedule, fus, regs)


class TestEnablement:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert sanitize_enabled(True)
        assert not sanitize_enabled(False)

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("yes", True), ("on", True),
        ("0", False), ("", False), ("false", False), ("off", False),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv(SANITIZE_ENV, value)
        assert sanitize_enabled(False) is expected

    def test_make_sanitizer_disabled_returns_none(self, monkeypatch,
                                                  diffeq_binding):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert make_sanitizer(diffeq_binding, False, 8) is None
        assert make_sanitizer(diffeq_binding, True, 8) is not None


class TestReadOnly:
    def test_sanitized_run_bit_identical(self, monkeypatch, diffeq,
                                         nonpipe_spec):
        """The sanitizer must observe, never steer: same seed, same result."""
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        results = []
        for sanitize in (False, True):
            binding = _fresh_binding(diffeq, nonpipe_spec)
            config = ImproveConfig(max_trials=2, moves_per_trial=150,
                                   uphill_per_trial=4, seed=11,
                                   sanitize=sanitize, sanitize_every=4)
            improve(binding, config)
            results.append((binding.clone_state(), binding.cost()))
        assert results[0] == results[1]


class TestStateCodec:
    """The reproducer's state is a binding document's decision sections."""

    def test_encode_decode_roundtrip(self, diffeq_binding):
        state = diffeq_binding.clone_state()
        encoded = state_to_dict(state)
        json.dumps(encoded)  # must be JSON-serializable as-is
        assert state_from_dict(encoded) == state

    def test_decoded_state_is_restorable(self, diffeq, nonpipe_spec):
        binding = _fresh_binding(diffeq, nonpipe_spec)
        snapshot = state_from_dict(state_to_dict(binding.clone_state()))
        shadow = Binding.from_state(
            binding.schedule, list(binding.fus.values()),
            list(binding.regs.values()), snapshot, binding.weights)
        assert shadow.cost() == binding.cost()
        assert shadow.derived_snapshot() == binding.derived_snapshot()


class TestShadowCheck:
    def test_clean_binding_passes(self, diffeq_binding):
        ShadowSanitizer(diffeq_binding, every=1).check()

    def test_catches_stale_occupancy(self, diffeq_binding):
        b = diffeq_binding
        b.flush()
        free = next(r for r in sorted(b.regs)
                    if (r, 0) not in b.reg_occ)
        vname = next(iter(sorted(b.graph.values)))
        b.reg_occ[(free, 0)] = vname  # bypass the primitives
        with pytest.raises(SanitizerError) as info:
            ShadowSanitizer(diffeq_binding, every=1).check()
        assert info.value.problems

    def test_catches_ledger_refcount_drift(self, diffeq_binding):
        b = diffeq_binding
        b.flush()
        (src, sink), _count = next(iter(sorted(
            b.ledger.use_counts().items())))
        b.ledger.add(src, sink)  # one phantom use: totals may still agree
        with pytest.raises(SanitizerError) as info:
            ShadowSanitizer(diffeq_binding, every=1).check()
        assert any("refcount" in p or "uses" in p
                   for p in info.value.problems)

    def test_error_carries_reproducer(self, diffeq_binding):
        b = diffeq_binding
        b.flush()
        free = next(r for r in sorted(b.regs) if (r, 0) not in b.reg_occ)
        b.reg_occ[(free, 0)] = next(iter(sorted(b.graph.values)))
        with pytest.raises(SanitizerError) as info:
            ShadowSanitizer(b, every=1, context="unit").check()
        err = info.value
        assert err.reproducer["context"] == "unit"
        assert err.reproducer["state"] is not None
        payload = json.loads(err.to_json())
        # restorable: the decision sections of b's binding document
        assert state_from_dict(payload["state"]) == b.clone_state()


class TestInjectedUndoBug:
    """A move write that bypasses the journal must be caught by the
    round-trip probe."""

    def _config(self, seed, sanitize=True, **kwargs):
        return ImproveConfig(max_trials=3, moves_per_trial=400,
                             uphill_per_trial=0, seed=seed,
                             move_set=BrokenRollbackMoveSet(),
                             sanitize=sanitize, sanitize_every=1,
                             **kwargs)

    def test_improve_catches_broken_rollback(self, monkeypatch, diffeq,
                                             nonpipe_spec):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        binding = _fresh_binding(diffeq, nonpipe_spec)
        with pytest.raises(SanitizerError) as info:
            improve(binding, self._config(seed=3))
        err = info.value
        assert err.move_name == "R2"
        assert "round-trip" in str(err)
        assert err.reproducer["move_name"] == "R2"

    def test_env_override_enables_sanitizer(self, monkeypatch, diffeq,
                                            nonpipe_spec):
        """config.sanitize=False, but REPRO_SANITIZE=1 still catches it."""
        monkeypatch.setenv(SANITIZE_ENV, "1")
        binding = _fresh_binding(diffeq, nonpipe_spec)
        with pytest.raises(SanitizerError):
            improve(binding, self._config(seed=3, sanitize=False))

    def test_disabled_sanitizer_stays_silent(self, monkeypatch, diffeq,
                                             nonpipe_spec):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        binding = _fresh_binding(diffeq, nonpipe_spec)
        improve(binding, self._config(seed=3, sanitize=False))  # no raise

    def test_anneal_catches_broken_rollback(self, monkeypatch, diffeq,
                                            nonpipe_spec):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        binding = _fresh_binding(diffeq, nonpipe_spec)
        config = AnnealConfig(initial_temperature=0.05, cooling=0.8,
                              temperature_levels=4, moves_per_level=400,
                              seed=3, move_set=BrokenRollbackMoveSet(),
                              sanitize=True, sanitize_every=1)
        with pytest.raises(SanitizerError):
            anneal(binding, config)

    def test_parallel_env_override(self, monkeypatch, diffeq, nonpipe_spec):
        """run_restart picks REPRO_SANITIZE up from the environment."""
        schedule = schedule_graph(diffeq, nonpipe_spec, 6)
        fus = tuple(nonpipe_spec.make_fus(schedule.min_fus()))
        regs = tuple(make_registers(schedule.min_registers() + 1))

        def job():
            return RestartJob(
                index=0, schedule=schedule, fus=fus, regs=regs,
                configs=(ImproveConfig(max_trials=3, moves_per_trial=400,
                                       uphill_per_trial=0, seed=3,
                                       move_set=BrokenRollbackMoveSet(),
                                       sanitize=False, sanitize_every=1),))

        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        run_restart(job())  # silent without the sanitizer
        monkeypatch.setenv(SANITIZE_ENV, "1")
        with pytest.raises(SanitizerError):
            run_restart(job())


class TestPolishPriceReuse:
    """Polish reuses a candidate's price until the next kept candidate;
    under the sanitizer every reuse is re-priced and compared."""

    @staticmethod
    def _ewf_binding():
        from repro.bench import elliptic_wave_filter
        from repro.datapath.units import HardwareSpec
        spec = HardwareSpec.non_pipelined()
        schedule = schedule_graph(elliptic_wave_filter(), spec, 19)
        return initial_allocation(
            schedule, spec.make_fus(schedule.min_fus()),
            make_registers(schedule.min_registers() + 1))

    @staticmethod
    def _state(binding):
        return (binding.total_cost(), list(binding.placements.items()),
                list(binding.read_src.items()),
                list(binding.pt_impl.items()), binding.clone_state())

    def test_checked_reuse_is_read_only(self, monkeypatch):
        results = []
        for env in ("0", "1"):
            monkeypatch.setenv(SANITIZE_ENV, env)
            binding = self._ewf_binding()
            polish(binding)
            results.append(self._state(binding))
        assert results[0] == results[1]

    def test_stale_reuse_is_caught(self, monkeypatch):
        """Injected bug: a kept candidate does not invalidate the stored
        prices, so a later candidate reuses a stale one."""
        monkeypatch.setattr(_ReuseScope, "kept", lambda self: None)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        with pytest.raises(SanitizerError) as info:
            polish(self._ewf_binding())
        err = info.value
        assert "reused polish price" in str(err)
        assert err.move_name in ("R2b", "R3", "R4")
        assert err.reproducer["state"] is not None
