"""Differential regression: the two ``restore_state`` paths.

A snapshot cloned by a binding restores into that binding by diffing the
decision dicts and bulk-copying the clone-time derived state; any other
name-keyed snapshot restores through the primitives.  These tests pin
the contract that makes the fast path safe: both paths must produce
**bit-identical search trajectories** — same best/cost traces, same final
cost, same decision dicts, and the same ``placements`` iteration order
(dict order feeds the transfer-enumeration RNG, so an ordering difference
*is* a trajectory difference).
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.explore import schedule_graph
from repro.core import (AnnealConfig, ImproveConfig, anneal, improve,
                        initial_allocation)
from repro.core.binding import Binding
from repro.core.moves import MoveSet
from repro.core.snapshot import BindingState
from repro.verify.sanitizer import decode_state, encode_state

SPEC = HardwareSpec.non_pipelined()


def fresh_binding(bench="ewf"):
    if bench == "ewf":
        graph, length = elliptic_wave_filter(), 17
    else:
        graph, length = discrete_cosine_transform(), 10
    schedule = schedule_graph(graph, SPEC, length)
    return initial_allocation(
        schedule, SPEC.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + 1))


def observables(binding):
    """Every live-binding datum a backend difference could perturb."""
    return (
        binding.total_cost(),
        sorted(binding.op_fu.items()),
        sorted((k, tuple(v)) for k, v in binding.placements.items()),
        list(binding.placements),  # iteration order is trajectory-relevant
        sorted(binding.read_src.items()),
        sorted(binding.pt_impl.items()),
        binding.derived_snapshot(),
    )


def trajectory(binding, stats):
    """Everything a backend difference could perturb, in one tuple."""
    return (
        tuple(stats.best_trace),
        tuple(stats.cost_trace),
        stats.final_cost.total,
    ) + observables(binding)


def force_primitives_path(monkeypatch):
    """Route every restore through the primitives: a plain-dict copy of
    the snapshot (same sections, same dict order) has no owner."""
    original = Binding.clone_state
    monkeypatch.setattr(
        Binding, "clone_state", lambda self: dict(original(self)))


class TestImproveBackendParity:

    @pytest.mark.parametrize("bench", ["ewf", "dct"])
    @pytest.mark.parametrize("seed", [1, 9])
    def test_diff_replay_matches_legacy_restore(self, bench, seed,
                                                monkeypatch):
        config = ImproveConfig(max_trials=3, moves_per_trial=200,
                               seed=seed, sanitize=True, sanitize_every=32)
        binding = fresh_binding(bench)
        fast = trajectory(binding, improve(binding, config))

        with monkeypatch.context() as patch:
            force_primitives_path(patch)
            binding = fresh_binding(bench)
            primitives = trajectory(binding, improve(binding, config))

        assert fast == primitives

    def test_anneal_backend_parity(self, monkeypatch):
        config = AnnealConfig(temperature_levels=4, moves_per_level=150,
                              seed=3, sanitize=True, sanitize_every=32)
        binding = fresh_binding("dct")
        fast = trajectory(binding, anneal(binding, config))

        with monkeypatch.context() as patch:
            force_primitives_path(patch)
            binding = fresh_binding("dct")
            primitives = trajectory(binding, anneal(binding, config))

        assert fast == primitives


class TestSnapshotRoundTrips:

    def test_clone_equals_its_own_mapping(self):
        binding = fresh_binding("dct")
        state = binding.clone_state()
        assert isinstance(state, BindingState)
        assert state == dict(state)
        assert state == binding.clone_state()

    def test_restore_round_trip_is_identity(self):
        # Both restore paths must agree bit-for-bit — including the
        # placements iteration order, which by design is NOT the clone
        # -time order after a restore: unchanged keys keep their live
        # position, differing keys re-enter in snapshot order.
        def drift_and_restore(through_primitives):
            binding = fresh_binding("ewf")
            improve(binding, ImproveConfig(max_trials=1,
                                           moves_per_trial=150, seed=4))
            state = binding.clone_state()
            rng = random.Random(5)  # drift: 60 unpriced random moves
            moves = [fn for _name, fn, _weight in MoveSet().enabled_moves()]
            for _ in range(60):
                rng.choice(moves)(binding, rng)
            drifted = dict(binding.placements)
            binding.restore_state(dict(state) if through_primitives
                                  else state)
            return state, drifted, binding, observables(binding)

        state, drifted, binding, via_fast = drift_and_restore(False)
        _, _, _, via_primitives = drift_and_restore(True)
        assert via_fast == via_primitives
        # and the restored binding's decision content is the snapshot's
        assert state == binding.clone_state()
        # the order law: unchanged keys in live order, then the
        # snapshot's differing keys in snapshot order
        snap = state["placements"]
        kept = [key for key, regs in drifted.items()
                if snap.get(key) == regs]
        assert kept != list(drifted)  # the drift touched placements
        assert list(binding.placements) == kept + [
            key for key in snap if key not in kept]

    def test_payload_round_trip(self):
        binding = fresh_binding("dct")
        improve(binding, ImproveConfig(max_trials=1, moves_per_trial=150,
                                       seed=7))
        state = binding.clone_state()
        decoded = decode_state(json.loads(json.dumps(encode_state(state))))
        assert decoded == state
        other = fresh_binding("dct")
        other.restore_state(decoded)
        assert other.total_cost() == pytest.approx(binding.total_cost())
        assert other.clone_state() == state
        # an encoded snapshot carries no live insertion order: it decodes
        # in sorted-segment order
        assert list(decoded["placements"]) == sorted(decoded["placements"])

    def test_pickle_drops_derived_but_keeps_decisions(self):
        binding = fresh_binding("dct")
        state = binding.clone_state()
        assert state.derived is not None
        clone = pickle.loads(pickle.dumps(state))
        assert clone.derived is None
        assert clone.owner is None
        assert clone == state
        other = fresh_binding("dct")
        other.restore_state(clone)
        assert other.total_cost() == pytest.approx(binding.total_cost())
