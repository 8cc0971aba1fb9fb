"""Snapshot round trips: the one restore path and the one load path.

``restore_state`` returns a binding to a snapshot it cloned itself, by
diffing the decision dicts and bulk-copying the clone-time derived state;
it refuses every other snapshot.  ``Binding.from_state`` loads any
name-keyed snapshot (another binding's clone, a pickled or decoded copy)
into a fresh binding through the primitives.  Both must land on the
snapshot's decisions, and ``placements`` must iterate in the documented
order (dict order feeds the transfer-enumeration RNG, so an ordering
difference *is* a trajectory difference).
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.datapath.units import HardwareSpec, make_registers
from repro.errors import BindingError
from repro.sched.explore import schedule_graph
from repro.core import ImproveConfig, improve, initial_allocation
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


def load(binding, state):
    """A fresh binding of *binding*'s problem loaded from *state*."""
    return Binding.from_state(binding.schedule, list(binding.fus.values()),
                              list(binding.regs.values()), state,
                              binding.weights)


class TestSnapshotRoundTrips:

    def test_clone_equals_its_own_mapping(self):
        binding = fresh_binding("dct")
        state = binding.clone_state()
        assert isinstance(state, BindingState)
        assert state == dict(state)
        assert state == binding.clone_state()

    def test_restore_round_trip_is_identity(self):
        # The restored placements iteration order is by design NOT the
        # clone-time order: unchanged keys keep their live position,
        # differing keys re-enter in snapshot order.
        binding = fresh_binding("ewf")
        improve(binding, ImproveConfig(max_trials=1, moves_per_trial=150,
                                       seed=4))
        state = binding.clone_state()
        rng = random.Random(5)  # drift: 60 unpriced random moves
        moves = [fn for _name, fn, _weight in MoveSet().enabled_moves()]
        for _ in range(60):
            rng.choice(moves)(binding, rng)
        drifted = dict(binding.placements)
        binding.restore_state(state)
        # the restored binding's decision content is the snapshot's, and
        # its derived state is what the decisions derive to
        assert state == binding.clone_state()
        assert binding.derived_snapshot() == \
            load(binding, state).derived_snapshot()
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
        other = load(binding, decoded)
        assert other.total_cost() == binding.total_cost()
        assert other.derived_snapshot() == binding.derived_snapshot()
        assert other.clone_state() == state
        # an encoded snapshot carries no live insertion order: it decodes,
        # and loads, in sorted-segment order
        assert list(decoded["placements"]) == sorted(decoded["placements"])
        assert list(other.placements) == list(decoded["placements"])

    def test_pickle_drops_derived_but_keeps_decisions(self):
        binding = fresh_binding("dct")
        state = binding.clone_state()
        assert state.derived is not None
        clone = pickle.loads(pickle.dumps(state))
        assert clone.derived is None
        assert clone.owner is None
        assert clone == state
        other = load(binding, clone)
        assert other.total_cost() == binding.total_cost()
        assert list(other.placements) == list(state["placements"])


@pytest.mark.parametrize("source", ["plain-dict", "other-binding",
                                    "pickled", "inside-move"])
def test_restore_takes_only_its_own_snapshot(source):
    binding = fresh_binding("dct")
    state = binding.clone_state()
    if source == "plain-dict":
        state = dict(state)
    elif source == "other-binding":
        state = fresh_binding("dct").clone_state()
    elif source == "pickled":
        state = pickle.loads(pickle.dumps(state))
    else:
        binding.begin_move()
    with pytest.raises(BindingError):
        binding.restore_state(state)
    if source == "inside-move":
        binding.abort_move()
        binding.restore_state(state)  # the bracket closed: it restores
    # every one of them still loads into a fresh binding
    assert load(binding, state).clone_state() == binding.clone_state()
