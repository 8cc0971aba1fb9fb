"""Per-sweep tests for the deterministic polishing passes."""

import functools
import hashlib
import json
import os
import random

import pytest

from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.bench.zoo import FAMILIES, Scenario, default_suite
from repro.datapath.cost import CostWeights
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.asap import asap_length
from repro.sched.explore import schedule_graph
from repro.core import polish
from repro.core.initial import initial_allocation
from repro.core.moves import (MoveSet, _best_pt_choice, _exchange_values,
                              _move_value, _place_run)
from repro.core import polish as polish_mod
from repro.core.improve import ImproveConfig, improve
from repro.core.polish import (_exchange_pairs, _exchanged_placements,
                               _hop_targets, _try_exchange, _try_hop,
                               _try_value_move, _value_move_targets,
                               sweep_fu_moves, sweep_operand_swaps,
                               sweep_passthroughs, sweep_read_sources,
                               sweep_segment_hops, sweep_value_exchanges,
                               sweep_value_moves)
from repro.alloc.checker import check_binding

SPEC = HardwareSpec.non_pipelined()


@pytest.fixture
def binding():
    graph = elliptic_wave_filter()
    schedule = schedule_graph(graph, SPEC, 19)
    return initial_allocation(
        schedule, SPEC.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + 1))


SWEEPS = [sweep_fu_moves, sweep_operand_swaps, sweep_read_sources,
          sweep_value_moves, sweep_value_exchanges, sweep_segment_hops,
          sweep_passthroughs]


@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda f: f.__name__)
def test_each_sweep_monotone_and_legal(sweep, binding):
    start = binding.cost().total
    result = sweep(binding, start)
    assert result <= start + 1e-9
    assert binding.cost().total == pytest.approx(result)
    assert check_binding(binding) == []


def test_sweeps_report_accurate_cost(binding):
    """The running `current` passed between sweeps must track reality."""
    current = binding.cost().total
    for sweep in SWEEPS:
        current = sweep(binding, current)
        assert binding.cost().total == pytest.approx(current)


def test_polish_independent_of_process_history(binding):
    """Regression: polish() once drew from a module-level RNG whose state
    persisted across calls, so a binding's polish result depended on how
    many polishes ran earlier in the process (breaking the bit-identical
    guarantee of the parallel engine's serial fallback).  Polishing equal
    bindings must give equal results no matter what ran in between."""
    first = binding.duplicate()
    second = binding.duplicate()
    cost_first = polish(first)
    # burn extra polishes in between; they must not perturb the next one
    polish(binding.duplicate())
    polish(binding.duplicate())
    cost_second = polish(second)
    assert cost_second == cost_first
    assert second.cost() == first.cost()
    assert second.derived_snapshot() == first.derived_snapshot()


def test_polish_reaches_fixed_point(binding):
    final = polish(binding)
    # a second full polish finds nothing more
    assert polish(binding) == pytest.approx(final)


def test_polish_improves_initial_allocation(binding):
    start = binding.cost().total
    final = polish(binding)
    assert final < start  # the constructive start is never locally optimal


# ---------------------------------------------------------- pinned results

DIGEST_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                              "polish_digests.json")

#: non-default weights: latency priced, mux and wire off their defaults
TIMING_WEIGHTS = CostWeights(mux=1.5, wire=0.2, latency=0.75)


def _initial(graph, spec, length, extra_registers, weights=CostWeights()):
    schedule = schedule_graph(graph, spec, length)
    return initial_allocation(
        schedule, spec.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + extra_registers),
        weights=weights)


def _zoo_initial(scenario, weights=CostWeights()):
    graph = scenario.build()
    spec = scenario.spec()
    definition = scenario.definition
    return _initial(graph, spec,
                    asap_length(graph, spec) + definition.length_slack,
                    definition.extra_registers, weights)


def polish_cases():
    """name -> zero-argument builder of an initial allocation to polish."""
    cases = {
        "ewf": lambda: _initial(elliptic_wave_filter(), SPEC, 19, 1),
        "ewf-timing": lambda: _initial(elliptic_wave_filter(), SPEC, 19, 1,
                                       TIMING_WEIGHTS),
        "dct": lambda: _initial(discrete_cosine_transform(), SPEC, 10, 1),
    }
    for scenario in default_suite(0):
        cases[scenario.name] = functools.partial(_zoo_initial, scenario)
    return cases


def polish_digest(binding):
    """sha256 of a polished binding's cost and decision dicts.

    Every dict is taken in iteration order: ``placements`` order feeds
    the search RNG, so an order change is a result change.
    """
    cost = polish(binding)
    document = {
        "cost": repr(cost),
        "placements": [[v, s, list(regs)]
                       for (v, s), regs in binding.placements.items()],
        "read_src": [[op, port, reg]
                     for (op, port), reg in binding.read_src.items()],
        "out_src": list(binding.out_src.items()),
        "pt_impl": [[list(key), list(impl)]
                    for key, impl in binding.pt_impl.items()],
        "op_fu": list(binding.op_fu.items()),
    }
    blob = json.dumps(document, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def test_polish_results_match_pinned_digests():
    with open(DIGEST_FIXTURE) as handle:
        pinned = json.load(handle)
    cases = polish_cases()
    assert sorted(pinned) == sorted(cases)
    for name, build in cases.items():
        assert polish_digest(build()) == pinned[name], name


# --------------------------------------- priced R3/R4/R2b candidates

#: name -> builder(weights); the zoo families at a small size
PRICED_CASES = {
    "ewf": lambda w: _initial(elliptic_wave_filter(), SPEC, 19, 1, w),
    "dct": lambda w: _initial(discrete_cosine_transform(), SPEC, 10, 1, w),
}
PRICED_CASES.update(
    (family, functools.partial(
        _zoo_initial, Scenario.make(family, **fam.params_from_size(12))))
    for family, fam in FAMILIES.items())


def _observed(binding):
    """The state a rejected candidate must leave as mutation + abort does."""
    state = binding.clone_state()
    return (binding.total_cost(), state, list(state["placements"]),
            list(binding.placements.items()),
            list(binding.read_src.items()), list(binding.out_src.items()),
            list(binding.pt_impl.items()))


def _has_pt(binding, value):
    return any(key[0] == value for key in binding.pt_impl)


def _price(binding, changes):
    """Total cost after *changes*, unapplied, or ``None`` if unpriceable."""
    terms = binding.placement_terms(changes)
    return None if terms is None else binding.price_of(terms[0])


def _check_candidates(ref, live, counts):
    """Walk every R4, R3 then R2b candidate on two identical bindings.

    *ref* applies each candidate inside a journal bracket and keeps it
    only if it strictly improves, as polish did before pricing; *live*
    goes through the priced sweep step.  The price must equal the
    mutated binding's ``total_cost()`` exactly, and both bindings — and
    both hop tie-break RNGs — must agree after every candidate.
    """
    def reference(apply, price, current):
        ref.begin_move()
        apply(ref)
        real = ref.total_cost()
        if price is None:
            counts["unpriced"] += 1
        else:
            counts["priced"] += 1
            assert price == real
        if real < current - 1e-9:
            ref.commit_move()
            return real
        ref.abort_move()
        return None

    current = live.total_cost()
    for value, steps, reg in _value_move_targets(live):
        price = _price(live, {(value, s): (reg,) for s in steps})
        kept = reference(lambda b: _move_value(b, value, steps, reg),
                         price, current)
        assert _try_value_move(live, value, steps, reg, current) == kept
        if kept is not None:
            counts["kept"] += 1
            current = kept
        assert _observed(live) == _observed(ref)
    for v1, v2, shared in _exchange_pairs(live):
        price = _price(live, _exchanged_placements(live, v1, v2, shared))
        kept = reference(lambda b: _exchange_values(b, v1, v2, shared),
                         price, current)
        assert _try_exchange(live, v1, v2, shared, current) == kept
        if kept is not None:
            counts["kept"] += 1
            current = kept
        assert _observed(live) == _observed(ref)
    _check_hops(ref, live, counts, current)


def _check_hops(ref, live, counts, current):
    """The R2b part of :func:`_check_candidates`.

    The reference is the hop as polish applied it before pricing: the
    hop, then (when it creates a transfer) the best pass-through tried
    on top and cleared again unless strictly cheaper, then the keep or
    abort.  *live* must also open no journal bracket for a rejected hop
    on a value without a pass-through.
    """
    ref_rng, live_rng = random.Random(0), random.Random(0)
    brackets = []
    begin = live.begin_move
    live.begin_move = lambda: (brackets.append(1), begin())[1]
    try:
        for value, run, src_step, reg in _hop_targets(live):
            dst_step = run[0]
            terms = live.placement_terms(
                {(value, s): (reg,) for s in run})
            had_pt = _has_pt(live, value)
            assert (terms is None) == had_pt
            ref.begin_move()
            _place_run(ref, value, run, reg)
            real = ref.total_cost()
            if terms is None:
                counts["unpriced"] += 1
            else:
                counts["priced"] += 1
                assert live.price_of(terms[0]) == real
            if reg not in ref.segment_regs(value, src_step):
                impl = _best_pt_choice(ref, ref_rng, value, dst_step, reg,
                                       src_step)
                if impl is not None:
                    ref.set_pt(value, dst_step, reg, impl)
                    with_pt = ref.total_cost()
                    if terms is not None:
                        counts["pt_priced"] += 1
                        assert live.price_passthrough(
                            terms, value, dst_step, reg, impl) == with_pt
                    if with_pt >= real - 1e-9:
                        ref.set_pt(value, dst_step, reg, None)
                        ref.flush()
            if ref.total_cost() < current - 1e-9:
                kept = ref.total_cost()
                ref.commit_move()
            else:
                kept = None
                ref.abort_move()
            del brackets[:]
            assert _try_hop(live, value, run, src_step, reg, current,
                            live_rng) == kept
            if kept is not None:
                counts["kept"] += 1
                current = kept
            elif not had_pt:
                assert not brackets, "a rejected priced hop opened a journal"
                counts["hop_rejects"] += 1
            assert _observed(live) == _observed(ref)
            assert live_rng.getstate() == ref_rng.getstate()
    finally:
        del live.begin_move


@pytest.mark.parametrize("weights", [CostWeights(), TIMING_WEIGHTS],
                         ids=["default", "timing"])
def test_passthrough_price_on_an_idle_fu_matches_applied(weights):
    """Every pass-through for a hop's transfer, on a busy FU and on an
    idle one (whose 0->1 load adds its type's area), is priced exactly."""
    schedule = schedule_graph(elliptic_wave_filter(), SPEC, 19)
    counts = dict(schedule.min_fus())
    counts["adder"] += 1  # adder<n> stays idle: no op is bound to it
    binding = initial_allocation(
        schedule, SPEC.make_fus(counts),
        make_registers(schedule.min_registers() + 1), weights=weights)
    idle = [f for f in binding.pt_capable_fus if not binding._fu_load[f]]
    assert idle
    areas = set()
    for value, run, src_step, reg in _hop_targets(binding):
        if reg in binding.segment_regs(value, src_step):
            continue
        terms = binding.placement_terms({(value, s): (reg,) for s in run})
        for fu in binding.pt_capable_fus:
            if not binding.fu_free(fu, src_step):
                continue
            impl = (binding.segment_regs(value, src_step)[0], fu, 0)
            price = binding.price_passthrough(terms, value, run[0], reg,
                                              impl)
            binding.begin_move()
            _place_run(binding, value, run, reg)
            binding.set_pt(value, run[0], reg, impl)
            assert price == binding.total_cost()
            areas.add(binding.fu_used_area())
            binding.abort_move()
    assert len(areas) == 2  # both the busy and the idle case were priced


@pytest.mark.parametrize("weights", [CostWeights(), TIMING_WEIGHTS],
                         ids=["default", "timing"])
@pytest.mark.parametrize("case", sorted(PRICED_CASES))
def test_priced_candidates_match_applied_ones(case, weights):
    build = PRICED_CASES[case]
    ref, live = build(weights), build(weights)
    counts = {"priced": 0, "unpriced": 0, "kept": 0, "pt_priced": 0,
              "hop_rejects": 0}
    _check_candidates(ref, live, counts)
    # searched states hold split values; polished ones pass-throughs
    config = ImproveConfig(max_trials=2, moves_per_trial=150, seed=5,
                           polish_trials=False)
    for step in (lambda b: improve(b, config), polish):
        step(ref)
        step(live)
        assert _observed(live) == _observed(ref)
        _check_candidates(ref, live, counts)
    assert counts["priced"] > 0
    assert counts["hop_rejects"] > 0
    if live.pt_capable_fus:
        assert counts["pt_priced"] > 0


if __name__ == "__main__":
    # regenerate the pinned digests (only when polish is meant to change):
    #   PYTHONPATH=src python tests/core/test_polish.py
    digests = {name: polish_digest(build())
               for name, build in sorted(polish_cases().items())}
    os.makedirs(os.path.dirname(DIGEST_FIXTURE), exist_ok=True)
    with open(DIGEST_FIXTURE, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
