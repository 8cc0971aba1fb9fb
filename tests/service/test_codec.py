"""Request decoding and content-addressed key invariants."""

from __future__ import annotations

import json

import pytest

from repro.bench import elliptic_wave_filter
from repro.bench.runner import asap_length
from repro.bench.zoo import FAMILIES, Scenario
from repro.datapath.units import HardwareSpec
from repro.io.json_io import cdfg_to_dict, cdfg_to_json, spec_to_dict
from repro.sched import schedule_graph
from repro.service.codec import (MAX_RESTARTS, AllocateRequest,
                                 RequestError, cache_key_payload,
                                 job_id_for, request_from_dict, request_key,
                                 warm_key)


def make_request(**overrides):
    body = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 3}
    body.update(overrides)
    return request_from_dict(body)


def test_decode_named_bench():
    request = make_request()
    assert request.graph.name == elliptic_wave_filter().name
    assert request.length == 17
    assert request.seed == 3
    assert request.engine == "improve"
    assert request.model == "salsa"


def test_embedded_document_matches_named_bench_key():
    # {"bench": "ewf"} and the full serialized EWF graph are the same
    # request: both must land on the same cache key
    named = make_request()
    document = json.loads(cdfg_to_json(elliptic_wave_filter()))
    embedded = request_from_dict(
        {"cdfg": document, "length": 17, "seed": 3})
    assert request_key(named) == request_key(embedded)
    assert warm_key(named) == warm_key(embedded)


def test_delivery_options_do_not_change_the_key():
    base = make_request()
    with_deadline = make_request(deadline_ms=50)
    with_warm = make_request(warm_start=True)
    assert request_key(base) == request_key(with_deadline)
    assert request_key(base) == request_key(with_warm)
    # ... but search identity does
    assert request_key(base) != request_key(make_request(seed=4))
    assert request_key(base) != request_key(make_request(restarts=2))
    assert request_key(base) != request_key(make_request(engine="anneal"))


def test_warm_key_ignores_search_knobs():
    base = make_request()
    assert warm_key(base) == warm_key(make_request(seed=99))
    assert warm_key(base) == warm_key(make_request(engine="anneal"))
    assert warm_key(base) == warm_key(
        make_request(improve={"max_trials": 1}))
    # the problem shape does change it
    assert warm_key(base) != warm_key(make_request(length=19))
    assert warm_key(base) != warm_key(make_request(model="traditional"))


def test_key_payload_is_canonical_json():
    payload = cache_key_payload(make_request())
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert json.loads(text) == payload  # round-trips losslessly


def test_job_id_is_deterministic_and_short():
    key = request_key(make_request())
    assert job_id_for(key) == job_id_for(key)
    assert len(job_id_for(key)) == 16
    assert job_id_for(key) != job_id_for(request_key(make_request(seed=4)))


@pytest.mark.parametrize("body,phrase", [
    ({}, "missing the 'cdfg'"),
    ({"cdfg": {"bench": "nope"}}, "unknown benchmark"),
    ({"cdfg": {"bench": "ewf"}, "bogus": 1}, "unknown request fields"),
    ({"cdfg": {"bench": "ewf"}, "engine": "genetic"}, "unknown engine"),
    ({"cdfg": {"bench": "ewf"}, "model": "quantum"}, "unknown model"),
    ({"cdfg": {"bench": "ewf"}, "restarts": 0}, "restarts"),
    ({"cdfg": {"bench": "ewf"}, "deadline_ms": -5}, "deadline_ms"),
    ({"cdfg": {"bench": "ewf"}, "improve": {"warp": 9}}, "improve knob"),
    ({"cdfg": {"bench": "ewf"}, "anneal": {"warp": 9}}, "anneal knob"),
    ({"cdfg": {"bench": "ewf"}, "spec": 7}, "spec"),
    ({"cdfg": "ewf"}, "'cdfg' must be"),
    # engine knob values: each used to be queued and then fail the job
    # (ZeroDivisionError, TypeError) or run quietly wrong ("no" is True)
    ({"cdfg": {"bench": "ewf"}, "anneal": {"initial_temperature": 0}},
     "initial_temperature"),
    ({"cdfg": {"bench": "ewf"}, "anneal": {"min_temperature": -1.0}},
     "min_temperature"),
    ({"cdfg": {"bench": "ewf"}, "anneal": {"initial_temperature": "hot"}},
     "initial_temperature"),
    ({"cdfg": {"bench": "ewf"}, "anneal": {"cooling": "x"}}, "cooling"),
    ({"cdfg": {"bench": "ewf"}, "anneal": {"cooling": 1.5}}, "cooling"),
    ({"cdfg": {"bench": "ewf"}, "anneal": {"cooling": 0}}, "cooling"),
    ({"cdfg": {"bench": "ewf"}, "anneal": {"temperature_levels": 2.5}},
     "temperature_levels"),
    ({"cdfg": {"bench": "ewf"}, "improve": {"max_trials": "3"}},
     "max_trials"),
    ({"cdfg": {"bench": "ewf"}, "improve": {"moves_per_trial": -1}},
     "moves_per_trial"),
    ({"cdfg": {"bench": "ewf"}, "improve": {"uphill_per_trial": True}},
     "uphill_per_trial"),
    ({"cdfg": {"bench": "ewf"}, "improve": {"restart_from_best": "no"}},
     "restart_from_best"),
    ({"cdfg": {"bench": "ewf"}, "improve": {"polish_trials": 0}},
     "polish_trials"),
    ({"cdfg": {"bench": "ewf"}, "improve": [["max_trials", 3]]},
     "'improve' must be an object"),
    ({"cdfg": {"bench": "ewf"}, "restarts": "2"}, "restarts"),
    ({"cdfg": {"bench": "ewf"}, "restarts": 2.5}, "restarts"),
    ({"cdfg": {"bench": "ewf"}, "seed": "7"}, "seed"),
    ({"cdfg": {"bench": "ewf"}, "seed": 7.0}, "seed"),
    ({"cdfg": {"bench": "ewf"}, "seed": True}, "seed"),
    # delivery options: a NaN deadline never fires, true was a 1 ms
    # deadline, and bool() made each of these strings true
    ({"cdfg": {"bench": "ewf"}, "deadline_ms": float("nan")}, "deadline_ms"),
    ({"cdfg": {"bench": "ewf"}, "deadline_ms": True}, "deadline_ms"),
    ({"cdfg": {"bench": "ewf"}, "cache": "false"}, "cache"),
    ({"cdfg": {"bench": "ewf"}, "warm_start": "false"}, "warm_start"),
    ({"cdfg": {"bench": "ewf"}, "async": "false"}, "async"),
])
def test_bad_requests_are_rejected(body, phrase):
    with pytest.raises(RequestError, match=phrase):
        request_from_dict(body)


@pytest.mark.parametrize("value", ["x", "2.0", True, None, [1],
                                   float("nan"), float("inf"),
                                   float("-inf")],
                         ids=repr)
def test_non_finite_or_non_numeric_weights_rejected(value):
    """Such a weight used to decode and get a request key, then fail
    inside the search (a TypeError, or a NaN making every accept test
    false)."""
    with pytest.raises(RequestError, match="not a finite number"):
        make_request(weights={"mux": value})
    with pytest.raises(RequestError, match="latency_weight"):
        make_request(latency_weight=value)


def test_integer_weights_still_accepted_with_their_old_key():
    request = make_request(weights={"mux": 2, "fu": 16.0},
                           latency_weight=1)
    assert request.weights.mux == 2
    assert request.weights.latency == 1.0
    # the key this body had before numeric validation was added
    assert request_key(request) == \
        "0a1be597b363964f32327bee42e860b6027d934b7acea276684e2dfb274c1074"


def test_spec_strings_and_knob_dicts_accepted():
    request = request_from_dict({
        "cdfg": {"bench": "dct"}, "spec": "pipelined",
        "engine": "anneal", "model": "traditional",
        "anneal": {"temperature_levels": 3, "moves_per_level": 50},
        "weights": {"mux": 2.0},
    })
    assert request.spec.fu_types["pmult"].pipelined
    assert request.anneal["temperature_levels"] == 3
    assert request.weights.mux == 2.0


def test_direct_construction_validates_too():
    graph = elliptic_wave_filter()
    from repro.datapath.units import HardwareSpec
    with pytest.raises(RequestError):
        AllocateRequest(graph=graph, spec=HardwareSpec.non_pipelined(),
                        engine="bogus")


class TestTimingKnobs:
    """The latency_weight / max_clock_ns knobs and key compatibility."""

    FIXTURE = "tests/service/fixtures/request_keys.json"

    def test_keys_unchanged_for_requests_omitting_the_knobs(self):
        # exact-key backward compatibility: the committed fixture was
        # recorded against the pre-timing codec, so any drift here would
        # invalidate every production cache entry
        import os
        with open(os.path.join(os.path.dirname(__file__), "fixtures",
                               "request_keys.json")) as handle:
            fixture = json.load(handle)
        assert len(fixture) >= 4
        for name, entry in sorted(fixture.items()):
            request = request_from_dict(entry["body"])
            assert request_key(request) == entry["request_key"], name
            assert warm_key(request) == entry["warm_key"], name

    def test_latency_weight_changes_the_key(self):
        plain = make_request()
        weighted = make_request(latency_weight=0.5)
        assert weighted.weights.latency == 0.5
        assert request_key(weighted) != request_key(plain)
        assert warm_key(weighted) != warm_key(plain)

    def test_max_clock_changes_the_key_but_not_the_shape(self):
        plain = make_request()
        clocked = make_request(max_clock_ns=2.5)
        assert clocked.max_clock_ns == 2.5
        assert request_key(clocked) != request_key(plain)
        # a clock constraint restricts acceptance, not the problem shape
        assert warm_key(clocked) == warm_key(plain)

    def test_zero_latency_weight_is_the_old_key(self):
        # explicit 0.0 must hash like full omission: the zero weight IS
        # the pre-timing cost function
        assert request_key(make_request(latency_weight=0.0)) == \
            request_key(make_request())

    def test_latency_weight_conflicts_with_weights_latency(self):
        with pytest.raises(RequestError, match="not both"):
            make_request(latency_weight=0.5,
                         weights={"fu": 1.0, "latency": 0.5})

    def test_weights_latency_spelled_out_matches_shorthand(self):
        shorthand = make_request(latency_weight=0.25)
        spelled = make_request(weights={"latency": 0.25})
        assert request_key(shorthand) == request_key(spelled)

    def test_bad_knob_values_rejected(self):
        with pytest.raises(RequestError, match="latency_weight"):
            make_request(latency_weight="fast")
        with pytest.raises(RequestError, match="max_clock_ns"):
            make_request(max_clock_ns="soon")
        with pytest.raises(RequestError, match="positive"):
            make_request(max_clock_ns=-1.0)

    @pytest.mark.parametrize("value", ["nan", float("inf"), True, "2.5"],
                             ids=repr)
    def test_max_clock_must_be_a_finite_number(self, value):
        # these used to decode to nan, inf, 1.0 and 2.5
        with pytest.raises(RequestError, match="not a finite number"):
            make_request(max_clock_ns=value)

    def test_integer_max_clock_keeps_its_key(self):
        assert request_key(make_request(max_clock_ns=3)) == \
            request_key(make_request(max_clock_ns=3.0))

    def test_payload_omits_absent_constraint(self):
        payload = cache_key_payload(make_request())
        assert "max_clock_ns" not in payload
        assert "latency" not in payload["weights"]
        clocked = cache_key_payload(make_request(max_clock_ns=3.0))
        assert clocked["max_clock_ns"] == 3.0


class TestSchedulingFields:
    """``length``, ``registers`` and ``fu_counts`` must be integers >= 1."""

    @pytest.mark.parametrize("value", ["17", 17.5, 17.0, True, 0, -3],
                             ids=repr)
    def test_bad_length_rejected(self, value):
        # "17" and 17.5 used to decode and then fail with a TypeError
        # inside scheduling; True decoded to a length of 1
        with pytest.raises(RequestError, match="bad length"):
            make_request(length=value)

    @pytest.mark.parametrize("value", [True, "12", 12.0, 0], ids=repr)
    def test_bad_registers_rejected(self, value):
        with pytest.raises(RequestError, match="bad registers"):
            make_request(registers=value)

    @pytest.mark.parametrize("value", [2.7, True, "2", 0], ids=repr)
    def test_bad_fu_count_rejected(self, value):
        # int() used to turn 2.7 into 2 and true into 1
        with pytest.raises(RequestError, match="bad fu_counts"):
            make_request(fu_counts={"adder": 3, "mult": value})

    def test_length_over_twice_a_serial_schedule_rejected(self):
        # the scheduler sized its busy columns by any accepted length
        serial = sum(HardwareSpec.non_pipelined().delays()[op.kind]
                     for op in elliptic_wave_filter().ops.values())
        assert make_request(length=2 * serial).length == 2 * serial
        for value in (2 * serial + 1, 10 ** 9):
            with pytest.raises(RequestError, match="bad length"):
                make_request(length=value)

    def test_fu_count_over_ops_plus_values_rejected(self):
        # make_fus built one object per counted unit
        graph = elliptic_wave_filter()
        most = len(graph.ops) + len(graph.values)
        request = make_request(fu_counts={"adder": most, "mult": 3})
        assert request.fu_counts == {"adder": most, "mult": 3}
        for value in (most + 1, 10 ** 9):
            with pytest.raises(RequestError, match="bad fu_counts"):
                make_request(fu_counts={"adder": 3, "mult": value})

    def test_registers_over_ops_plus_values_rejected(self):
        # make_registers built one object per register
        graph = elliptic_wave_filter()
        most = len(graph.ops) + len(graph.values)
        assert make_request(registers=most).registers == most
        for value in (most + 1, 10 ** 9):
            with pytest.raises(RequestError, match="bad registers"):
                make_request(registers=value)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_register_cap_admits_the_zoo(self, family):
        # the length and registers the zoo sweep asks of each family's
        # scenario; a chain's critical path is its serial length, so
        # fanout's sweep length is over the serial length
        scenario = Scenario.make(family)
        graph, spec = scenario.build(), scenario.spec()
        definition = scenario.definition
        length = asap_length(graph, spec) + definition.length_slack
        schedule = schedule_graph(graph, spec, length=length)
        registers = schedule.min_registers() + definition.extra_registers
        request = request_from_dict({"cdfg": cdfg_to_dict(graph),
                                     "spec": spec_to_dict(spec),
                                     "length": length,
                                     "registers": registers})
        assert (request.length, request.registers) == (length, registers)

    def test_fu_counts_must_be_an_object(self):
        with pytest.raises(RequestError, match="fu_counts"):
            make_request(fu_counts=[3, 3])

    def test_integer_fields_keep_their_values_and_key(self):
        request = make_request(registers=12, fu_counts={"mult": 3,
                                                        "adder": 2})
        assert request.length == 17
        assert request.registers == 12
        assert request.fu_counts == {"mult": 3, "adder": 2}
        payload = cache_key_payload(request)
        assert payload["length"] == 17 and payload["registers"] == 12
        assert payload["fu_counts"] == {"adder": 2, "mult": 3}


def test_restarts_over_the_cap_rejected():
    # prepare_jobs built one restart job per restart before any search
    assert make_request(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
    for value in (MAX_RESTARTS + 1, 10 ** 9):
        with pytest.raises(RequestError, match="bad restarts"):
            make_request(restarts=value)
