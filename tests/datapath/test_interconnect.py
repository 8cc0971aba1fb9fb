"""Unit tests for the connection ledger (incremental mux counting)."""

import pytest

from repro.errors import DatapathError
from repro.datapath.interconnect import (ConnectionLedger, fu_in, fu_out,
                                         in_port, out_port, reg_in, reg_out)


class TestEndpoints:
    def test_constructors(self):
        assert fu_out("f") == ("fu_out", "f")
        assert reg_out("r") == ("reg_out", "r")
        assert in_port("v") == ("in_port", "v")
        assert fu_in("f", 1) == ("fu_in", "f", 1)
        assert reg_in("r") == ("reg_in", "r")
        assert out_port("v") == ("out_port", "v")


class TestLedger:
    def test_single_source_costs_nothing(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R0"), fu_in("f", 0))
        assert ledger.mux_count == 0
        assert ledger.wire_count == 1

    def test_k_sources_cost_k_minus_one(self):
        ledger = ConnectionLedger()
        for i in range(4):
            ledger.add(reg_out(f"R{i}"), fu_in("f", 0))
        assert ledger.mux_count == 3

    def test_reference_counting(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R0"), fu_in("f", 0))
        ledger.add(reg_out("R0"), fu_in("f", 0))  # second use, same wire
        ledger.add(reg_out("R1"), fu_in("f", 0))
        assert ledger.mux_count == 1
        ledger.remove(reg_out("R0"), fu_in("f", 0))
        assert ledger.mux_count == 1  # still one use left
        ledger.remove(reg_out("R0"), fu_in("f", 0))
        assert ledger.mux_count == 0

    def test_remove_nonexistent_raises(self):
        ledger = ConnectionLedger()
        with pytest.raises(DatapathError, match="non-existent"):
            ledger.remove(reg_out("R0"), fu_in("f", 0))

    def test_independent_sinks(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R0"), fu_in("f", 0))
        ledger.add(reg_out("R0"), fu_in("f", 1))
        ledger.add(reg_out("R1"), fu_in("f", 1))
        assert ledger.mux_count == 1
        assert ledger.fanin(fu_in("f", 0)) == 1
        assert ledger.fanin(fu_in("f", 1)) == 2

    def test_sources_of_sorted(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R1"), reg_in("X"))
        ledger.add(reg_out("R0"), reg_in("X"))
        assert ledger.sources_of(reg_in("X")) == [reg_out("R0"),
                                                  reg_out("R1")]

    def test_bulk_events(self):
        ledger = ConnectionLedger()
        events = [(reg_out("R0"), fu_in("f", 0)),
                  (reg_out("R1"), fu_in("f", 0))]
        ledger.add_events(events)
        assert ledger.mux_count == 1
        ledger.remove_events(events)
        assert ledger.mux_count == 0
        assert ledger.wire_count == 0

    def test_verify_detects_consistency(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R0"), fu_in("f", 0))
        ledger.verify()
        ledger._mux_total = 99  # corrupt deliberately
        with pytest.raises(DatapathError, match="out of sync"):
            ledger.verify()

    def test_uses_and_connections(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R0"), fu_in("f", 0))
        ledger.add(reg_out("R0"), fu_in("f", 0))
        assert ledger.uses(reg_out("R0"), fu_in("f", 0)) == 2
        assert ledger.connections() == [(reg_out("R0"), fu_in("f", 0))]

    def test_repr(self):
        assert "wires=0" in repr(ConnectionLedger())


class TestRandomizedConsistency:
    def test_adds_and_removes_stay_consistent(self):
        import random
        rng = random.Random(7)
        ledger = ConnectionLedger()
        live = []
        for _ in range(2000):
            if live and rng.random() < 0.45:
                src, snk = live.pop(rng.randrange(len(live)))
                ledger.remove(src, snk)
            else:
                src = reg_out(f"R{rng.randrange(6)}")
                snk = fu_in(f"f{rng.randrange(3)}", rng.randrange(2))
                ledger.add(src, snk)
                live.append((src, snk))
            ledger.verify()
        for src, snk in live:
            ledger.remove(src, snk)
        assert ledger.mux_count == 0 and ledger.wire_count == 0


class TestMuxDepth:
    """Incremental ceil(log2(fanin)) tree-depth accounting."""

    def test_depth_follows_ceil_log2(self):
        ledger = ConnectionLedger()
        expected = [0, 0, 1, 2, 2, 3, 3, 3, 3]  # depth after n sources
        for i in range(8):
            ledger.add(reg_out(f"R{i}"), fu_in("f", 0))
            assert ledger.mux_depth == expected[i + 1]

    def test_depth_sums_over_sinks(self):
        ledger = ConnectionLedger()
        for i in range(4):  # 4:1 tree -> depth 2
            ledger.add(reg_out(f"R{i}"), fu_in("f", 0))
        for i in range(2):  # 2:1 -> depth 1
            ledger.add(reg_out(f"R{i}"), reg_in("X"))
        assert ledger.mux_depth == 3

    def test_removal_unwinds_depth(self):
        ledger = ConnectionLedger()
        for i in range(5):
            ledger.add(reg_out(f"R{i}"), fu_in("f", 0))
        assert ledger.mux_depth == 3
        for i in reversed(range(5)):
            ledger.remove(reg_out(f"R{i}"), fu_in("f", 0))
        assert ledger.mux_depth == 0

    def test_reference_counting_does_not_deepen(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R0"), fu_in("f", 0))
        ledger.add(reg_out("R0"), fu_in("f", 0))  # same wire again
        assert ledger.mux_depth == 0
        ledger.add(reg_out("R1"), fu_in("f", 0))
        assert ledger.mux_depth == 1

    def test_snapshot_round_trips_depth(self):
        ledger = ConnectionLedger()
        for i in range(4):
            ledger.add(reg_out(f"R{i}"), fu_in("f", 0))
        snap = ledger.snapshot()
        ledger.add(reg_out("R4"), fu_in("f", 0))
        assert ledger.mux_depth == 3
        ledger.restore(snap)
        assert ledger.mux_depth == 2
        ledger.verify()

    def test_verify_catches_depth_corruption(self):
        ledger = ConnectionLedger()
        ledger.add(reg_out("R0"), fu_in("f", 0))
        ledger.add(reg_out("R1"), fu_in("f", 0))
        ledger._depth_total = 7  # corrupt deliberately
        with pytest.raises(DatapathError, match="out of sync"):
            ledger.verify()


class TestPrice:
    """``price`` reports what applying a net use delta would change."""

    def test_price_matches_applying_random_deltas(self):
        import random
        rng = random.Random(11)
        ledger = ConnectionLedger()
        for _ in range(300):
            delta = {}
            for _ in range(rng.randrange(1, 8)):
                pair = (reg_out(f"R{rng.randrange(6)}"),
                        fu_in(f"f{rng.randrange(2)}", rng.randrange(2)))
                low = -(ledger.uses(*pair) + delta.get(pair, 0))
                delta[pair] = delta.get(pair, 0) + rng.randint(max(low, -2), 2)
            before = (ledger.mux_count, ledger.wire_count, ledger.mux_depth)
            priced = ledger.price(delta)
            assert (ledger.mux_count, ledger.wire_count,
                    ledger.mux_depth) == before  # read-only
            for pair, change in delta.items():
                for _ in range(change):
                    ledger.add_pair(pair)
                for _ in range(-change):
                    ledger.remove_pair(pair)
            ledger.verify()
            assert priced == (ledger.mux_count - before[0],
                              ledger.wire_count - before[1],
                              ledger.mux_depth - before[2])

    def test_price_of_a_swap_between_sinks(self):
        ledger = ConnectionLedger()
        for i in range(3):  # 3:1 at f.0 (mux 2, depth 2), 1:1 at f.1
            ledger.add(reg_out(f"R{i}"), fu_in("f", 0))
        ledger.add(reg_out("R0"), fu_in("f", 1))
        moved = {(reg_out("R2"), fu_in("f", 0)): -1,
                 (reg_out("R2"), fu_in("f", 1)): 1}
        # f.0 drops to 2:1 (mux 1, depth 1), f.1 rises to 2:1 (mux 1,
        # depth 1): the mux total holds, depth holds, wires hold
        assert ledger.price(moved) == (0, 0, 0)
        assert ledger.price({(reg_out("R3"), fu_in("f", 0)): 1}) == (1, 1, 0)
        assert ledger.price({(reg_out("R3"), reg_in("X")): 2}) == (0, 1, 0)

    def test_price_rejects_removing_absent_uses(self):
        ledger = ConnectionLedger()
        with pytest.raises(DatapathError, match="non-existent"):
            ledger.price({(reg_out("R0"), fu_in("f", 0)): -1})
