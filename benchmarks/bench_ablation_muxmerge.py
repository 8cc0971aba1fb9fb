"""Ablation C — the multiplexer-merging post-pass (Sec. 4).

"After allocation improvement, the number of multiplexers can be reduced
by merging together compatible multiplexers."  Reports physical mux
instances and equivalent 2-1 counts before/after merging on EWF
allocations.
"""

from conftest import FAST, publish

from repro.analysis import ablation_muxmerge


def test_ablation_muxmerge(capsys):
    table = ablation_muxmerge(fast=FAST)
    publish(table, "ablation_muxmerge.txt", capsys)

    for row in table.rows:
        _csteps, before_inst, after_inst, before_eq, after_eq = row
        assert after_inst <= before_inst
        assert after_eq <= before_eq
