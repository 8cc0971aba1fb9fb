"""Ablation B — contribution of each extended-binding-model feature.

Starting from one shared traditional-model optimum, successively enables
value segments, pass-throughs and value splits (the three extensions of
Sec. 2) and reports the resulting mux counts: the column must be
non-increasing by construction, and any strict drop quantifies that
feature's contribution on the EWF.
"""

from conftest import FAST, publish

from repro.analysis import ablation_features


def test_ablation_features(capsys):
    table = ablation_features(fast=FAST)
    publish(table, "ablation_features.txt", capsys)

    muxes = [row[1] for row in table.rows]
    assert muxes == sorted(muxes, reverse=True) or \
        all(m <= muxes[0] for m in muxes)
    assert muxes[-1] <= muxes[0]
