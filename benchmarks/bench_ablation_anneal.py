"""Ablation A — iterative improvement vs simulated annealing (Sec. 4).

"Attempts to use annealing produced poor results and seldom converged on a
good solution."  At equal move budgets the bounded-uphill scheme should
end at an equal-or-lower cost.
"""

from conftest import FAST, publish

from repro.analysis import ablation_anneal


def test_ablation_anneal(capsys):
    table = ablation_anneal(fast=FAST)
    publish(table, "ablation_anneal.txt", capsys)

    by_name = {row[0]: row[1] for row in table.rows}
    assert by_name["iterative improvement"] <= \
        by_name["simulated annealing"] + 1  # allow one-mux noise
