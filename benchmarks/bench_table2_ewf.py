"""Table 2 — EWF allocations across schedules and register budgets.

Regenerates the paper's main result table: equivalent 2-1 multiplexer
counts for the elliptic wave filter at 17/19/21 control steps (pipelined
and non-pipelined multipliers) under varying register budgets, SALSA
extended model vs. the traditional binding model.
"""

from conftest import FAST, publish

from repro.analysis import ewf_table2


def test_table2_ewf(capsys):
    table = ewf_table2(fast=FAST, extra_registers=(0, 1) if FAST
                       else (0, 1, 2))
    publish(table, "table2_ewf.txt", capsys)

    # shape assertions: the extended model never loses, and wins somewhere
    salsa = [row[5] for row in table.rows]
    trad = [row[6] for row in table.rows]
    assert all(s <= t for s, t in zip(salsa, trad))
    assert any(s < t for s, t in zip(salsa, trad)), \
        "expected at least one strict SALSA win across Table 2"
