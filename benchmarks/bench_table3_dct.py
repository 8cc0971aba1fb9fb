"""Table 3 — DCT allocations for four schedules.

Regenerates the paper's larger-example table on the 48-op discrete cosine
transform (25 add / 7 sub / 16 mul).
"""

from conftest import FAST, publish

from repro.analysis import dct_table3


def test_table3_dct(capsys):
    table = dct_table3(fast=FAST)
    publish(table, "table3_dct.txt", capsys)

    salsa = [row[5] for row in table.rows]
    trad = [row[6] for row in table.rows]
    assert all(s <= t for s, t in zip(salsa, trad))
    assert len(table.rows) == 4  # the paper reports four schedules
