"""Figure 4 — value-split cost mechanics.

Rebuilds the figure's datapath (one value feeding operators on two FUs)
and asserts that storing a copy in a second register removes exactly one
equivalent 2-1 multiplexer, as the paper argues.
"""

from conftest import publish

from repro.analysis import figure4_experiment, value_split_demo


def test_fig4_value_split(capsys):
    table = figure4_experiment()
    publish(table, "fig4_value_split.txt", capsys)

    single = table.rows[0][1]
    split = table.rows[1][1]
    assert single - split == 1

    demo = value_split_demo()
    assert demo["split_wires"] <= demo["single_wires"]
