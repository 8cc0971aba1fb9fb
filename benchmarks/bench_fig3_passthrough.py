"""Figure 3 — pass-through vs direct transfer cost mechanics.

Rebuilds the figure's exact datapath situation and asserts the claimed
saving (one equivalent 2-1 multiplexer) and that the pass-through
datapath needs fewer wires than the direct transfer.
"""

from conftest import publish

from repro.analysis import figure3_experiment, passthrough_demo


def test_fig3_passthrough(capsys):
    table = figure3_experiment()
    publish(table, "fig3_passthrough.txt", capsys)

    direct_mux = table.rows[0][1]
    pt_mux = table.rows[1][1]
    assert direct_mux - pt_mux == 1

    demo = passthrough_demo()
    assert demo["pt_wires"] < demo["direct_wires"]
