"""Figure 1: MNIST-like loss curves on fully connected graphs.

Paper reference: Fig. 1 — average training loss vs. communication round for
DP-DPSGD, DP-CGA, MUFFLIATO, DP-NET-FLEET and PDSL on fully connected
topologies, with M in {10, 15, 20} and epsilon in {0.08, 0.1, 0.3}.
"""

from figure_common import pdsl_win_stats, run_figure_grid


def test_bench_figure1_mnist_fully_connected(benchmark, bench_config):
    results = benchmark.pedantic(
        lambda: run_figure_grid("mnist", "fully_connected", figure_number=1),
        rounds=1,
        iterations=1,
    )
    wins, total, wins_at_max, panels_at_max = pdsl_win_stats(results, metric="loss")
    # Paper shape: PDSL attains the lowest final loss.  At the reduced
    # benchmark scale we require this strictly at the largest privacy budget
    # and in a majority of panels overall (the smallest budgets are
    # noise-dominated for every algorithm).
    assert wins_at_max == panels_at_max
    assert wins >= total / 2
