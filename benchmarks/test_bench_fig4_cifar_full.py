"""Figure 4: CIFAR-like loss curves on fully connected graphs.

Paper reference: Fig. 4 — average training loss vs. round on fully connected
topologies for the CIFAR-10 experiment family (epsilon in {0.5, 0.7, 1.0},
momentum 0.7).
"""

from figure_common import pdsl_win_stats, run_figure_grid


def test_bench_figure4_cifar_fully_connected(benchmark, bench_config):
    results = benchmark.pedantic(
        lambda: run_figure_grid("cifar", "fully_connected", figure_number=4),
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
