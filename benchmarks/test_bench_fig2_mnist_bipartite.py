"""Figure 2: MNIST-like loss curves on bipartite graphs.

Paper reference: Fig. 2 — same grid as Fig. 1 but over the sparser complete
bipartite topology.
"""

from figure_common import pdsl_win_stats, run_figure_grid


def test_bench_figure2_mnist_bipartite(benchmark, bench_config):
    results = benchmark.pedantic(
        lambda: run_figure_grid("mnist", "bipartite", figure_number=2),
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
