"""Ablation A: what does the Shapley weighting actually buy?

The Shapley-weighted aggregation (eqs. 18–21) is PDSL's central design
choice.  This ablation compares, under identical data,
topology and privacy noise:

* **PDSL** — Shapley-weighted aggregation of the perturbed cross-gradients;
* **uniform cross-gradient averaging** — DP-CGA, which aggregates the same
  perturbed cross-gradients without contribution weighting;
* **no cross-gradients at all** — DMSGD, a momentum gossip baseline that only
  uses the local perturbed gradient.

The expected ordering (PDSL >= DP-CGA >= DMSGD in accuracy) isolates the
benefit of (a) cross-gradient information and (b) Shapley weighting on top.
"""

from conftest import bench_rounds

from repro.experiments.harness import build_experiment_components, run_single
from repro.experiments.specs import fast_spec


def run_shapley_ablation():
    spec = fast_spec(num_agents=8, epsilon=0.3, num_rounds=bench_rounds(), seed=17)
    components = build_experiment_components(spec)
    results = {}
    for name in ("PDSL", "DP-CGA", "DMSGD"):
        results[name] = run_single(name, components)
    print()
    print("=" * 78)
    print("Ablation A: Shapley weighting vs uniform cross-gradients vs local-only")
    print(f"{'variant':>10s} {'final loss':>12s} {'test accuracy':>15s}")
    for name, history in results.items():
        print(f"{name:>10s} {history.final_loss():>12.3f} {history.final_test_accuracy:>15.3f}")
    return results


def test_bench_ablation_shapley_weighting(benchmark, bench_config):
    results = benchmark.pedantic(run_shapley_ablation, rounds=1, iterations=1)
    accuracy = {name: h.final_test_accuracy for name, h in results.items()}
    # Shapley-weighted aggregation should not lose to uniform averaging of the
    # same information, and cross-gradient methods should beat local-only.
    assert accuracy["PDSL"] >= accuracy["DP-CGA"] - 0.02
    assert accuracy["PDSL"] >= accuracy["DMSGD"] - 0.02
