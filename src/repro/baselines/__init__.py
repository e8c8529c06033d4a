"""Reference algorithms the paper compares against (Sec. VI-B).

All baselines share the :class:`~repro.core.base.DecentralizedAlgorithm`
infrastructure (identical initial model, same batch and noise streams, same
clipping and Gaussian mechanism, same mixing matrix), so differences
in the experiment results come from the algorithmic updates only.

* :class:`DPDPSGD` — differentially private decentralized parallel SGD, the
  synchronous analogue of A(DP)²SGD [Xu et al. 2022]: perturbed local
  gradient step followed by one gossip-averaging step.
* :class:`Muffliato` — local Gaussian noise injection followed by multiple
  gossip steps for privacy amplification [Cyffers et al. 2022].
* :class:`DPCGA` — Cross-Gradient Aggregation [Esfandiari et al. 2021] with
  DP perturbation of the shared cross-gradients; the cross-gradients are
  combined through the minimum-norm convex combination (quadratic program)
  that CGA uses for projection.
* :class:`DPNetFleet` — NET-FLEET [Zhang et al. 2022] with recursive gradient
  correction (gradient tracking) and multiple local updates per round, with
  Gaussian perturbation of the exchanged quantities.
* :class:`DPSGDNonPrivate` / :class:`DMSGD` — non-private D-PSGD / momentum
  D-PSGD references used by the ablation benchmarks.
"""

from repro.baselines.dp_dpsgd import DPDPSGD, DPSGDNonPrivate
from repro.baselines.muffliato import Muffliato
from repro.baselines.dp_cga import DPCGA
from repro.baselines.dp_netfleet import DPNetFleet
from repro.baselines.dmsgd import DMSGD

__all__ = [
    "DPDPSGD",
    "DPSGDNonPrivate",
    "Muffliato",
    "DPCGA",
    "DPNetFleet",
    "DMSGD",
]
