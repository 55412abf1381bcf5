"""Attack-campaign evaluation: hint statistics and bikz of a campaign.

The paper evaluates with 25,000 attack traces and turns the recovered
probability tables into lattice hints.  :class:`CampaignResult` is that
last step — convert to hints, estimate bikz — over the outcome of a
campaign run (``run_campaign(...).to_result()``, see
:mod:`repro.attack.campaign`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.attack.metrics import ConfusionMatrix
from repro.errors import AttackError
from repro.hints.estimator import beta_for_dbdd, bikz_to_bits
from repro.hints.hintgen import hints_from_probability_tables
from repro.hints.security import make_dbdd, seal_128_parameters


@dataclass
class CampaignResult:
    """Aggregated outcome of an attack campaign."""

    confusion: ConfusionMatrix
    sign_accuracy: float
    value_accuracy: float
    coefficients_attacked: int
    probability_tables: List[Dict[int, float]] = field(repr=False)

    def hint_statistics(self) -> Dict[str, float]:
        """Perfect-hint fraction and mean posterior variance."""
        hints = hints_from_probability_tables(self.probability_tables)
        perfect = sum(1 for h in hints if h.is_perfect)
        variances = [h.variance for h in hints if not h.is_perfect]
        return {
            "perfect_fraction": perfect / max(len(hints), 1),
            "mean_approximate_variance": float(np.mean(variances)) if variances else 0.0,
        }

    def estimate_bikz(self, params=None) -> float:
        """bikz of the SEAL-128 primal attack given this campaign's hints.

        Tables are tiled/truncated to the instance's error dimension.
        """
        params = params if params is not None else seal_128_parameters()
        if not self.probability_tables:
            raise AttackError("campaign produced no probability tables")
        tables = list(self.probability_tables)
        while len(tables) < params.m:
            tables.extend(self.probability_tables)
        hints = hints_from_probability_tables(tables[: params.m])
        instance = make_dbdd(params)
        from repro.hints.hintgen import apply_hints

        apply_hints(instance, hints, params.n)
        return beta_for_dbdd(instance)

    def summary(self) -> str:
        """Human-readable multi-line summary."""
        stats = self.hint_statistics()
        beta = self.estimate_bikz()
        return "\n".join(
            [
                f"coefficients attacked : {self.coefficients_attacked}",
                f"sign accuracy         : {100 * self.sign_accuracy:.2f}%",
                f"value accuracy        : {100 * self.value_accuracy:.2f}%",
                f"perfect hints         : {100 * stats['perfect_fraction']:.1f}%",
                f"SEAL-128 with hints   : {beta:.2f} bikz "
                f"(2^{bikz_to_bits(beta):.1f})",
            ]
        )
