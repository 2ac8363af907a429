"""Bit-exact oracle for the Appendix E OLS fit.

``fit_ols`` takes its Student-t quantile and tail probabilities from
``scipy.special.stdtrit`` / ``stdtr``; the reference below is the
``scipy.stats.t`` formulation those functions back.  Every figure --
estimates, standard errors, confidence bounds and p-values -- must be
equal as floats (``==``), not merely close, so Figure 12 and Table 7
render the same bytes either way.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.analysis.regression import (
    FEATURE_NAMES,
    explanatory_regression,
    feature_matrix,
    fit_ols,
)


def reference_fit(features: np.ndarray, outcome: np.ndarray) -> dict:
    """The OLS figures computed with ``scipy.stats.t``."""
    n, k = features.shape
    design = np.column_stack([np.ones(n), features])
    beta, _, _, _ = np.linalg.lstsq(design, outcome, rcond=None)
    residuals = outcome - design @ beta
    dof = n - (k + 1)
    sigma2 = float(residuals @ residuals) / dof
    covariance = sigma2 * np.linalg.inv(design.T @ design)
    stderrs = np.sqrt(np.diag(covariance))
    t_crit = stats.t.ppf(0.975, dof)
    figures = {}
    for index, name in enumerate(FEATURE_NAMES):
        estimate = float(beta[index + 1])
        stderr = float(stderrs[index + 1])
        t_stat = estimate / stderr if stderr > 0 else math.inf
        figures[name] = (
            estimate,
            stderr,
            estimate - t_crit * stderr,
            estimate + t_crit * stderr,
            float(2 * stats.t.sf(abs(t_stat), dof)),
        )
    return figures


def figures_of(result) -> dict:
    return {
        name: (c.estimate, c.stderr, c.ci_low, c.ci_high, c.p_value)
        for name, c in result.coefficients.items()
    }


@pytest.mark.parametrize("seed,rows", [
    (0, 8), (1, 12), (2, 30), (3, 61), (4, 61), (5, 200),
])
def test_fit_matches_stats_t_reference_on_seeded_matrices(seed, rows):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((rows, len(FEATURE_NAMES)))
    # Mix in outcomes both strongly and barely explained by the
    # features, so p-values span tiny to near-one.
    weights = rng.standard_normal(len(FEATURE_NAMES)) * (seed % 3)
    outcome = features @ weights + rng.standard_normal(rows)
    assert figures_of(fit_ols(features, outcome)) == \
        reference_fit(features, outcome)


def test_fit_matches_stats_t_reference_on_the_real_index(dataset):
    _, features, outcome = feature_matrix(dataset)
    assert figures_of(explanatory_regression(dataset)) == \
        reference_fit(features, outcome)


def test_special_functions_equal_stats_t_across_dof():
    from scipy.special import stdtr, stdtrit

    t_values = np.concatenate([np.linspace(0.0, 40.0, 401), [np.inf]])
    for dof in range(1, 200):
        assert stdtrit(dof, 0.975) == stats.t.ppf(0.975, dof)
        assert np.array_equal(2 * stdtr(dof, -t_values),
                              2 * stats.t.sf(t_values, dof))
