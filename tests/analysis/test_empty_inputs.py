"""Regression tests: analyses over empty or degenerate datasets.

A heavily faulted (or heavily filtered) run can leave countries with no
records, zero-byte responses or no overlapping snapshot coverage.  Every
analysis must degrade to a well-defined empty result instead of raising
``ZeroDivisionError``/``ValueError``.
"""

import warnings

import pytest

from repro.analysis.diversification import (
    dominant_category,
    hhi_by_dominant_category,
    single_network_dependence,
)
from repro.analysis.https_adoption import (
    country_https_adoption,
    global_https_prevalence,
)
from repro.analysis.engine import baseline
from repro.analysis.longitudinal import compare_snapshots, trend_summary
from repro.analysis.regression import explanatory_regression, feature_matrix
from repro.analysis.resilience import outage_impact, single_points_of_failure
from repro.categories import HostingCategory
from repro.core.dataset import (
    CountryDataset,
    GovernmentHostingDataset,
    UrlRecord,
)
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia


def _empty_country(code="ZZ") -> CountryDataset:
    return CountryDataset(
        country=code, landing_count=0, records=[],
        discarded_url_count=0, unresolved_hostnames=[], depth_histogram={},
    )


def _record(category, size_bytes=10, asn=64500, url="https://www.gov.zz/"):
    return UrlRecord(
        url=url, hostname="www.gov.zz", country="ZZ", size_bytes=size_bytes,
        via=FilterVia.TLD, depth=0, address=0xC0A80001, asn=asn,
        organization="org", registered_country="ZZ", gov_operated=False,
        category=category, server_country="ZZ", anycast=False,
        validation=ValidationMethod.UNRESOLVED,
    )


def _dataset(*country_datasets) -> GovernmentHostingDataset:
    return GovernmentHostingDataset(
        countries={cd.country: cd for cd in country_datasets},
        validation=ValidationStats(),
    )


@pytest.fixture
def empty_dataset():
    return _dataset(_empty_country())


# ------------------------------------------------------------- resilience

def test_outage_impact_over_empty_country(empty_dataset):
    assert outage_impact(empty_dataset, 13335) == {}


def test_single_points_of_failure_over_empty_country(empty_dataset):
    assert single_points_of_failure(empty_dataset) == {}


# ---------------------------------------------------------------- https

def test_https_adoption_over_empty_country(empty_dataset, world):
    assert country_https_adoption(world, empty_dataset) == {}
    assert global_https_prevalence(world, empty_dataset) == (0.0, 0.0)


# ----------------------------------------------------------- longitudinal

def test_trend_summary_of_no_overlap_is_well_defined(empty_dataset):
    deltas = compare_snapshots(empty_dataset, empty_dataset)
    assert deltas == {}
    assert trend_summary(deltas) == {
        "mean_delta": 0.0, "share_increasing": 0.0, "countries": 0.0,
    }


# -------------------------------------------------------- diversification

def test_dominant_category_of_empty_country_is_none():
    assert dominant_category(_empty_country()) is None


def test_dominant_category_of_zero_byte_records_is_none():
    zero = CountryDataset(
        country="ZZ", landing_count=1,
        records=[_record(HostingCategory.P3_GLOBAL, size_bytes=0)],
        discarded_url_count=0, unresolved_hostnames=[], depth_histogram={},
    )
    assert dominant_category(zero) is None


def test_dominant_category_ties_break_by_enum_order():
    tied = CountryDataset(
        country="ZZ", landing_count=2,
        records=[
            _record(HostingCategory.P3_GLOBAL, url="https://a.gov.zz/"),
            _record(HostingCategory.P3_LOCAL, url="https://b.gov.zz/"),
        ],
        discarded_url_count=0, unresolved_hostnames=[], depth_histogram={},
    )
    # P3_LOCAL is declared before P3_GLOBAL in HostingCategory
    assert dominant_category(tied) is HostingCategory.P3_LOCAL


def test_diversification_groupings_skip_empty_countries(empty_dataset):
    assert hhi_by_dominant_category(empty_dataset) == {}
    assert single_network_dependence(empty_dataset) == {}


def test_diversification_groupings_with_mixed_countries():
    populated = CountryDataset(
        country="AA", landing_count=1,
        records=[_record(HostingCategory.GOVT_SOE)],
        discarded_url_count=0, unresolved_hostnames=[], depth_histogram={},
    )
    mixed = _dataset(populated, _empty_country())
    groups = hhi_by_dominant_category(mixed, by_bytes=True)
    assert set(groups) == {HostingCategory.GOVT_SOE}
    dependence = single_network_dependence(mixed)
    assert dependence == {HostingCategory.GOVT_SOE: (1, 1)}


# ------------------------------------------------------------- regression

def test_regression_over_empty_dataset_raises_without_warnings(empty_dataset):
    # Standardizing the outcome of no countries took the mean of an
    # empty array, which numpy answers with RuntimeWarnings.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for features_of, regress in (
            (feature_matrix, explanatory_regression),
            (baseline.baseline_feature_matrix,
             baseline.baseline_explanatory_regression),
        ):
            codes, features, outcome = features_of(empty_dataset)
            assert codes == [] and features.size == 0 and outcome.size == 0
            with pytest.raises(ValueError):
                regress(empty_dataset)
