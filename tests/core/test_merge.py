"""Unit tests for the cross-country reduction monoids.

The scan cache and the scenario sweep rely on ``ValidationStats`` and
``ProviderFootprint`` merging associatively with an identity element,
so per-country tallies can be reduced in any grouping without changing
the result.  These tests pin that algebra down in isolation from the
pipeline.
"""

import dataclasses

import pytest

from repro.core.classification import ProviderFootprint
from repro.core.geolocation import (
    GeoVerdict,
    ValidationMethod,
    ValidationStats,
)
from repro.world.regions import Continent


def _stats(**overrides) -> ValidationStats:
    values = dict(unicast_ap=3, unicast_mg=2, unicast_unresolved=1,
                  unicast_conflicts=1, anycast_ap=4, anycast_unresolved=2)
    values.update(overrides)
    return ValidationStats(**values)


class TestValidationStatsMerge:
    def test_merge_is_componentwise_sum(self):
        merged = _stats().merge(_stats(unicast_ap=10))
        assert merged == ValidationStats(
            unicast_ap=13, unicast_mg=4, unicast_unresolved=2,
            unicast_conflicts=2, anycast_ap=8, anycast_unresolved=4,
        )

    def test_identity(self):
        stats = _stats()
        assert stats.merge(ValidationStats()) == stats
        assert ValidationStats().merge(stats) == stats

    def test_associativity(self):
        a, b, c = _stats(), _stats(unicast_mg=7), _stats(anycast_ap=1)
        assert (a + b) + c == a + (b + c)

    def test_commutativity(self):
        a, b = _stats(), _stats(unicast_unresolved=9)
        assert a + b == b + a

    def test_merge_does_not_mutate_operands(self):
        a, b = _stats(), _stats()
        snapshot = dataclasses.replace(a)
        a.merge(b)
        assert a == snapshot

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            _stats() + 1

    def test_tally_matches_table4_columns(self):
        stats = ValidationStats()
        stats.tally(GeoVerdict(address=1, country="BR",
                               method=ValidationMethod.ACTIVE_PROBING,
                               anycast=False, claimed_country="BR"))
        stats.tally(GeoVerdict(address=2, country="BR",
                               method=ValidationMethod.MULTISTAGE,
                               anycast=False, claimed_country="BR"))
        stats.tally(GeoVerdict(address=3, country=None,
                               method=ValidationMethod.MULTISTAGE,
                               anycast=False, claimed_country="US",
                               conflict=True))
        stats.tally(GeoVerdict(address=4, country=None,
                               method=ValidationMethod.UNRESOLVED,
                               anycast=False, claimed_country=None))
        stats.tally(GeoVerdict(address=5, country="BR",
                               method=ValidationMethod.ACTIVE_PROBING,
                               anycast=True, claimed_country="US"))
        stats.tally(GeoVerdict(address=6, country=None,
                               method=ValidationMethod.UNRESOLVED,
                               anycast=True, claimed_country="US"))
        assert stats == ValidationStats(
            unicast_ap=1, unicast_mg=1, unicast_unresolved=2,
            unicast_conflicts=1, anycast_ap=1, anycast_unresolved=1,
        )


def _footprint(pairs) -> ProviderFootprint:
    footprint = ProviderFootprint()
    for asn, country in pairs:
        footprint.observe(asn, country)
    return footprint


class TestProviderFootprintMerge:
    def test_merge_unions_continents(self):
        a = _footprint([(64500, "BR"), (64500, "AR")])
        b = _footprint([(64500, "JP"), (64501, "US")])
        merged = a.merge(b)
        assert merged.continents(64500) == frozenset(
            {Continent.SOUTH_AMERICA, Continent.ASIA}
        )
        assert merged.continents(64501) == frozenset({Continent.NORTH_AMERICA})

    def test_identity(self):
        a = _footprint([(64500, "BR"), (64501, "DE")])
        empty = ProviderFootprint()
        assert (a + empty).continents_by_asn == a.continents_by_asn
        assert (empty + a).continents_by_asn == a.continents_by_asn

    def test_associativity_and_commutativity(self):
        a = _footprint([(64500, "BR")])
        b = _footprint([(64500, "JP"), (64501, "US")])
        c = _footprint([(64502, "FR")])
        assert ((a + b) + c).continents_by_asn == (a + (b + c)).continents_by_asn
        assert (a + b).continents_by_asn == (b + a).continents_by_asn

    def test_merge_does_not_mutate_operands(self):
        a = _footprint([(64500, "BR")])
        b = _footprint([(64500, "JP")])
        a.merge(b)
        assert a.continents(64500) == frozenset({Continent.SOUTH_AMERICA})
        assert b.continents(64500) == frozenset({Continent.ASIA})

    def test_unknown_country_ignored(self):
        assert len(_footprint([(64500, "ZZ")])) == 0
