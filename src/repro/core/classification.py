"""Hosting-category classification (Section 5.1).

Combines government-ownership verdicts with provider footprints to sort
every (government, serving AS) pair into the four categories:

* ``Govt&SOE`` -- the operator is government-owned;
* ``3P Global`` -- a network serving governments across multiple
  continents;
* ``3P Local`` -- registered in the same country as the government it
  serves;
* ``3P Regional`` -- registered elsewhere, footprint within one
  continent.

The Global test uses the *observed* footprint -- the set of continents
of the governments an AS serves in the collected dataset -- mirroring
the paper's operational definition.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.categories import HostingCategory
from repro.core.asclassify import GovernmentASClassifier
from repro.world.countries import COUNTRIES
from repro.world.regions import Continent


@dataclasses.dataclass
class ProviderFootprint:
    """Observed continental footprint of every serving AS.

    A plain set-union monoid (identity: ``ProviderFootprint()``), so
    per-country footprints, scanned or loaded from the scan cache, merge
    into the global footprint in any grouping or order.  Picklable, so
    the cache can store it with its country's partial.
    """

    continents_by_asn: dict[int, set[Continent]] = dataclasses.field(
        default_factory=dict
    )

    def observe(self, asn: int, government_country: str) -> None:
        """Record that ``asn`` serves the government of a country."""
        country = COUNTRIES.get(government_country.upper())
        if country is None:
            return
        self.continents_by_asn.setdefault(asn, set()).add(country.continent)

    def continents(self, asn: int) -> frozenset[Continent]:
        """Continents of the governments ``asn`` serves."""
        return frozenset(self.continents_by_asn.get(asn, ()))

    def merge(self, other: "ProviderFootprint") -> "ProviderFootprint":
        """Union of two footprints (leaves both operands untouched)."""
        merged = {asn: set(continents)
                  for asn, continents in self.continents_by_asn.items()}
        for asn, continents in other.continents_by_asn.items():
            merged.setdefault(asn, set()).update(continents)
        return ProviderFootprint(continents_by_asn=merged)

    def __add__(self, other: "ProviderFootprint") -> "ProviderFootprint":
        if not isinstance(other, ProviderFootprint):
            return NotImplemented
        return self.merge(other)

    def __len__(self) -> int:
        return len(self.continents_by_asn)


class CategoryClassifier:
    """Categorizes serving infrastructure once footprints are known."""

    def __init__(self, ownership: GovernmentASClassifier) -> None:
        self._ownership = ownership
        self._footprint = ProviderFootprint()

    def observe(self, asn: int, government_country: str) -> None:
        """Record that ``asn`` serves the government of a country."""
        self._footprint.observe(asn, government_country)

    def observe_all(self, pairs: Iterable[tuple[int, str]]) -> None:
        """Bulk version of :meth:`observe`."""
        for asn, government_country in pairs:
            self.observe(asn, government_country)

    def ingest(self, footprint: ProviderFootprint) -> None:
        """Merge an externally collected footprint (cross-country merge)."""
        self._footprint = self._footprint.merge(footprint)

    def snapshot(self) -> "CategoryClassifier":
        """A classifier frozen at the current footprint.

        The clone owns a private copy of the footprint, so deferred
        record assemblers that capture it categorize against exactly
        the footprint that existed at the barrier — even if this
        classifier later observes or ingests more countries.
        """
        clone = CategoryClassifier(self._ownership)
        clone._footprint = ProviderFootprint().merge(self._footprint)
        return clone

    def footprint(self, asn: int) -> frozenset[Continent]:
        """Continents of the governments ``asn`` serves in the dataset."""
        return self._footprint.continents(asn)

    def is_global_provider(self, asn: int) -> bool:
        """Whether ``asn`` meets the paper's Global definition."""
        return len(self._footprint.continents_by_asn.get(asn, ())) >= 2

    def categorize(
        self,
        asn: int,
        registered_country: str,
        government_country: str,
    ) -> HostingCategory:
        """Category of one (government, serving AS) pair."""
        if self._ownership.is_government(asn):
            return HostingCategory.GOVT_SOE
        if self.is_global_provider(asn):
            return HostingCategory.P3_GLOBAL
        if registered_country.upper() == government_country.upper():
            return HostingCategory.P3_LOCAL
        return HostingCategory.P3_REGIONAL

    def global_provider_asns(self) -> list[int]:
        """All ASNs classified Global by footprint (and not government)."""
        return sorted(
            asn
            for asn, continents in self._footprint.continents_by_asn.items()
            if len(continents) >= 2 and not self._ownership.is_government(asn)
        )


__all__ = ["ProviderFootprint", "CategoryClassifier"]
