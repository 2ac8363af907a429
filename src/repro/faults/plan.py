"""Fault plans: what can fail, how often, and how recovery behaves.

A :class:`FaultPlan` is a frozen, picklable description of the failures
injected into the measurement plane — probe timeouts, VPN-exit
failures, lookup failures, congestion spikes — plus the retry policy
governing recovery.  Every individual decision ("does attempt ``k`` of
operation ``K`` fail?") is a pure function of the plan seed, the fault
domain and the operation key, derived with the same BLAKE2 scheme the
world generator uses.  Nothing depends on call order, which is what
keeps a faulted country's cached partial bit-identical to a fresh scan
of it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Mapping

from repro.datagen.seeds import derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.datagen.config import WorldConfig

#: Everything the injector knows how to break.
FAULT_DOMAINS = (
    "vpn",         # the in-country VPN exit refuses the connection
    "probe",       # an Atlas probe's ping train times out
    "congestion",  # a ping sample traverses a congested path (no retry)
    "dns",         # resolving a hostname from the vantage fails
    "whois",       # the WHOIS lookup for an address fails
    "ipinfo",      # the IPInfo query for an address fails
    "peeringdb",   # the PeeringDB record fetch for an AS fails
)

#: Fault domains that fail whole ping samples rather than operations;
#: they are never retried and count straight into ``degraded``.
UNRETRYABLE_DOMAINS = frozenset({"congestion"})

#: Named profiles: per-domain multipliers applied to the base rate.
FAULT_PROFILES: Mapping[str, Mapping[str, float]] = {
    # Everything degrades a little — the realistic default.
    "mixed": {
        "vpn": 1.0, "probe": 1.0, "congestion": 0.5, "dns": 1.0,
        "whois": 1.0, "ipinfo": 1.0, "peeringdb": 1.0,
    },
    # Only the active-probing substrate is unreliable (Atlas brownout).
    "probes": {"probe": 1.0, "congestion": 1.0},
    # Only the VPN exits flap (the "Not All Roads Lead to Rome" regime).
    "vpn": {"vpn": 1.0},
    # Only the lookup services fail (API quota exhaustion / outages).
    "lookups": {"dns": 1.0, "whois": 1.0, "ipinfo": 1.0, "peeringdb": 1.0},
    # Only resolution fails (the authoritative-DNS stress regime of
    # "Assessing Resilience in Authoritative DNS Infrastructure").
    "dns": {"dns": 1.0},
}

#: CLI names of the available profiles.
FAULT_PROFILE_NAMES = tuple(sorted(FAULT_PROFILES))


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Deterministic description of injected measurement-plane faults."""

    #: Base per-attempt failure probability (0 disables injection).
    rate: float = 0.0
    #: Named profile scaling the base rate per fault domain.
    profile: str = "mixed"
    #: Seed of the fault decision streams, independent of the world seed.
    seed: int = 0
    #: Failed retryable operations are retried up to this many times.
    max_retries: int = 2
    #: Simulated exponential backoff: ``base * 2**attempt`` milliseconds.
    backoff_base_ms: float = 100.0
    #: Extra latency a congested ping sample suffers.
    congestion_ms: float = 400.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be a probability, got {self.rate}")
        if self.profile not in FAULT_PROFILES:
            raise ValueError(
                f"unknown fault profile {self.profile!r}; expected one of "
                f"{', '.join(FAULT_PROFILE_NAMES)}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_ms < 0 or self.congestion_ms < 0:
            raise ValueError("backoff and congestion times must be non-negative")

    @classmethod
    def from_config(cls, config: "WorldConfig") -> "FaultPlan":
        """The plan a world's configuration asks for.

        The fault seed defaults to a stream derived from the master seed,
        so ``--fault-seed`` can vary failures while the world stays fixed.
        """
        seed = config.fault_seed
        if seed is None:
            seed = derive_seed(config.seed, "faults")
        return cls(rate=config.fault_rate, profile=config.fault_profile,
                   seed=seed)

    @property
    def enabled(self) -> bool:
        """Whether the plan injects anything at all."""
        return self.rate > 0.0

    def fingerprint_components(self) -> dict:
        """JSON-stable contribution to the scan-cache key.

        Covers every field of the plan — the plan fully determines which
        faults a scan suffers, so cache entries keyed on it stay valid
        exactly as long as the injected failures would be identical.
        Because :meth:`from_config` resolves a ``None`` ``fault_seed``
        before the plan is built, the *resolved* seed is fingerprinted:
        a config spelling the derived seed explicitly hits the same
        entries as one leaving it to default.
        """
        return dataclasses.asdict(self)

    def rate_for(self, domain: str) -> float:
        """Effective per-attempt failure probability of one domain."""
        return self.rate * FAULT_PROFILES[self.profile].get(domain, 0.0)

    def attempt_fails(self, domain: str, key: tuple, attempt: int) -> bool:
        """Pure decision: does attempt ``attempt`` of operation ``key`` fail?

        Independent of call order and of every other decision, so cached
        or re-executed operations (thread races, per-process rebuilds)
        always observe the same outcome.
        """
        rate = self.rate_for(domain)
        if rate <= 0.0:
            return False
        draw = derive_seed(self.seed, "fault", domain, *key, attempt)
        return draw / 2.0 ** 64 < rate


__all__ = [
    "FAULT_DOMAINS",
    "FAULT_PROFILES",
    "FAULT_PROFILE_NAMES",
    "UNRETRYABLE_DOMAINS",
    "FaultPlan",
]
