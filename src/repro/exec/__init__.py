"""How the pipeline's per-country scans are scheduled, and their partials.

Every run scans its countries one after another on the calling thread
(:meth:`~repro.core.pipeline.Pipeline.scan`).  Thread and process pools
were measured end to end and never beat that: the scan is GIL-bound,
and a process worker must generate the whole world again before it
scans its share, which costs at least as much as the scan itself.

:class:`SerialExecutor` names that one strategy, so callers can pass an
executor to ``Pipeline.run`` and run manifests can record how a run was
scheduled.  Per-country work is still independent, and the two
cross-country reductions (provider footprints, validation stats) are
merged with order-independent functions in :mod:`repro.exec.partials`,
which the scan cache and the scenario sweep's dedup rely on.
"""

from typing import Optional

from repro.exec.partials import (
    CountryPartial,
    HostAnnotation,
    merge_faults,
    merge_footprints,
    merge_validation,
)


class SerialExecutor:
    """The one scan strategy: every country inline on the calling thread."""

    #: Strategy name (the ``executor`` tag of the ``pipeline.run`` span).
    name = "serial"

    def close(self) -> None:
        """Release nothing: there is no pool to shut down."""

    def __enter__(self) -> "SerialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def make_executor(name: str, workers: Optional[int] = None) -> SerialExecutor:
    """Build the executor called ``name``; ``"serial"`` is the only one.

    ``workers`` is ignored, since a serial run has no pool.
    """
    if name != "serial":
        raise ValueError(
            f"unknown executor {name!r}; the only executor is 'serial'"
        )
    return SerialExecutor()


__all__ = [
    "SerialExecutor",
    "CountryPartial",
    "HostAnnotation",
    "merge_faults",
    "merge_footprints",
    "merge_validation",
    "make_executor",
]
