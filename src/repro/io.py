"""Dataset serialization.

The paper makes its dataset "available upon request"; this module is
that request path: it exports a measured
:class:`~repro.core.dataset.GovernmentHostingDataset` to JSON-lines
(one record per unique URL) plus a JSON header, and loads it back
losslessly, so analyses can run without regenerating the world.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import pathlib
from typing import IO, Iterable, Union

from repro.categories import HostingCategory
from repro.core.dataset import CountryDataset, GovernmentHostingDataset, UrlRecord
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from repro.faults.report import FaultReport

logger = logging.getLogger(__name__)

#: Format marker written into every export header.
FORMAT_VERSION = 1

#: Record count past which :func:`load_dataset` warns that the jsonl
#: path is the wrong tool (one JSON parse + one ``UrlRecord`` per line)
#: and points at the columnar store (``repro-gov convert``).
LARGE_FILE_RECORDS = 1_000_000

PathLike = Union[str, pathlib.Path]


def record_to_dict(record: UrlRecord) -> dict:
    """One record as a JSON-serializable dict."""
    return {
        "url": record.url,
        "hostname": record.hostname,
        "country": record.country,
        "size_bytes": record.size_bytes,
        "via": record.via.value,
        "depth": record.depth,
        "address": record.address,
        "asn": record.asn,
        "organization": record.organization,
        "registered_country": record.registered_country,
        "gov_operated": record.gov_operated,
        "category": record.category.value,
        "server_country": record.server_country,
        "anycast": record.anycast,
        "validation": record.validation.value,
    }


def record_from_dict(data: dict) -> UrlRecord:
    """Inverse of :func:`record_to_dict`."""
    return UrlRecord(
        url=data["url"],
        hostname=data["hostname"],
        country=data["country"],
        size_bytes=data["size_bytes"],
        via=FilterVia(data["via"]),
        depth=data["depth"],
        address=data["address"],
        asn=data["asn"],
        organization=data["organization"],
        registered_country=data["registered_country"],
        gov_operated=data["gov_operated"],
        category=HostingCategory(data["category"]),
        server_country=data["server_country"],
        anycast=data["anycast"],
        validation=ValidationMethod(data["validation"]),
    )


def dataset_header(dataset: GovernmentHostingDataset) -> dict:
    """The jsonl header object (shared with ``repro.store`` conversions,
    which must reproduce :func:`save_dataset` output byte for byte)."""
    header = {
        "format": FORMAT_VERSION,
        "validation": dataclasses.asdict(dataset.validation),
        "countries": {
            code: {
                "landing_count": cd.landing_count,
                "discarded_url_count": cd.discarded_url_count,
                "unresolved_hostnames": cd.unresolved_hostnames,
                "depth_histogram": cd.depth_histogram,
            }
            for code, cd in sorted(dataset.countries.items())
        },
    }
    # The key is only written for faulted runs, so exports from
    # rate-0 runs stay byte-identical to pre-fault-layer exports.
    if dataset.faults.countries:
        header["faults"] = dataset.faults.to_dict()
    return header


def save_dataset(dataset: GovernmentHostingDataset, path: PathLike) -> int:
    """Write the dataset as JSON lines; returns the number of records.

    Line 1 is a header object (format version, per-country metadata and
    validation statistics); every following line is one URL record,
    byte-identical to ``json.dumps(record_to_dict(record))`` (see
    :func:`write_records`).
    """
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(dataset_header(dataset)) + "\n")
        return write_records(handle, dataset.iter_records())


_encode_str = json.encoder.encode_basestring_ascii

#: Exact ``type()`` of every field of a record :func:`write_records`
#: encodes from fragments (``server_country`` may also be ``None``).
_FRAGMENT_TYPES = (
    str, str, str, int, FilterVia, int, int, int, str, str, bool,
    HostingCategory, str, bool, ValidationMethod,
)
_FRAGMENT_TYPES_UNLOCATED = _FRAGMENT_TYPES[:12] + (type(None),) \
    + _FRAGMENT_TYPES[13:]


def _host_fragments(record: UrlRecord) -> tuple[str, str, str]:
    """The JSON text of a record around its per-URL values.

    A record's line is ``{"url": U`` + ``head`` + size + ``middle`` +
    depth + ``tail``; the three fragments depend only on the hostname,
    country, ``via`` and the nine per-host fields, so every URL of a
    host shares them.  Formatting follows ``json.dumps`` defaults:
    ``", "``/``": "`` separators, ASCII-escaped strings, ``int``
    repr, ``true``/``false``/``null``.
    """
    server = record.server_country
    return (
        f', "hostname": {_encode_str(record.hostname)}'
        f', "country": {_encode_str(record.country)}, "size_bytes": ',
        f', "via": {_encode_str(record.via.value)}, "depth": ',
        f', "address": {record.address}, "asn": {record.asn}'
        f', "organization": {_encode_str(record.organization)}'
        f', "registered_country": {_encode_str(record.registered_country)}'
        f', "gov_operated": {"true" if record.gov_operated else "false"}'
        f', "category": {_encode_str(record.category.value)}'
        f', "server_country": '
        f'{"null" if server is None else _encode_str(server)}'
        f', "anycast": {"true" if record.anycast else "false"}'
        f', "validation": {_encode_str(record.validation.value)}}}\n',
    )


def write_records(handle: IO[str], records: Iterable[UrlRecord]) -> int:
    """Write one JSON line per record; returns the number written.

    Each line is byte-identical to ``json.dumps(record_to_dict(r))``
    plus a newline, without building a dict per record: the URL, size
    and depth are encoded per record and the rest comes from
    :func:`_host_fragments`, reused while consecutive records share a
    host (datasets list a host's URLs together).  A record whose field
    types are not exactly the declared ones (a ``bool`` where an
    ``int`` belongs, a numpy scalar, a ``str`` subclass, ...) goes
    through ``json.dumps(record_to_dict(r))`` itself, so it is written
    (or rejected) exactly as that would.
    """
    plain = _FRAGMENT_TYPES
    unlocated = _FRAGMENT_TYPES_UNLOCATED
    host = parts = None
    count = 0
    for record in records:
        count += 1
        types = tuple(map(type, record))
        if types != plain and types != unlocated:
            handle.write(json.dumps(record_to_dict(record)) + "\n")
            continue
        url, hostname, country, size, via, depth = record[:6]
        key = (hostname, country, via, record[6:])
        if key != host:
            host, parts = key, _host_fragments(record)
        handle.write(f'{{"url": {_encode_str(url)}{parts[0]}{size}'
                     f'{parts[1]}{depth}{parts[2]}')
    return count


def _reject_duplicate_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for the header: a duplicate key (usually a
    country listed twice) silently drops data under plain ``json.loads``
    (last value wins), so fail loudly instead."""
    mapping: dict = {}
    for key, value in pairs:
        if key in mapping:
            raise ValueError(f"duplicate key {key!r} in dataset header")
        mapping[key] = value
    return mapping


def load_dataset(path: PathLike) -> GovernmentHostingDataset:
    """Read a dataset previously written by :func:`save_dataset`.

    Every ``CountryDataset`` is constructed up front from the header
    and records are appended into it as the file streams by, so peak
    memory is one copy of the records (plus the line being parsed) --
    no intermediate per-country buckets are rebuilt at the end.
    """
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError(f"{path}: empty dataset file")
        try:
            header = json.loads(
                header_line, object_pairs_hook=_reject_duplicate_keys
            )
        except ValueError as exc:
            raise ValueError(f"{path}:1: corrupt header ({exc})") from exc
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported format {header.get('format')!r}"
            )
        countries: dict[str, CountryDataset] = {}
        records_by_country: dict[str, list[UrlRecord]] = {}
        for code, meta in header["countries"].items():
            records: list[UrlRecord] = []
            records_by_country[code] = records
            countries[code] = CountryDataset(
                country=code,
                landing_count=meta["landing_count"],
                records=records,
                discarded_url_count=meta["discarded_url_count"],
                unresolved_hostnames=list(meta["unresolved_hostnames"]),
                depth_histogram={
                    int(depth): count
                    for depth, count in meta["depth_histogram"].items()
                },
            )
        count = 0
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                record = record_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: corrupt record ({exc})"
                ) from exc
            bucket = records_by_country.get(record.country)
            if bucket is None:
                raise ValueError(
                    f"{path}:{line_number}: record country "
                    f"{record.country!r} is absent from the header's "
                    f"countries map"
                )
            bucket.append(record)
            count += 1
            if count == LARGE_FILE_RECORDS + 1:
                logger.warning(
                    "%s exceeds %s records; jsonl loads parse one JSON "
                    "object per record -- convert to a columnar store "
                    "(`repro-gov convert`) for mmap-backed analysis",
                    path, f"{LARGE_FILE_RECORDS:,}",
                )

    validation = ValidationStats(**header["validation"])
    return GovernmentHostingDataset(
        countries=countries,
        validation=validation,
        faults=FaultReport.from_dict(header.get("faults", {})),
    )


def export_csv(dataset: GovernmentHostingDataset, path: PathLike) -> int:
    """Write a flat CSV of all records (for spreadsheet-style analysis).

    Rows are written as plain tuples in :func:`record_to_dict` order --
    building a dict per record only for ``DictWriter`` to flatten it
    straight back out doubles the per-row cost for nothing.
    """
    import csv

    path = pathlib.Path(path)
    count = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(tuple(record_to_dict(_DUMMY)))
        for r in dataset.iter_records():
            writer.writerow((
                r.url, r.hostname, r.country, r.size_bytes, r.via.value,
                r.depth, r.address, r.asn, r.organization,
                r.registered_country, r.gov_operated, r.category.value,
                r.server_country, r.anycast, r.validation.value,
            ))
            count += 1
    return count


#: Template record whose dict form fixes the CSV column set (and order)
#: even for empty datasets.
_DUMMY = UrlRecord(
    url="", hostname="", country="", size_bytes=0, via=FilterVia.TLD, depth=0,
    address=0, asn=0, organization="", registered_country="",
    gov_operated=False, category=HostingCategory.GOVT_SOE,
    server_country=None, anycast=False, validation=ValidationMethod.UNRESOLVED,
)


__all__ = [
    "FORMAT_VERSION",
    "LARGE_FILE_RECORDS",
    "dataset_header",
    "record_to_dict",
    "record_from_dict",
    "save_dataset",
    "write_records",
    "load_dataset",
    "export_csv",
]
