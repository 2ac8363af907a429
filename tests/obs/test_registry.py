"""The run registry: journal integrity, queries, and manifest diffing."""

import json
import multiprocessing

import pytest

from repro.obs import RunManifest
from repro.obs.registry import (
    JOURNAL_NAME,
    RegistryError,
    RunRegistry,
    diff_manifests,
    diff_runs,
    manifest_id,
)


def make_manifest(**overrides) -> RunManifest:
    """A small, fully-specified manifest (no pipeline run needed)."""
    base = dict(
        fingerprint="a" * 32,
        seed=7,
        scale=0.05,
        countries=["BR", "FR", "US"],
        executor="serial",
        workers=None,
        max_depth=2,
        fault_rate=0.0,
        fault_profile="mixed",
        fault_seed=None,
        summary={"landing_urls": 3, "internal_urls": 40,
                 "total_unique_urls": 43, "unique_hostnames": 30,
                 "ases": 12, "unique_addresses": 25},
        stage_seconds={"total": 1.5, "scan": 1.2, "merge": 0.2,
                       "finalize": 0.1},
        cache={"hits": 2, "misses": 1, "hit_rate": 2 / 3},
        faults={"injected": 0, "retried": 0, "recovered": 0, "degraded": 0},
        versions={"repro": "1.0.0", "python": "3.11.0", "numpy": "1.26.0",
                  "implementation": "cpython"},
        tool_version="1.0.0",
    )
    base.update(overrides)
    return RunManifest(**base)


# ---------------------------------------------------------------- journal


def test_record_appends_and_is_idempotent(tmp_path):
    registry = RunRegistry(tmp_path)
    manifest = make_manifest()
    run, created = registry.record(manifest)
    assert created
    assert run.seq == 0
    assert run.id == manifest_id(manifest)

    again, created_again = registry.record(make_manifest())
    assert not created_again
    assert again is run
    assert len(registry) == 1
    # Exactly one journal line was written.
    lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
    assert len(lines) == 1


def test_journal_reloads_identically(tmp_path):
    first = RunRegistry(tmp_path)
    first.record(make_manifest(seed=1, fingerprint="b" * 32))
    first.record(make_manifest(seed=2, fingerprint="c" * 32))

    reloaded = RunRegistry(tmp_path)
    assert len(reloaded) == 2
    assert reloaded.runs() == first.runs()
    assert [run.seq for run in reloaded.runs()] == [0, 1]


def test_recording_emits_an_event(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest())
    events = registry.events.of_kind("run.recorded")
    assert len(events) == 1
    assert events[0].payload["seq"] == 0


def test_torn_final_line_is_recovered(tmp_path, caplog):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest(seed=1, fingerprint="b" * 32))
    registry.record(make_manifest(seed=2, fingerprint="c" * 32))
    journal = tmp_path / JOURNAL_NAME
    # Simulate a crashed writer: the last append lost its tail.
    torn = journal.read_text()[:-20]
    assert not torn.endswith("\n")
    journal.write_text(torn)

    with caplog.at_level("WARNING"):
        recovered = RunRegistry(tmp_path)
    assert len(recovered) == 1
    assert recovered.runs()[0].manifest.seed == 1
    assert any("torn" in record.message for record in caplog.records)


def test_corrupt_middle_line_names_the_line(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest(seed=1, fingerprint="b" * 32))
    registry.record(make_manifest(seed=2, fingerprint="c" * 32))
    journal = tmp_path / JOURNAL_NAME
    lines = journal.read_text().splitlines()
    lines[0] = "{not json"
    journal.write_text("\n".join(lines) + "\n")
    with pytest.raises(RegistryError, match="line 1"):
        RunRegistry(tmp_path)


def test_edited_manifest_content_is_detected(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest())
    journal = tmp_path / JOURNAL_NAME
    record = json.loads(journal.read_text())
    record["manifest"]["seed"] = 999  # tamper without re-addressing
    journal.write_text(json.dumps(record) + "\n")
    with pytest.raises(RegistryError, match="does not match its manifest"):
        RunRegistry(tmp_path)


def test_out_of_order_seq_is_rejected(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest())
    journal = tmp_path / JOURNAL_NAME
    record = json.loads(journal.read_text())
    record["seq"] = 5
    # Keep the content address honest: only seq is wrong.
    journal.write_text(json.dumps(record) + "\n")
    with pytest.raises(RegistryError, match="append-only"):
        RunRegistry(tmp_path)


def test_torn_line_is_dropped_before_the_next_append(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest(seed=1, fingerprint="b" * 32))
    journal = tmp_path / JOURNAL_NAME
    journal.write_text(journal.read_text() + '{"id": "trunc')

    reopened = RunRegistry(tmp_path)
    run, created = reopened.record(make_manifest(seed=2, fingerprint="c" * 32))
    assert created and run.seq == 1
    assert [r.seq for r in RunRegistry(tmp_path).runs()] == [0, 1]


# ------------------------------------------------- concurrent writers


def test_two_instances_on_one_directory_take_turns(tmp_path):
    first = RunRegistry(tmp_path)
    second = RunRegistry(tmp_path)
    a, _ = first.record(make_manifest(seed=1, fingerprint="b" * 32))
    b, _ = second.record(make_manifest(seed=2, fingerprint="c" * 32))
    assert (a.seq, b.seq) == (0, 1)
    assert [r.seq for r in RunRegistry(tmp_path).runs()] == [0, 1]
    # The first instance absorbs the second's append when it records.
    c, _ = first.record(make_manifest(seed=3, fingerprint="d" * 32))
    assert c.seq == 2
    assert [r.id for r in first.runs()] == [a.id, b.id, c.id]


def test_manifest_recorded_elsewhere_is_not_appended_again(tmp_path):
    first = RunRegistry(tmp_path)
    second = RunRegistry(tmp_path)
    run, created = first.record(make_manifest())
    again, created_again = second.record(make_manifest())
    assert created and not created_again
    assert again == run
    lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
    assert len(lines) == 1


def _record_many(directory, worker, count, acks):
    registry = RunRegistry(directory)
    for index in range(count):
        manifest = make_manifest(seed=1000 * worker + index,
                                 fingerprint=f"{worker:x}" * 32)
        run, created = registry.record(manifest)
        assert created
        acks.put((run.id, run.seq))


def test_processes_recording_into_one_directory_lose_nothing(tmp_path):
    workers, per_worker = 4, 6
    context = multiprocessing.get_context("spawn")
    acks = context.Queue()
    processes = [
        context.Process(target=_record_many,
                        args=(tmp_path, worker, per_worker, acks))
        for worker in range(workers)
    ]
    for process in processes:
        process.start()
    acknowledged = [acks.get(timeout=60)
                    for _ in range(workers * per_worker)]
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0

    runs = RunRegistry(tmp_path).runs()
    assert [run.seq for run in runs] == list(range(workers * per_worker))
    assert {(run.id, run.seq) for run in runs} == set(acknowledged)


def test_journal_line_of_a_process_pool_run_reloads_with_its_id(tmp_path):
    # Journals hold runs recorded with the former thread and process
    # pools.  An entry's id hashes the parsed manifest, so the executor
    # and workers fields must survive a reload for the id to verify.
    manifest = make_manifest(executor="processes", workers=4)
    run, _ = RunRegistry(tmp_path).record(manifest)
    reloaded = RunRegistry(tmp_path).get(run.id)
    assert reloaded.id == run.id == manifest_id(manifest)
    assert (reloaded.manifest.executor, reloaded.manifest.workers) == \
        ("processes", 4)


# ----------------------------------------------------------------- lookup


@pytest.fixture()
def populated(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest(seed=1, fingerprint="b" * 32))
    registry.record(make_manifest(
        seed=2, fingerprint="c" * 32, executor="threads", workers=4,
        stage_seconds={"total": 9.0}, cache=None,
    ))
    registry.record(make_manifest(
        seed=3, fingerprint="d" * 32, scale=0.1, stage_seconds={},
        cache={"hits": 0, "misses": 3, "hit_rate": 0.0},
    ))
    return registry


def test_get_by_seq_and_prefix(populated):
    by_seq = populated.get("1")
    assert by_seq.manifest.seed == 2
    assert populated.get(by_seq.id) is by_seq
    assert populated.get(by_seq.id[:6]) is by_seq


def test_get_rejects_bad_references(populated):
    with pytest.raises(RegistryError, match="no run #9"):
        populated.get("9")
    with pytest.raises(RegistryError, match="too short"):
        populated.get("ab")
    with pytest.raises(RegistryError, match="no run with id prefix"):
        populated.get("ffff")


def test_get_names_candidates_when_ambiguous(tmp_path):
    registry = RunRegistry(tmp_path)
    # Two distinct manifests; ids are content hashes, so force the
    # ambiguity through a shared 0-length... instead use seq refs and
    # check the common-prefix case via the full id set.
    a, _ = registry.record(make_manifest(seed=1, fingerprint="b" * 32))
    b, _ = registry.record(make_manifest(seed=2, fingerprint="c" * 32))
    common = 0
    while common < len(a.id) and a.id[common] == b.id[common]:
        common += 1
    if common >= 4:  # pragma: no cover - hash-prefix dependent
        with pytest.raises(RegistryError, match="ambiguous"):
            registry.get(a.id[:common])
    else:
        assert registry.get(a.id[:4]) is a


def test_find_filters_config_and_measurements(populated):
    assert [r.manifest.seed for r in populated.find(seed=2)] == [2]
    assert [r.manifest.seed
            for r in populated.find(executor="threads")] == [2]
    assert [r.manifest.seed for r in populated.find(scale=0.1)] == [3]
    assert [r.manifest.seed
            for r in populated.find(fingerprint="b")] == [1]
    # Wall filters skip the run with no "total" stage (seed=3).
    assert [r.manifest.seed
            for r in populated.find(min_wall_s=2.0)] == [2]
    assert [r.manifest.seed
            for r in populated.find(max_wall_s=2.0)] == [1]
    # Hit-rate filters skip the uncached run (seed=2).
    assert [r.manifest.seed
            for r in populated.find(min_hit_rate=0.5)] == [1]
    assert [r.manifest.seed
            for r in populated.find(max_hit_rate=0.5)] == [3]


def test_by_fingerprint_groups_in_first_seen_order(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(make_manifest(seed=1, fingerprint="b" * 32))
    registry.record(make_manifest(seed=2, fingerprint="c" * 32))
    registry.record(make_manifest(
        seed=1, fingerprint="b" * 32,
        stage_seconds={"total": 2.0},
    ))
    groups = registry.by_fingerprint()
    assert list(groups) == ["b" * 32, "c" * 32]
    assert len(groups["b" * 32]) == 2


# ------------------------------------------------------------------- diff


def test_diff_reports_only_changes():
    a = make_manifest()
    b = make_manifest(
        seed=8,
        countries=["BR", "DE", "US"],
        summary={**a.summary, "ases": 15},
        stage_seconds={**a.stage_seconds, "total": 2.0},
        cache={"hits": 3, "misses": 0, "hit_rate": 1.0},
        versions={**a.versions, "numpy": "2.0.0"},
        tool_version="1.1.0",
        fingerprint="e" * 32,
    )
    diff = diff_manifests(a, b)
    assert not diff.same_inputs
    assert diff.config == {"seed": {"a": 7, "b": 8}}
    assert diff.countries_added == ("DE",)
    assert diff.countries_removed == ("FR",)
    assert diff.summary["ases"] == {"a": 12, "b": 15, "delta": 3}
    assert diff.stage_seconds["total"]["delta"] == 0.5
    assert diff.cache["hit_rate"]["b"] == 1.0
    assert diff.versions["numpy"] == {"a": "1.26.0", "b": "2.0.0"}
    assert diff.versions["tool_version"] == {"a": "1.0.0", "b": "1.1.0"}
    assert "config.seed" in diff.changed_fields
    assert "countries" in diff.changed_fields


def test_diff_of_identical_manifests_is_empty():
    diff = diff_manifests(make_manifest(), make_manifest())
    assert diff.same_inputs
    assert diff.changed_fields == ()


def test_diff_runs_and_to_dict(tmp_path):
    registry = RunRegistry(tmp_path)
    a, _ = registry.record(make_manifest(seed=1, fingerprint="b" * 32))
    b, _ = registry.record(make_manifest(seed=2, fingerprint="c" * 32))
    diff = diff_runs(a, b)
    payload = json.loads(json.dumps(diff.to_dict()))
    assert payload["same_inputs"] is False
    assert payload["config"]["seed"] == {"a": 1, "b": 2}


def test_diff_handles_missing_cache():
    diff = diff_manifests(make_manifest(), make_manifest(cache=None))
    assert set(diff.cache) == {"hits", "misses", "hit_rate"}
    assert diff.cache["hits"]["b"] is None
