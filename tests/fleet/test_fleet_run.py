"""End to end: a local fleet reproduces the single-pool campaign bytes."""

import json

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import FleetError, fleet_run


def _spec(**overrides):
    knobs = dict(
        name="fleet-e2e", benchmarks=["astar"], schemes=["EP", "ABS"],
        vdds=[0.97], n_instructions=500, warmup=250, min_seeds=2,
        max_seeds=4, batch_size=2,
    )
    knobs.update(overrides)
    return CampaignSpec(**knobs)


def _single_pool(directory, **overrides):
    return run_campaign(
        str(directory), spec=_spec(**overrides), cache=False,
        snapshots=False,
    )


class TestFleetRun:
    def test_report_byte_identical_to_single_pool(self, tmp_path):
        _single_pool(tmp_path / "pool")
        fleet_run(
            tmp_path / "fleet", spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2,
        )
        assert (tmp_path / "fleet" / "journal.jsonl").read_bytes() == (
            tmp_path / "pool" / "journal.jsonl"
        ).read_bytes()
        assert (tmp_path / "fleet" / "report.json").read_bytes() == (
            tmp_path / "pool" / "report.json"
        ).read_bytes()

    def test_snapshot_forked_batched_leases_match_single_pool(self, tmp_path):
        """With snapshots on, workers batch each lease's draws on the
        snapshot fork path; the bytes must not change."""
        run_campaign(str(tmp_path / "pool"), spec=_spec(), cache=False)
        fleet_run(
            tmp_path / "fleet", spec=_spec(), workers=2, cache=False,
            linger=0.2,
        )
        for name in ("journal.jsonl", "report.json"):
            assert (tmp_path / "fleet" / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes()
        journal = (tmp_path / "pool" / "journal.jsonl").read_text()
        assert '"snapshot": ' in journal  # the draws forked a snapshot

    def test_draws_split_across_workers(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2,
        )
        from repro.dashboard import CampaignView

        view = CampaignView(tmp_path)
        view.refresh()
        draws = {
            name: info["draws"]
            for name, info in view.fleet_status()["workers"].items()
        }
        # with 2 points and one lease per point, both workers got work,
        # and the ledger credits every journaled draw exactly once
        assert sorted(draws) == ["worker0", "worker1"]
        assert all(n >= 1 for n in draws.values())
        assert sum(draws.values()) == view.status()["runs_total"]

    def test_rerun_of_complete_campaign_is_idempotent(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=1, cache=False,
            snapshots=False, linger=0.2,
        )
        before = (tmp_path / "report.json").read_bytes()
        report = fleet_run(
            tmp_path, workers=1, resume=True, cache=False,
            snapshots=False, linger=0.2,
        )
        assert report["complete"]
        assert (tmp_path / "report.json").read_bytes() == before

    def test_refuses_progress_without_resume(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=1, cache=False,
            snapshots=False, linger=0.2,
        )
        with pytest.raises(FleetError, match="resume"):
            fleet_run(tmp_path, workers=1, cache=False, snapshots=False,
                      linger=0.2)

    def test_report_marks_campaign_complete(self, tmp_path):
        report = fleet_run(
            tmp_path, spec=_spec(), workers=2, cache=False,
            snapshots=False, linger=0.2,
        )
        assert report["complete"]
        assert report["points_done"] == 2
        on_disk = json.load(open(tmp_path / "report.json"))
        assert on_disk == report

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            fleet_run(tmp_path, spec=_spec(), workers=0)

    def test_directory_layout(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=1, cache=False,
            snapshots=False, linger=0.2,
        )
        # a fleet directory is a plain campaign directory plus the
        # lease ledger and the endpoint file
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "coordinator.json", "journal.jsonl", "leases.jsonl",
            "manifest.json", "report.json", "report.md",
        ]
        assert (
            json.loads(open(tmp_path / "coordinator.json").read())["pid"]
        )
        events = [
            json.loads(line)
            for line in open(tmp_path / "journal.jsonl")
        ]
        # one completion per point + the done marker
        assert [e["event"] for e in events if e["event"] != "run"] == [
            "point", "point", "done",
        ]


_POOLS = pytest.mark.parametrize("pool", [
    dict(workers=2),
    dict(workers=1, min_workers=1, max_workers=2),
], ids=["fixed", "elastic"])


def _fleet_error_within(directory, timeout=60.0, **pool):
    """The FleetError ``fleet_run`` raises, asserting it came in time."""
    import threading

    outcome = {}

    def run():
        try:
            fleet_run(directory, cache=False, snapshots=False, linger=0.2,
                      **pool)
        except Exception as exc:  # noqa: BLE001 — inspected below
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "fleet_run hung on failing workers"
    error = outcome.get("error")
    assert isinstance(error, FleetError)
    return error


class TestRejectedWorkers:
    """A worker that is rejected or keeps crashing fails the run instead
    of hanging or being respawned forever."""

    @_POOLS
    def test_stale_manifest_version_fails_fast(self, tmp_path, pool):
        from repro.campaign.journal import write_manifest

        write_manifest(tmp_path, _spec(), extra={"model_version": "stale"})
        error = _fleet_error_within(tmp_path, **pool)
        assert "exited with code 2" in str(error)
        assert "worker" in str(error)

    @_POOLS
    def test_crashing_worker_fails_fast(self, tmp_path, pool, monkeypatch):
        import sys

        from repro.fleet import service

        monkeypatch.setattr(
            service, "worker_command",
            lambda *args, **kwargs: [sys.executable, "-c", "exit(1)"],
        )
        error = _fleet_error_within(tmp_path, spec=_spec(), **pool)
        assert "exited with code 1" in str(error)
        assert "no draw journaled" in str(error)
        with open(tmp_path / "leases.jsonl") as fh:
            spawns = [
                line for line in fh if '"action": "spawn"' in line
            ]
        assert len(spawns) <= service.CRASH_LIMIT + pool["workers"]
