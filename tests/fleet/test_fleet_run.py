"""End to end: a local fleet reproduces the single-pool campaign bytes."""

import json

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.plan import CampaignSpec
from repro.fleet import FleetError, fleet_run
from repro.fleet.merge import shard_dir


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
        shards = sorted(
            p.name for p in (tmp_path / "shards").glob("worker*.jsonl")
        )
        assert shards == ["worker0.jsonl", "worker1.jsonl"]
        # with 2 points and one lease per point, both workers got work
        for shard in shards:
            lines = (tmp_path / "shards" / shard).read_text().splitlines()
            assert len(lines) >= 1

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

    def test_shard_layout(self, tmp_path):
        fleet_run(
            tmp_path, spec=_spec(), workers=1, cache=False,
            snapshots=False, linger=0.2,
        )
        assert (tmp_path / "leases.jsonl").exists()
        assert (tmp_path / "coordinator.json").exists()
        shards = shard_dir(tmp_path)
        assert (
            json.loads(open(tmp_path / "coordinator.json").read())["pid"]
        )
        coordinator_lines = open(
            f"{shards}/_coordinator.jsonl"
        ).read().splitlines()
        # one completion per point + the done marker
        assert len(coordinator_lines) == 3
        assert json.loads(coordinator_lines[-1]) == {"event": "done"}
