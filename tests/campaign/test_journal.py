"""Journal append/replay, torn-tail tolerance, manifest guards."""

import json
import os

import pytest

from repro.campaign.journal import (
    Journal,
    read_manifest,
    write_manifest,
)
from repro.campaign.plan import CampaignSpec


def _spec(name="t"):
    return CampaignSpec(
        name=name, benchmarks=["astar"], schemes=["EP"],
        n_instructions=500, warmup=250,
    )


def _run_event(point, index):
    return {
        "event": "run", "point": point, "index": index, "seed": 7 + index,
        "metrics": {"perf_overhead": 0.1, "ed_overhead": 0.2, "ipc": 1.0,
                    "fault_rate": 0.01, "replay_rate": 0.005},
        "counts": {"faults": 5, "replays": 2, "committed": 500},
    }


class TestManifest:
    def test_round_trip(self, tmp_path):
        write_manifest(tmp_path, _spec())
        manifest = read_manifest(tmp_path)
        assert manifest["format"] == 1
        assert manifest["spec"]["name"] == "t"
        assert CampaignSpec.from_dict(manifest["spec"]).benchmarks == ["astar"]

    def test_idempotent_for_same_spec(self, tmp_path):
        write_manifest(tmp_path, _spec())
        write_manifest(tmp_path, _spec())  # no error

    def test_refuses_different_spec(self, tmp_path):
        write_manifest(tmp_path, _spec())
        with pytest.raises(ValueError, match="different campaign"):
            write_manifest(tmp_path, _spec(name="other"))

    def test_records_model_version(self, tmp_path):
        from repro.harness.parallel import model_version

        assert write_manifest(tmp_path, _spec())["model_version"] == (
            model_version()
        )


class TestJournal:
    def test_replay_empty(self, tmp_path):
        state = Journal(tmp_path).replay()
        assert state.runs == {} and not state.done and state.n_events == 0

    def test_append_replay_round_trip(self, tmp_path):
        with Journal(tmp_path) as journal:
            journal.append(_run_event("p1", 0))
            journal.append(_run_event("p1", 1))
            journal.append({"event": "point", "point": "p1", "n": 2,
                            "stopped": "ci", "summary": {}})
            journal.append(_run_event("p2", 0))
        state = Journal(tmp_path).replay()
        assert [r["index"] for r in state.runs["p1"]] == [0, 1]
        assert len(state.runs["p2"]) == 1
        assert state.completed["p1"]["stopped"] == "ci"
        assert "p2" not in state.completed
        assert not state.done
        assert state.total_runs == 3

    def test_done_marker(self, tmp_path):
        with Journal(tmp_path) as journal:
            journal.append({"event": "done"})
        assert Journal(tmp_path).replay().done

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        with Journal(tmp_path) as journal:
            journal.append(_run_event("p1", 0))
        # simulate a kill mid-append: half a JSON object, no newline
        with open(Journal(tmp_path).path, "a") as fh:
            fh.write('{"event": "run", "point": "p1", "ind')
        state = Journal(tmp_path).replay()
        assert len(state.runs["p1"]) == 1
        assert state.n_torn == 1

    def test_events_are_one_json_object_per_line(self, tmp_path):
        with Journal(tmp_path) as journal:
            journal.append(_run_event("p1", 0))
            journal.append({"event": "done"})
        lines = open(Journal(tmp_path).path).read().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_append_creates_directory(self, tmp_path):
        target = os.path.join(tmp_path, "nested", "campaign")
        with Journal(target) as journal:
            journal.append({"event": "done"})
        assert Journal(target).replay().done


class TestRepair:
    def test_truncates_torn_trailing_record(self, tmp_path, capsys):
        with Journal(tmp_path) as journal:
            journal.append(_run_event("p1", 0))
        with open(Journal(tmp_path).path, "a") as fh:
            fh.write('{"event": "run", "point": "p1", "ind')
        journal = Journal(tmp_path)
        dropped = journal.repair()
        assert dropped > 0
        assert "truncated torn trailing record" in capsys.readouterr().err
        state = journal.replay()
        assert state.n_torn == 0
        assert len(state.runs["p1"]) == 1

    def test_append_after_repair_yields_valid_journal(self, tmp_path):
        """Regression: resume after a torn tail must not concatenate the
        next event onto the partial line."""
        with Journal(tmp_path) as journal:
            journal.append(_run_event("p1", 0))
        with open(Journal(tmp_path).path, "a") as fh:
            fh.write('{"event": "run", "point": "p1", "ind')
        journal = Journal(tmp_path)
        journal.repair()
        with journal:
            journal.append(_run_event("p1", 1))
        lines = open(journal.path).read().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)
        state = Journal(tmp_path).replay()
        assert [r["index"] for r in state.runs["p1"]] == [0, 1]

    def test_complete_record_missing_newline_is_terminated(self, tmp_path):
        """A kill between write and the newline flush loses no data."""
        with Journal(tmp_path) as journal:
            journal.append(_run_event("p1", 0))
        with open(Journal(tmp_path).path, "a") as fh:
            fh.write(json.dumps(_run_event("p1", 1)))  # no trailing \n
        journal = Journal(tmp_path)
        assert journal.repair() == 0
        state = journal.replay()
        assert [r["index"] for r in state.runs["p1"]] == [0, 1]
        assert open(journal.path).read().endswith("\n")

    def test_noop_on_clean_journal(self, tmp_path):
        with Journal(tmp_path) as journal:
            journal.append(_run_event("p1", 0))
        before = open(Journal(tmp_path).path, "rb").read()
        assert Journal(tmp_path).repair() == 0
        assert open(Journal(tmp_path).path, "rb").read() == before

    def test_noop_on_missing_journal(self, tmp_path):
        assert Journal(tmp_path).repair() == 0

    def test_resume_through_torn_tail(self, tmp_path):
        """End to end: a campaign killed mid-append resumes cleanly."""
        from repro.harness.cli import main

        args = ["--dir", str(tmp_path), "--benchmarks", "astar",
                "--schemes", "EP", "--instructions", "500", "--warmup",
                "250", "--seeds-min", "2", "--seeds-max", "2", "--batch",
                "2", "--no-cache"]
        assert main(["campaign", "run"] + args) == 0
        journal_path = Journal(tmp_path).path
        clean = open(journal_path).read()
        # drop the completion events and tear the last run record
        lines = [
            line for line in clean.splitlines()
            if '"event": "run"' in line
        ]
        with open(journal_path, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
            fh.write(lines[-1][: len(lines[-1]) // 2])
        assert main(
            ["campaign", "resume", "--dir", str(tmp_path), "--no-cache"]
        ) == 0
        state = Journal(tmp_path).replay()
        assert state.done
        assert state.n_torn == 0


def _point_event(point, n=2):
    return {"event": "point", "point": point, "n": n, "stopped": "ci",
            "summary": {"mean": 0.15}}


def _two_point_spec():
    return CampaignSpec(
        name="m", benchmarks=["astar"], schemes=["EP", "ABS"],
        n_instructions=500, warmup=250, min_seeds=2, max_seeds=2,
        batch_size=2,
    )


def _append(directory, events):
    with Journal(directory) as journal:
        for event in events:
            journal.append(event)


class TestJournalFold:
    """One fold for every reader: a fleet's arrival-order journal."""

    def test_duplicate_draws_deduplicated(self, tmp_path):
        # a reassigned lease re-executed draws 1 and 0
        _append(tmp_path, [_run_event("p", 0), _run_event("p", 1),
                           _run_event("p", 1), _run_event("p", 0)])
        state = Journal(tmp_path).replay()
        assert [r["index"] for r in state.runs["p"]] == [0, 1]
        assert state.total_runs == 2

    def test_runs_sorted_by_index(self, tmp_path):
        _append(tmp_path, [_run_event("p", i) for i in (2, 0, 1)])
        state = Journal(tmp_path).replay()
        assert [r["index"] for r in state.runs["p"]] == [0, 1, 2]

    def test_first_copy_wins_dedup(self, tmp_path):
        first = _run_event("p", 0)
        first["seed"] = 42  # distinguishable from the later copy
        _append(tmp_path, [first, _run_event("p", 0), _run_event("p", 1)])
        state = Journal(tmp_path).replay()
        assert state.runs["p"][0]["seed"] == 42
        assert state.total_runs == 2

    def test_first_point_event_wins(self, tmp_path):
        _append(tmp_path, [_point_event("p", n=2), _point_event("p", n=9)])
        assert Journal(tmp_path).replay().completed["p"]["n"] == 2

    def test_fold_reports_whether_state_changed(self):
        from repro.campaign.journal import JournalState

        state = JournalState()
        assert state.fold(_run_event("p", 0))
        assert not state.fold(_run_event("p", 0))
        assert state.fold({"event": "done"})
        assert not state.fold({"event": "done"})
        assert not state.fold({"event": "unknown"})
        assert state.n_events == 2

    def test_done_marker_survives(self, tmp_path):
        _append(tmp_path, [{"event": "done"}, _run_event("p", 0)])
        assert Journal(tmp_path).replay().done


class TestRewrite:
    """The finish step's canonical rewrite of an arrival-order journal."""

    def test_rewrite_matches_single_pool_bytes(self, tmp_path):
        spec = _two_point_spec()
        points = [p.id for p in spec.points()]
        pool = tmp_path / "pool"
        _append(pool, [
            event for point in points
            for event in (_run_event(point, 0), _run_event(point, 1),
                          _point_event(point))
        ] + [{"event": "done"}])

        fleet = tmp_path / "fleet"
        # interleaved arrival order across two workers + a duplicate
        _append(fleet, [
            _run_event(points[0], 1), _run_event(points[1], 1),
            _run_event(points[1], 0), _point_event(points[1]),
            _run_event(points[0], 0), _run_event(points[0], 1),
            _point_event(points[0]), {"event": "done"},
        ])
        journal = Journal(fleet)
        journal.rewrite(spec, journal.replay())
        assert (fleet / "journal.jsonl").read_bytes() == (
            (pool / "journal.jsonl").read_bytes()
        )

    def test_rewrite_is_idempotent(self, tmp_path):
        spec = _two_point_spec()
        _append(tmp_path, [_run_event(spec.points()[0].id, 0)])
        journal = Journal(tmp_path)
        journal.rewrite(spec, journal.replay())
        first = (tmp_path / "journal.jsonl").read_bytes()
        journal.rewrite(spec, journal.replay())
        assert (tmp_path / "journal.jsonl").read_bytes() == first

    def test_rewrite_atomic_no_temp_left(self, tmp_path):
        spec = _two_point_spec()
        _append(tmp_path, [_run_event(spec.points()[0].id, 0)])
        journal = Journal(tmp_path)
        journal.rewrite(spec, journal.replay())
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []

    def test_append_after_rewrite_lands_in_new_file(self, tmp_path):
        spec = _two_point_spec()
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            journal.append(_run_event(point, 1))
            journal.append(_run_event(point, 0))
            journal.rewrite(spec, journal.replay())
            journal.append({"event": "done"})
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert [json.loads(line).get("index") for line in lines] == (
            [0, 1, None]
        )
