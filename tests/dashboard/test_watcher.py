"""JournalWatcher: torn tails, rotation/truncation, late files."""

import json
import os

from repro.campaign.journal import JOURNAL_NAME, Journal, write_manifest
from repro.dashboard.watcher import (
    SOURCE_JOURNAL,
    SOURCE_LEDGER,
    JournalWatcher,
    TailedFile,
)
from repro.fleet.ledger import LEDGER_NAME, LeaseLedger


def _write(path, text, mode="a"):
    with open(path, mode) as fh:
        fh.write(text)


def _line(record):
    return json.dumps(record, sort_keys=True) + "\n"


class TestTailedFile:
    def test_absent_file_polls_empty(self, tmp_path):
        tail = TailedFile(str(tmp_path / "none.jsonl"), SOURCE_JOURNAL)
        assert tail.poll() == []
        assert tail.poll() == []

    def test_emits_each_record_exactly_once(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tail = TailedFile(str(path), SOURCE_JOURNAL)
        _write(path, _line({"a": 1}) + _line({"a": 2}))
        assert tail.poll() == [{"a": 1}, {"a": 2}]
        assert tail.poll() == []
        _write(path, _line({"a": 3}))
        assert tail.poll() == [{"a": 3}]

    def test_mid_record_torn_tail_is_delayed_not_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tail = TailedFile(str(path), SOURCE_JOURNAL)
        full = _line({"point": "p", "index": 7})
        # a writer killed (or raced) mid-append: half a record, no \n
        _write(path, _line({"index": 0}) + full[: len(full) // 2])
        assert tail.poll() == [{"index": 0}]
        assert tail.n_bad == 0  # torn is not corrupt
        assert tail.poll() == []  # still torn: nothing new, no dup
        _write(path, full[len(full) // 2:])
        assert tail.poll() == [{"point": "p", "index": 7}]
        assert tail.n_bad == 0

    def test_torn_tail_split_at_every_byte(self, tmp_path):
        """No split position of a record duplicates or drops it."""
        record = {"event": "run", "point": "a/b/0.97", "index": 3,
                  "metrics": {"ipc": 1.25}}
        full = _line(record)
        for cut in range(1, len(full)):
            path = tmp_path / f"j{cut}.jsonl"
            tail = TailedFile(str(path), SOURCE_JOURNAL)
            _write(path, full[:cut])
            first = tail.poll()
            _write(path, full[cut:])
            second = tail.poll()
            assert first + second == [record], f"split at byte {cut}"

    def test_rotation_new_inode_rereads_from_zero(self, tmp_path):
        """An atomic os.replace (Journal.rewrite) re-emits the new file."""
        path = tmp_path / "j.jsonl"
        tail = TailedFile(str(path), SOURCE_JOURNAL)
        _write(path, _line({"index": 0}))
        assert tail.poll() == [{"index": 0}]
        merged = tmp_path / "j.jsonl.tmp"
        _write(merged, _line({"index": 0}) + _line({"index": 1}), mode="w")
        os.replace(merged, path)
        assert tail.poll() == [{"index": 0}, {"index": 1}]

    def test_truncation_in_place_resets_cursor(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tail = TailedFile(str(path), SOURCE_JOURNAL)
        _write(path, _line({"index": 0}) + _line({"index": 1}))
        assert len(tail.poll()) == 2
        # Journal.repair-style truncation: same inode, smaller size
        with open(path, "r+") as fh:
            fh.truncate(len(_line({"index": 0})))
        assert tail.poll() == [{"index": 0}]

    def test_vanished_file_restarts_when_it_reappears(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tail = TailedFile(str(path), SOURCE_JOURNAL)
        _write(path, _line({"index": 0}))
        assert tail.poll() == [{"index": 0}]
        os.unlink(path)
        assert tail.poll() == []
        _write(path, _line({"index": 9}))
        assert tail.poll() == [{"index": 9}]

    def test_corrupt_terminated_line_counted_not_raised(self, tmp_path):
        path = tmp_path / "j.jsonl"
        tail = TailedFile(str(path), SOURCE_JOURNAL)
        _write(path, "not json at all\n" + _line({"ok": True}))
        assert tail.poll() == [{"ok": True}]
        assert tail.n_bad == 1


class TestJournalWatcher:
    def test_sources_are_tagged_and_ordered(self, tmp_path):
        LeaseLedger(tmp_path).granted(1, "p", [0], "w1")
        Journal(tmp_path).append({"event": "run", "index": 0})
        watcher = JournalWatcher(tmp_path)
        out = watcher.poll()
        assert [source for source, _ in out] == [
            SOURCE_JOURNAL, SOURCE_LEDGER,
        ]
        assert watcher.poll() == []

    def test_ledger_appearing_after_watch_start(self, tmp_path):
        watcher = JournalWatcher(tmp_path)
        assert watcher.poll() == []  # nothing exists yet
        LeaseLedger(tmp_path).granted(4, "p", [0], "late")
        out = watcher.poll()
        assert [(s, r["worker"]) for s, r in out] == [
            (SOURCE_LEDGER, "late"),
        ]

    def test_n_bad_sums_all_files(self, tmp_path):
        _write(tmp_path / JOURNAL_NAME, "garbage\n")
        _write(tmp_path / LEDGER_NAME, "also garbage\n")
        watcher = JournalWatcher(tmp_path)
        watcher.poll()
        assert watcher.n_bad == 2


class TestAgainstRealWriters:
    def test_tails_a_live_journal_append_by_append(self, tmp_path):
        from repro.campaign.plan import CampaignSpec

        spec = CampaignSpec(name="w", benchmarks=["astar"],
                            schemes=["EP"], n_instructions=500,
                            warmup=250)
        write_manifest(tmp_path, spec)
        watcher = JournalWatcher(tmp_path)
        with Journal(tmp_path) as journal:
            for index in range(3):
                journal.append({"event": "run", "point": "p",
                                "index": index})
                out = watcher.poll()
                assert [r["index"] for _, r in out] == [index]
