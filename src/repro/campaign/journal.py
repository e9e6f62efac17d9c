"""Crash-safe campaign state: manifest plus append-only JSONL journal.

A campaign directory holds::

    <dir>/manifest.json    # the CampaignSpec + model version (written once)
    <dir>/journal.jsonl    # append-only event log, one JSON object per line
    <dir>/report.json      # aggregate report (rewritten on completion)
    <dir>/report.md        # human-readable rendering of the same

The journal is the single source of truth for progress, for the
single-pool executor and the fleet coordinator alike. Every completed
seed draw appends a ``run`` event carrying its extracted metrics, every
finished grid point appends a ``point`` event with the stopping summary,
and campaign completion appends ``done``. Appends are flushed and
fsynced line-by-line, so a kill can lose at most the line being written;
:meth:`Journal.replay` tolerates a torn trailing line by ignoring any
undecodable tail.

Events land in arrival order — a fleet's workers finish draws out of
order, and a lease reassignment can deliver one draw twice — so every
reader folds through :meth:`JournalState.fold`: draws deduplicated by
``(point, index)`` and kept in index order, the first ``point`` event
of a point wins. A finished campaign's journal is rewritten once in
canonical order (:meth:`Journal.rewrite`), which makes a fleet journal
byte-identical to a single-pool one. Resume = replay the journal, skip
completed points, and continue partial points from their recorded
draws.
"""

import bisect
import json
import os
import sys

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"

#: manifest/journal format version; bump on incompatible layout changes.
FORMAT = 1


def run_event(point_id, index, seed, values, counts, telemetry=None,
              snapshot=None):
    """The journal ``run`` event of one completed seed draw.

    Single source of truth for the event shape: the single-pool executor
    journals these directly and fleet workers stream the *same* dicts
    over the wire, so a finished fleet journal is byte-identical to a
    single-pool one (both serialize with ``json.dumps(sort_keys=True)``).
    """
    event = {
        "event": "run", "point": point_id, "index": index,
        "seed": seed, "metrics": values, "counts": counts,
    }
    if telemetry is not None:
        event["telemetry"] = telemetry
    if snapshot is not None:
        event["snapshot"] = snapshot
    return event


def point_event(point_id, n, stopped, summary, failure=None):
    """The journal ``point`` completion event of one grid point."""
    event = {
        "event": "point", "point": point_id, "n": n,
        "stopped": stopped, "summary": summary,
    }
    if failure is not None:
        event["failure"] = failure
    return event


def write_manifest(directory, spec, extra=None):
    """Create ``<directory>/manifest.json`` for ``spec`` (atomically).

    Refuses to overwrite a manifest describing a *different* spec —
    a campaign directory is single-use by design.
    """
    from repro.harness.parallel import model_version

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_NAME)
    manifest = {
        "format": FORMAT,
        "model_version": model_version(),
        "spec": spec.to_dict(),
    }
    if extra:
        manifest.update(extra)
    if os.path.exists(path):
        existing = read_manifest(directory)
        if existing.get("spec") != manifest["spec"]:
            raise ValueError(
                f"{path} already describes a different campaign; "
                "use a fresh directory"
            )
        return existing
    tmp = path + ".tmp.%d" % os.getpid()
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return manifest


def read_manifest(directory):
    """Load ``<directory>/manifest.json`` (FileNotFoundError if absent)."""
    with open(os.path.join(directory, MANIFEST_NAME)) as fh:
        return json.load(fh)


class JournalState:
    """Replayed view of a journal: what already happened."""

    def __init__(self):
        #: point id -> run records, deduplicated and in index order
        self.runs = {}
        #: point id -> its (first) ``point`` completion event
        self.completed = {}
        self.done = False
        self.n_events = 0
        self.n_torn = 0
        self._indices = {}  # point id -> sorted draw indices (bisect)

    @property
    def total_runs(self):
        """Seed draws recorded across all points."""
        return sum(len(records) for records in self.runs.values())

    def fold(self, event):
        """Absorb one journal event; True when it changed the state.

        Idempotent: a draw already held (same ``(point, index)``), a
        second ``point`` event of a point, and a second ``done`` are
        dropped. Re-executed draws are bit-identical (the seed stream is
        hash-derived from the master seed), so which copy wins is
        cosmetic; the first one does.
        """
        kind = event.get("event")
        point_id = event.get("point")
        if kind == "run":
            index = event.get("index")
            indices = self._indices.setdefault(point_id, [])
            at = bisect.bisect_left(indices, index)
            if at < len(indices) and indices[at] == index:
                return False
            indices.insert(at, index)
            self.runs.setdefault(point_id, []).insert(at, event)
        elif kind == "point":
            if point_id in self.completed:
                return False
            self.completed[point_id] = event
        elif kind == "done":
            if self.done:
                return False
            self.done = True
        else:
            return False
        self.n_events += 1
        return True


class Journal:
    """Append-only JSONL event log of one campaign directory."""

    def __init__(self, directory):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, JOURNAL_NAME)
        self._fh = None

    def append(self, event):
        """Append one event (a JSON-safe dict) durably."""
        if self._fh is None:
            os.makedirs(self.directory, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def repair(self):
        """Truncate a torn trailing record (a crash mid-append) in place.

        A kill during :meth:`append` can leave a partial final line with
        no newline. :meth:`replay` already tolerates it, but *appending*
        after one would concatenate the next event onto the torn bytes,
        silently losing that event on the next replay. Resume paths call
        this first: a complete-but-unterminated final record gets its
        newline (it parsed, so it is safe to keep); an undecodable tail
        is logged and truncated — the draw it described re-executes
        deterministically from its journaled-elsewhere seed stream.

        Returns the number of bytes dropped (0 when the tail is clean).
        """
        try:
            fh = open(self.path, "rb+")
        except FileNotFoundError:
            return 0
        with fh:
            data = fh.read()
            if not data or data.endswith(b"\n"):
                return 0
            cut = data.rfind(b"\n") + 1  # 0 when the whole file is one tail
            tail = data[cut:]
            try:
                json.loads(tail.decode())
            except (UnicodeDecodeError, ValueError):
                fh.truncate(cut)
                print(
                    f"[journal] truncated torn trailing record "
                    f"({len(tail)} bytes) in {self.path}",
                    file=sys.stderr,
                )
                return len(tail)
            # the record survived the crash intact — just never got its
            # line terminator; complete it rather than re-executing
            fh.write(b"\n")
            return 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def replay(self):
        """Fold the journal into a :class:`JournalState`.

        Undecodable lines (a torn tail from a kill mid-append) are
        counted in ``n_torn`` and otherwise ignored — the corresponding
        run simply re-executes, served from the result cache if one is
        shared with the killed process.
        """
        state = JournalState()
        try:
            fh = open(self.path)
        except FileNotFoundError:
            return state
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    state.n_torn += 1
                    continue
                state.fold(event)
        return state

    def rewrite(self, spec, state):
        """Atomically replace the journal with ``state`` in canonical order.

        Every point's ``run`` events in index order followed by its
        ``point`` event, points in grid order, ``done`` last — the bytes
        a single-pool campaign of ``spec`` appends. Temp file + rename,
        so a crash mid-rewrite leaves the old journal intact; rewriting
        is idempotent.
        """
        self.close()
        tmp = self.path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as fh:
            for point in spec.points():
                for record in state.runs.get(point.id, []):
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
                completion = state.completed.get(point.id)
                if completion is not None:
                    fh.write(json.dumps(completion, sort_keys=True) + "\n")
            if state.done:
                fh.write(json.dumps({"event": "done"}, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
