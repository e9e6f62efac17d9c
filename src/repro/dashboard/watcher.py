"""Incremental journal tailing: the input side of every live view.

A campaign directory's progress lives in two append-only JSONL files —
``journal.jsonl`` (the single-pool executor and the fleet coordinator
both append to it) and, for a fleet, the ``leases.jsonl`` ledger.
:class:`JournalWatcher` tails both with one ``poll()`` call, emitting
each *complete* decoded record exactly once, in file append order,
tagged with its source. It is the shared substrate of the dashboard
server, ``campaign status --follow``, and ``fleet status --follow`` —
anything that wants to react to a campaign as it runs without
re-replaying the world every tick.

Durability edge cases are first-class, not best-effort:

* **Torn tails** — a writer crash (or a poll racing an in-flight
  ``append``) can leave a partial final line with no terminator. The
  tail bytes are buffered, never parsed, and re-examined on the next
  poll; once the newline lands the record is emitted whole. A torn line
  is therefore *delayed*, never dropped or double-emitted.
* **Rotation/truncation** — the finish step (``Journal.rewrite``)
  atomically replaces ``journal.jsonl`` in canonical order;
  ``Journal.repair`` truncates torn bytes in place. A shrunken size or
  a changed inode resets that file's cursor to zero and re-emits its
  records; consumers that fold records idempotently
  (:meth:`~repro.campaign.journal.JournalState.fold` keys draws by
  ``(point, index)``) converge to the same state regardless.
* **Late files** — ``journal.jsonl`` appears with the first event and
  ``leases.jsonl`` only when a coordinator runs; a file born after the
  watch started is picked up from byte zero.
"""

import json
import os

from repro.campaign.journal import JOURNAL_NAME
from repro.fleet.ledger import LEDGER_NAME

#: source tags carried on every emitted record
SOURCE_JOURNAL = "journal"
SOURCE_LEDGER = "ledger"


class TailedFile:
    """Cursor + torn-tail buffer over one append-only JSONL file."""

    def __init__(self, path, source):
        self.path = path
        self.source = source
        self.offset = 0  # bytes read off the file (incl. buffered tail)
        self.inode = None
        self._tail = b""  # unterminated final-line bytes (torn tail)
        #: decode failures on *terminated* lines (corrupt, not torn)
        self.n_bad = 0

    def _reset(self):
        self.offset = 0
        self._tail = b""

    def poll(self):
        """Newly completed records since the last poll (may be empty)."""
        try:
            stat = os.stat(self.path)
        except OSError:
            if self.inode is not None:
                # the file vanished (rotation midway); start over when
                # (if) it reappears
                self.inode = None
                self._reset()
            return []
        if stat.st_ino != self.inode or stat.st_size < self.offset:
            # replaced (new inode) or truncated in place: re-read. The
            # consumer's idempotent fold absorbs the re-emission.
            self.inode = stat.st_ino
            self._reset()
        if stat.st_size == self.offset:
            return []
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                data = fh.read()
        except OSError:
            return []
        self.offset += len(data)
        data = self._tail + data
        cut = data.rfind(b"\n") + 1
        # bytes past the last newline are a torn tail: buffer, do not
        # parse — the writer is mid-append and the rest is coming.
        # (offset already covers them, so they are never re-read.)
        self._tail = data[cut:]
        records = []
        for line in data[:cut].splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line.decode()))
            except (UnicodeDecodeError, ValueError):
                self.n_bad += 1
        return records


class JournalWatcher:
    """Tail the journal and lease ledger of one campaign directory.

    ``poll()`` returns ``[(source, record), ...]``: the journal's new
    records first, then the ledger's. Call it on whatever cadence suits
    the consumer — each call does one ``os.stat`` per file, so a
    sub-second poll is cheap even on large campaigns.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        self._files = [
            TailedFile(os.path.join(self.directory, JOURNAL_NAME),
                       SOURCE_JOURNAL),
            TailedFile(os.path.join(self.directory, LEDGER_NAME),
                       SOURCE_LEDGER),
        ]

    def poll(self):
        """Every record appended (to either file) since the last poll."""
        return [
            (tail.source, record)
            for tail in self._files for record in tail.poll()
        ]

    @property
    def n_bad(self):
        """Corrupt (terminated but undecodable) lines seen across files."""
        return sum(tail.n_bad for tail in self._files)
