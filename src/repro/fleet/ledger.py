"""Lease ledger: append-only record of the coordinator's dispatch state.

The campaign journal is the source of truth for *completed* draws; the
ledger records what was *in flight* — which draw indices were leased to
which worker, and how each lease ended (completed, revoked on heartbeat
expiry, or orphaned by a coordinator crash) with how many of its draws
were journaled, which is how draws are credited to workers. A restarted
coordinator replays it to continue lease numbering and to log the leases
that died with it; ``fleet status`` and the fault-path tests read it to
audit the reassignment story (every revoked lease's indices must
reappear under a later lease or in the journal).
"""

import json
import os

LEDGER_NAME = "leases.jsonl"


class LeaseLedger:
    """Append-only JSONL ledger under a fleet campaign directory."""

    def __init__(self, directory):
        self.directory = str(directory)
        self.path = os.path.join(self.directory, LEDGER_NAME)
        self._fh = None

    def append(self, record):
        if self._fh is None:
            os.makedirs(self.directory, exist_ok=True)
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    def granted(self, lease_id, point_id, indices, worker):
        self.append({
            "event": "lease", "lease": lease_id, "point": point_id,
            "indices": list(indices), "worker": worker,
        })

    def completed(self, lease_id, draws):
        self.append({"event": "complete", "lease": lease_id, "draws": draws})

    def revoked(self, lease_id, reason, draws):
        self.append({
            "event": "revoke", "lease": lease_id, "reason": reason,
            "draws": draws,
        })

    def stolen(self, thief_lease, victim_lease, point_id, indices,
               thief, victim):
        """Audit a work-steal: ``indices`` moved between two live leases.

        The thief's lease was just :meth:`granted`; this marker ties it
        to the victim so the reassignment story stays auditable. Keyed
        ``thief_lease``/``victim_lease`` (not ``lease``) so
        :meth:`replay` treats it as pure annotation — both leases'
        open/closed state is tracked by their own grant/complete/revoke
        records.
        """
        self.append({
            "event": "steal", "thief_lease": thief_lease,
            "victim_lease": victim_lease, "point": point_id,
            "indices": list(indices), "worker": thief, "victim": victim,
        })

    def scaled(self, action, worker, reason):
        """Audit an autoscaler decision (``spawn`` or ``retire``)."""
        self.append({
            "event": "scale", "action": action, "worker": worker,
            "reason": reason,
        })

    def audited(self, counters):
        """Persist a snapshot of the coordinator's security audit counters.

        Appended on every counter bump (they are rare — hostile peers,
        version skew, steals), so the *last* ``audit`` record always
        holds the final tallies and survives the coordinator:
        ``fleet status`` on a dead fleet can still report how many
        peers were rejected and why.
        """
        self.append({"event": "audit", "counters": dict(counters)})

    # ------------------------------------------------------------------
    def replay(self):
        """{"max_lease": int, "open": {lease_id: grant-record},
        "audit": last-counters-or-None}.

        ``open`` holds leases with neither a ``complete`` nor a
        ``revoke`` record — in flight at the last coordinator death —
        with the indices a later ``steal`` moved away dropped from their
        ``indices``. Torn trailing lines are ignored (the ledger is
        advisory; the journal carries the ground truth).
        """
        max_lease = 0
        open_leases = {}
        audit = None
        try:
            fh = open(self.path)
        except FileNotFoundError:
            return {"max_lease": 0, "open": {}, "audit": None}
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if record.get("event") == "audit":
                    counters = record.get("counters")
                    if isinstance(counters, dict):
                        audit = counters
                    continue
                if record.get("event") == "steal":
                    victim = open_leases.get(record.get("victim_lease"))
                    if victim is not None:
                        moved = set(record.get("indices", ()))
                        victim["indices"] = [
                            i for i in victim["indices"] if i not in moved
                        ]
                    continue
                lease_id = record.get("lease")
                if not isinstance(lease_id, int):
                    continue
                max_lease = max(max_lease, lease_id)
                if record.get("event") == "lease":
                    open_leases[lease_id] = record
                else:
                    open_leases.pop(lease_id, None)
        return {"max_lease": max_lease, "open": open_leases,
                "audit": audit}
