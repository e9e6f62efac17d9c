"""In-memory live model of one campaign directory.

:class:`CampaignView` folds the records a
:class:`~repro.dashboard.watcher.JournalWatcher` emits into exactly the
state the offline tools rebuild from scratch — and then answers every
dashboard question from memory. The aggregation code is *shared*, not
mirrored: ``status()`` calls :func:`repro.campaign.status.
status_from_state` and ``report()`` calls :func:`repro.campaign.report.
report_from_state`, so a live view is byte-identical (as sorted-key
JSON) to a cold ``campaign status`` / ``campaign report`` rebuild of
the same journal — pinned by ``tests/dashboard/test_view.py``.

Journal records fold through the one
:meth:`~repro.campaign.journal.JournalState.fold` every reader uses:
draws keyed by ``(point, index)`` (the fleet's exactly-once rule) and
kept in index order, point completions first-write-win, ``done`` a
latch — so a journal rotation (the finish step's atomic canonical
rewrite) that makes the watcher re-read the file from byte zero
converges to the same state instead of double-counting.

The lease ledger feeds a fleet-health side model: open leases, per-worker
draw and grant/complete/revoke tallies (a lease's journaled draws ride
on its ``complete``/``revoke`` record, so a worker's draw count moves
when a lease ends, not per draw), steal and autoscale event logs,
and the coordinator's security audit counters (persisted as ledger
``audit`` records — see :meth:`~repro.fleet.ledger.LeaseLedger.
audited`).
"""

import os

from repro.campaign.journal import JournalState, read_manifest
from repro.campaign.plan import CampaignSpec
from repro.campaign.report import report_from_state
from repro.campaign.stats import PointAccumulator
from repro.campaign.status import status_from_state
from repro.dashboard.watcher import SOURCE_JOURNAL, JournalWatcher

#: how many steal / scale events the fleet side model retains (newest
#: kept; the full history stays in leases.jsonl)
EVENT_LOG_LIMIT = 200


class CampaignView:
    """Incrementally folded view of a campaign directory.

    Construct, then call :meth:`refresh` on whatever cadence the
    consumer ticks at; every query method reads the folded state only.
    ``version`` increments exactly when a refresh changed anything —
    the figure cache and SSE broadcaster key on it.
    """

    def __init__(self, directory, watcher=None):
        self.directory = str(directory)
        manifest = read_manifest(self.directory)
        self.spec = CampaignSpec.from_dict(manifest["spec"])
        self.model_version = manifest.get("model_version")
        self.watcher = watcher or JournalWatcher(self.directory)
        self.state = JournalState()
        self.version = 0
        self._point_ids = {p.id for p in self.spec.points()}
        self.fleet = {
            # name -> {draws, granted, completed, revoked, stolen_from}
            "workers": {},
            "open_leases": {},  # lease id -> grant record
            "steals": [],
            "scale_events": [],
            "audit": None,  # last persisted coordinator audit counters
            "leases_granted": 0,
            "leases_completed": 0,
            "leases_revoked": 0,
        }

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def refresh(self):
        """Poll the watcher and fold; returns the number of new records."""
        changed = 0
        for source, record in self.watcher.poll():
            if source == SOURCE_JOURNAL:
                if (record.get("event") == "run"
                        and record.get("point") not in self._point_ids):
                    continue  # foreign record (corrupt line that decoded?)
                changed += self.state.fold(record)
            else:
                changed += self._fold_ledger(record)
        if changed:
            self.version += 1
        return changed

    def _worker(self, name):
        return self.fleet["workers"].setdefault(
            name,
            {"draws": 0, "granted": 0, "completed": 0, "revoked": 0,
             "stolen_from": 0},
        )

    def _fold_ledger(self, record):
        fleet = self.fleet
        kind = record.get("event")
        if kind == "lease":
            fleet["open_leases"][record["lease"]] = record
            fleet["leases_granted"] += 1
            self._worker(record.get("worker", "?"))["granted"] += 1
            return 1
        if kind in ("complete", "revoke"):
            # a lease's journaled draws are credited to its holder, the
            # same rule the coordinator applies to stolen indices
            grant = fleet["open_leases"].pop(record.get("lease"), None)
            tally = "completed" if kind == "complete" else "revoked"
            fleet["leases_" + tally] += 1
            if grant is not None:
                worker = self._worker(grant.get("worker", "?"))
                worker[tally] += 1
                worker["draws"] += record.get("draws", 0)
            return 1
        if kind == "steal":
            fleet["steals"].append(record)
            del fleet["steals"][:-EVENT_LOG_LIMIT]
            self._worker(record.get("victim", "?"))["stolen_from"] += 1
            return 1
        if kind == "scale":
            fleet["scale_events"].append(record)
            del fleet["scale_events"][:-EVENT_LOG_LIMIT]
            return 1
        if kind == "audit":
            fleet["audit"] = dict(record.get("counters") or {})
            return 1
        return 0

    # ------------------------------------------------------------------
    # queries (shared offline aggregation — byte-identical by reuse)
    # ------------------------------------------------------------------
    def status(self):
        """``campaign status`` dict of the folded state."""
        return status_from_state(self.spec, self.state)

    def report(self):
        """``campaign report`` dict of the folded state."""
        return report_from_state(self.spec, self.state)

    def points(self):
        """Per-point progress + headline summaries for ``/api/points``."""
        status = self.status()
        by_id = {
            entry["point"]: entry for entry in self.report()["points"]
        }
        for point in status["points"]:
            entry = by_id.get(point["point"])
            point["metrics"] = entry["metrics"] if entry else None
        return status

    # ------------------------------------------------------------------
    def convergence(self, point_id):
        """CI half-width after each draw, per target metric.

        The sequential-stopping story as a figure: for draw counts
        1..n, the half-width every target metric had at that point of
        the stream (``None`` while still infinite), plus the target
        lines. Deterministic — pure arithmetic over journaled draws.
        """
        records = self.state.runs.get(point_id, [])
        acc = PointAccumulator(z=self.spec.z)
        series = {metric: [] for metric in self.spec.targets}
        for record in records:
            acc.push(record["metrics"], record["counts"])
            for metric in series:
                half = acc.halfwidth(metric)
                series[metric].append(
                    half if half == half and half != float("inf") else None
                )
        return {
            "point": point_id,
            "n": len(records),
            "targets": dict(sorted(self.spec.targets.items())),
            "halfwidths": series,
        }

    def telemetry(self, point_id):
        """Per-draw interval-telemetry summaries for sparklines.

        One row per journaled draw that carried a telemetry summary:
        ``{"index", "windows", <metric>: {min, mean, max}}``. Empty
        ``rows`` when the campaign ran without ``--telemetry-interval``.
        """
        rows = []
        interval = None
        for record in self.state.runs.get(point_id, []):
            summary = record.get("telemetry")
            if not summary:
                continue
            interval = summary.get("interval", interval)
            row = {"index": record["index"],
                   "windows": summary.get("windows")}
            for name, entry in summary.items():
                if isinstance(entry, dict) and "mean" in entry:
                    row[name] = entry
                elif name == "dropped_events":
                    row[name] = entry
            rows.append(row)
        return {"point": point_id, "interval": interval, "rows": rows}

    # ------------------------------------------------------------------
    def point_detail(self, point_id):
        """Drill-down dict for ``/api/point/<id>`` (None if unknown).

        Links every artifact the draw trail left behind: journaled
        snapshot keys (downloadable when the snapshot cache is local),
        repro bundles dropped by failed verified runs, and any Perfetto
        traces exported into the campaign's ``traces/`` directory.
        """
        point = next(
            (p for p in self.spec.points() if p.id == point_id), None
        )
        if point is None:
            return None
        records = self.state.runs.get(point_id, [])
        completion = self.state.completed.get(point_id)
        draws = [
            {
                "index": r["index"],
                "seed": r["seed"],
                "metrics": r["metrics"],
                "counts": r["counts"],
                "snapshot": r.get("snapshot"),
                "telemetry": bool(r.get("telemetry")),
            }
            for r in records
        ]
        snapshots = sorted({
            r["snapshot"] for r in records if r.get("snapshot")
        })
        detail = {
            "point": point_id,
            "benchmark": point.benchmark,
            "scheme": point.scheme.name,
            "vdd": point.vdd,
            "n": len(records),
            "completed": completion is not None,
            "stopped": completion["stopped"] if completion else None,
            "failure": (completion or {}).get("failure"),
            "summary": completion["summary"] if completion else None,
            "draws": draws,
            "convergence": self.convergence(point_id),
            "artifacts": {
                "snapshots": snapshots,
                "bundles": self._artifact_files("bundles"),
                "traces": self._artifact_files("traces"),
            },
            "fork": self.fork_spec(point_id),
        }
        return detail

    def _artifact_files(self, subdir):
        try:
            names = sorted(os.listdir(os.path.join(self.directory, subdir)))
        except OSError:
            return []
        return [n for n in names if not n.startswith(".")]

    # ------------------------------------------------------------------
    def fork_spec(self, point_id):
        """A ready-to-run single-point campaign spec forked from a point.

        Re-emits the point's :class:`RunSpec` knobs as a ``campaign
        plan`` manifest spec (grid collapsed to the one point, every
        statistical knob inherited), plus the draw-0 run spec and the
        CLI line that plans it — the replay/what-if loop: tweak a knob,
        plan, run.
        """
        point = next(
            (p for p in self.spec.points() if p.id == point_id), None
        )
        if point is None:
            return None
        from repro.verify.bundle import spec_to_dict

        campaign = self.spec.to_dict()
        campaign["name"] = f"{self.spec.name}-fork"
        campaign["benchmarks"] = [point.benchmark]
        campaign["schemes"] = [point.scheme.name]
        campaign["vdds"] = [point.vdd]
        run_spec, _base = self.spec.pair_specs(point, 0)
        cli = (
            "repro-timing campaign plan --dir <new-dir>"
            f" --name {campaign['name']}"
            f" --benchmarks {point.benchmark}"
            f" --schemes {point.scheme.name}"
            f" --vdds {point.vdd!r}"
            f" --instructions {self.spec.n_instructions}"
            f" --warmup {self.spec.warmup}"
            f" --seed {self.spec.master_seed}"
            f" --seeds-min {self.spec.min_seeds}"
            f" --seeds-max {self.spec.max_seeds}"
            f" --batch {self.spec.batch_size}"
            f" --predictor {self.spec.predictor}"
        )
        if self.spec.telemetry_interval:
            cli += f" --telemetry-interval {self.spec.telemetry_interval}"
        return {
            "campaign_spec": campaign,
            "run_spec": spec_to_dict(run_spec),
            "cli": cli,
        }

    # ------------------------------------------------------------------
    def fleet_status(self):
        """Fleet-health dict for ``/api/fleet`` (journals + ledger only).

        Built entirely from on-disk artifacts, so it works on a live,
        killed, or finished fleet without touching the coordinator —
        the multi-viewer answer to ``fleet status``.
        """
        fleet = self.fleet
        return {
            "workers": {
                name: dict(info)
                for name, info in sorted(fleet["workers"].items())
            },
            "open_leases": [
                fleet["open_leases"][k]
                for k in sorted(fleet["open_leases"])
            ],
            "leases_granted": fleet["leases_granted"],
            "leases_completed": fleet["leases_completed"],
            "leases_revoked": fleet["leases_revoked"],
            "steals": list(fleet["steals"]),
            "scale_events": list(fleet["scale_events"]),
            "audit": (
                dict(fleet["audit"]) if fleet["audit"] is not None else None
            ),
            "endpoint": self._endpoint(),
        }

    def _endpoint(self):
        try:
            from repro.fleet.coordinator import read_endpoint

            return read_endpoint(self.directory)
        except (OSError, ValueError):
            return None
