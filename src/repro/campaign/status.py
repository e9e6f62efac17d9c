"""In-progress campaign introspection: per-point draw counts and CIs.

``campaign status`` (and ``fleet status`` on a fleet directory, live or
dead — its journal is the same file) answers "how far along is this
study?" without touching the executor: replay the journal, rebuild each
point's accumulator, and report its draw count, every target metric's
current CI half-width against its target, and the stopping-rule state.
Works on a live, killed, or finished campaign — the journal is the
single source of truth.
"""

from repro.campaign.journal import Journal, read_manifest
from repro.campaign.plan import CampaignSpec
from repro.campaign.stats import PointAccumulator


def build_status(directory):
    """Status dict for the campaign rooted at ``directory``.

    Reads ``manifest.json`` (:class:`FileNotFoundError` if absent) and
    replays ``journal.jsonl``. See :func:`status_from_state` for the
    shape.
    """
    manifest = read_manifest(directory)
    spec = CampaignSpec.from_dict(manifest["spec"])
    state = Journal(directory).replay()
    return status_from_state(spec, state)


def status_from_state(spec, state):
    """Fold a replayed :class:`~repro.campaign.journal.JournalState`.

    Returns::

        {"campaign": name, "complete": bool, "points_total": int,
         "points_done": int, "runs_total": int,
         "points": [{"point": id, "n": draws, "state": ...,
                     "stopped": reason-or-None,
                     "targets": {metric: {"halfwidth": h-or-None,
                                          "target": t, "met": bool}}}]}

    ``state`` per point is ``"pending"`` (no draws yet), ``"sampling"``
    (draws recorded, stopping rule not yet satisfied), or the recorded
    stopping reason (``"ci"``, ``"max_seeds"``, ``"failed"``).

    Shared by the offline CLI path and the fleet coordinator's live
    status endpoint (which folds its in-memory schedulers into the same
    shape), so both render identically.
    """
    points = []
    for point in spec.points():
        completion = state.completed.get(point.id)
        records = state.runs.get(point.id, [])
        acc = PointAccumulator(z=spec.z)
        for record in records:
            acc.push(record["metrics"], record["counts"])
        if completion is not None:
            point_state = completion["stopped"]
            stopped = completion["stopped"]
            n = completion["n"]
        else:
            point_state = "sampling" if acc.n else "pending"
            stopped = None
            n = acc.n
        targets = {}
        for metric, target in sorted(spec.targets.items()):
            half = acc.halfwidth(metric) if acc.n else None
            if half is not None and half == float("inf"):
                half = None
            targets[metric] = {
                "halfwidth": half,
                "target": target,
                "met": half is not None and half <= target,
            }
        points.append({
            "point": point.id,
            "n": n,
            "state": point_state,
            "stopped": stopped,
            "targets": targets,
        })
    return {
        "campaign": spec.name,
        "complete": state.done,
        "points_total": len(points),
        "points_done": len(state.completed),
        "runs_total": state.total_runs,
        "points": points,
    }


def render_status(status):
    """Human-readable rendering of :func:`build_status`'s dict."""
    lines = [
        f"campaign {status['campaign']!r}: "
        f"{status['points_done']}/{status['points_total']} points done, "
        f"{status['runs_total']} draws journaled, "
        f"complete={str(status['complete']).lower()}",
    ]
    width = max((len(p["point"]) for p in status["points"]), default=5)
    for point in status["points"]:
        cells = []
        for metric, entry in point["targets"].items():
            half = entry["halfwidth"]
            shown = "inf" if half is None else f"{half:.4f}"
            mark = "<=" if entry["met"] else ">"
            cells.append(f"{metric} {shown} {mark} {entry['target']}")
        lines.append(
            f"  {point['point']:<{width}}  n={point['n']:<3} "
            f"{point['state']:<9} " + "  ".join(cells)
        )
    return "\n".join(lines)
