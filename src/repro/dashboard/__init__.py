"""Live results service: a dashboard over everything the repro writes.

The campaign engine and the fleet coordinator journal draws, the fleet
keeps a lease ledger, runs summarize interval telemetry, failures drop repro
bundles — and this package is the first subsystem that *reads* all of
it. A stdlib-only asyncio HTTP server (``repro-timing dashboard serve``)
tails the journals incrementally and serves JSON endpoints, a
Server-Sent-Events stream, deterministic figure JSON, and one static
HTML page; the same watcher/view substrate drives ``campaign status
--follow`` and ``fleet status --follow`` in a terminal.

Layers
------
:mod:`repro.dashboard.watcher`
    Incremental JSONL tailing with torn-tail, rotation, and late-file
    tolerance.
:mod:`repro.dashboard.view`
    :class:`CampaignView`: the folded in-memory model, reusing the
    offline ``status``/``report`` aggregation for byte-identity.
:mod:`repro.dashboard.figures`
    Deterministic figure JSON catalog, memoized per state version.
:mod:`repro.dashboard.server`
    The asyncio HTTP + SSE server and its blocking CLI entry point.
:mod:`repro.dashboard.page`
    The single static HTML/JS page (no build step).
:mod:`repro.dashboard.follow`
    Terminal live-refresh mode on the same substrate.

See ``docs/observability.md`` ("Live dashboard") for the endpoint and
SSE contracts.
"""

from repro.dashboard.figures import FigureCache, build_figures
from repro.dashboard.follow import follow_status
from repro.dashboard.server import DashboardServer, serve_dashboard
from repro.dashboard.view import CampaignView
from repro.dashboard.watcher import JournalWatcher, TailedFile

__all__ = [
    "CampaignView",
    "DashboardServer",
    "FigureCache",
    "JournalWatcher",
    "TailedFile",
    "build_figures",
    "follow_status",
    "serve_dashboard",
]
