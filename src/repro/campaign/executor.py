"""Sequential Monte Carlo executor with confidence-driven stopping.

For each grid point the executor runs *batches* of seed draws (each draw
is a paired scheme + fault-free simulation of the same seed) through the
batch engine, updates the point's :class:`~repro.campaign.stats.
PointAccumulator`, and stops as soon as every target metric's confidence
interval is tighter than its target half-width — or at ``max_seeds``.
Points with low seed-to-seed variance therefore cost a fraction of a
fixed-N design at the same statistical quality (pinned by
``tests/campaign/test_executor.py``).

Progress is journaled draw-by-draw (:mod:`repro.campaign.journal`), so
an interrupted campaign resumes exactly: completed points are skipped
outright, partial points replay their recorded draws into the
accumulator and continue from the next index, and the shared result
cache makes any re-executed in-flight run nearly free.

Worker failures are bounded: a batch that raises (worker crash) or
exceeds the per-run timeout is retried up to ``retries`` times before
the campaign aborts with :class:`CampaignError`; the journal keeps every
draw that finished, so an abort is always resumable.
"""

import os

from repro.campaign.journal import (
    Journal,
    read_manifest,
    run_event,
    write_manifest,
)
from repro.campaign.plan import CampaignSpec, extract_metrics
from repro.campaign.scheduler import PointScheduler, failure_record
from repro.campaign.stats import PointAccumulator
from repro.harness.parallel import MAX_LANES, ResultCache, run_many


class CampaignError(RuntimeError):
    """A campaign could not proceed (exhausted retries, bad state...)."""


class CampaignTimeout(CampaignError):
    """A batch exceeded its per-run timeout budget."""


def make_run_fn(jobs=1, cache=True, cache_dir=None, timeout=None, retries=2,
                batch_lanes=MAX_LANES):
    """Build the batch-execution callable used by :func:`run_campaign`.

    The returned function maps ``specs -> results`` through
    :func:`~repro.harness.parallel.run_many` with bounded retry:
    exceptions from workers and timeout breaches (raised as
    :class:`CampaignTimeout`) are retried up to ``retries`` times;
    completed runs persist in the result cache across attempts, so
    retries only re-execute the stragglers. ``timeout`` and
    ``batch_lanes`` pass through to ``run_many``.
    """
    if isinstance(cache, ResultCache):
        store = cache
    elif cache:
        store = ResultCache(cache_dir)
    else:
        store = None

    def run_fn(specs):
        last_error = None
        for _attempt in range(retries + 1):
            try:
                return run_many(specs, jobs=jobs, cache=store or False,
                                batch_lanes=batch_lanes, timeout=timeout)
            except TimeoutError as exc:
                last_error = CampaignTimeout(str(exc))
            except Exception as exc:  # noqa: BLE001 — worker crash
                last_error = exc
        raise CampaignError(
            f"batch failed after {retries + 1} attempts: {last_error!r}"
        )

    return run_fn


def run_draws(spec, point, indices, run_fn):
    """Run the paired draws ``indices`` of ``point`` as one ``run_fn`` call.

    Returns one outcome per index, in index order: the draw's journal
    ``run`` event dict, or the :class:`~repro.verify.bundle.RunFailure`
    of its scheme or baseline run. The single-pool executor and fleet
    workers both journal these events, so their journals are
    byte-identical.
    """
    pairs = [spec.pair_specs(point, i) for i in indices]
    results = run_fn([run_spec for pair in pairs for run_spec in pair])
    outcomes = []
    for offset, index in enumerate(indices):
        result, baseline = results[2 * offset], results[2 * offset + 1]
        failed = next(
            (c for c in (result, baseline)
             if getattr(c, "is_failure", False)),
            None,
        )
        if failed is not None:
            outcomes.append(failed)
            continue
        values, counts = extract_metrics(result, baseline)
        telem = getattr(result, "telemetry", None)
        outcomes.append(run_event(
            point.id, index, spec.seed_for(point, index), values, counts,
            telem.summary() if telem is not None else None,
            _snapshot_key(pairs[offset][0]),
        ))
    return outcomes


def _snapshot_key(run_spec):
    """The warmup snapshot key a run forked from (``None`` if cold)."""
    if getattr(run_spec, "snapshot_dir", None) is None:
        return None
    from repro.snapshot import snapshot_eligible

    return run_spec.warmup_key() if snapshot_eligible(run_spec) else None


def measure_point(spec, point, run_fn, acc=None, on_run=None):
    """Measure one grid point until its stopping rule fires.

    ``acc`` may carry replayed draws (resume); sampling continues from
    index ``acc.n``. ``on_run(event)`` is called with the journal
    ``run`` event of each completed draw, in index order — the journal
    hook (see :func:`run_draws`).

    The batching and stopping decisions live in
    :class:`~repro.campaign.scheduler.PointScheduler` — the same object
    the fleet coordinator leases draws from, so a distributed campaign
    stops every point after exactly the draws a single-pool one runs.

    Returns ``(acc, reason, failure)``: ``reason`` is ``"ci"`` (targets
    met), ``"max_seeds"``, or ``"failed"`` when a verified run came back
    as a :class:`~repro.verify.bundle.RunFailure` — the failure object
    (with its repro-bundle path) rides along and draws already pushed
    stay in ``acc``; ``failure`` is ``None`` otherwise.
    """
    scheduler = PointScheduler(spec, point, acc)
    while True:
        indices = scheduler.next_batch()
        if indices is None:
            return scheduler.acc, scheduler.stopped, scheduler.failure
        for outcome in run_draws(spec, point, indices, run_fn):
            if getattr(outcome, "is_failure", False):
                scheduler.fail(outcome)
                return scheduler.acc, "failed", outcome
            scheduler.record(
                outcome["index"], outcome["metrics"], outcome["counts"]
            )
            if on_run is not None:
                on_run(outcome)


def run_campaign(directory, spec=None, jobs=1, cache=True, cache_dir=None,
                 resume=False, timeout=None, retries=2, run_fn=None,
                 snapshots=True, snapshot_dir=None):
    """Execute (or resume) the campaign rooted at ``directory``.

    With ``spec`` given and no manifest present, the campaign is planned
    implicitly (manifest written). A directory whose journal already has
    events requires ``resume=True`` — refusing by default keeps a verb
    typo from silently double-counting a finished study.

    ``run_fn`` overrides batch execution entirely (tests inject
    counters/fakes); by default :func:`make_run_fn` wires
    :func:`~repro.harness.parallel.run_many` with
    ``jobs``/``cache``/``timeout``/``retries``, so draws sharing a warmup
    snapshot run through the lockstep batch engine, bit-identically.

    ``snapshots`` (default on) forks eligible runs from the warmup
    snapshot cache at ``snapshot_dir`` — defaulting to the result cache's
    root (``cache_dir``, ``REPRO_CACHE_DIR``, or ``./.sim_cache``) so one
    prune covers both. The cache location is an execution detail: results
    are bit-identical with snapshots on, off, or pointed elsewhere, and a
    campaign resumes correctly across a snapshot-cache wipe.

    Returns the final report dict (also written to ``report.json`` /
    ``report.md``).
    """
    from repro.campaign.report import write_reports

    directory = str(directory)
    if spec is not None:
        spec.validate()
        write_manifest(directory, spec)
    manifest = read_manifest(directory)
    spec = CampaignSpec.from_dict(manifest["spec"])
    journal = Journal(directory)
    if resume:
        # a kill mid-append leaves a torn trailing record; truncate it
        # before appending or the next event would concatenate onto it
        journal.repair()
    state = journal.replay()
    if state.done:
        return write_reports(directory)
    if state.n_events and not resume:
        raise CampaignError(
            f"{directory} already has journaled progress; "
            "pass resume=True (CLI: `campaign resume`) to continue it"
        )
    if run_fn is None:
        run_fn = make_run_fn(jobs, cache, cache_dir, timeout, retries)
    # verified/storm runs drop their repro bundles inside the campaign
    spec.repro_dir = os.path.join(directory, "bundles")
    if snapshots:
        from repro.harness.parallel import default_cache_root

        # share the result cache's root when caching (one prune covers
        # both stores); an uncached campaign keeps its snapshots inside
        # its own directory so nothing leaks outside it
        default_root = (
            (cache_dir or default_cache_root()) if cache
            else os.path.join(directory, "snapshots")
        )
        spec.snapshot_dir = str(
            snapshot_dir or os.environ.get("REPRO_SNAPSHOT_DIR")
            or default_root
        )

    with journal:
        for point in spec.points():
            if point.id in state.completed:
                continue
            acc = PointAccumulator(z=spec.z)
            for record in state.runs.get(point.id, []):
                acc.push(record["metrics"], record["counts"])
            acc, reason, failure = measure_point(
                spec, point, run_fn, acc, journal.append
            )
            event = {
                "event": "point", "point": point.id, "n": acc.n,
                "stopped": reason,
                "summary": acc.summary() if acc.n else None,
            }
            if failure is not None:
                # the point is journaled as completed-but-failed (resume
                # skips it; the campaign continues past it) with enough
                # to find and replay the repro bundle
                event["failure"] = failure_record(failure)
            journal.append(event)
        journal.append({"event": "done"})
    return write_reports(directory)
