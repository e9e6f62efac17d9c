"""Batch experiment engine: parallel fan-out plus an on-disk result cache.

The experiment drivers (tables, figures, calibration, shmoo) all reduce to
"run this grid of :class:`~repro.harness.runner.RunSpec` points".
:func:`run_many` is the single entry point for that pattern:

* **Caching** — every completed :class:`~repro.harness.runner.SimResult`
  is pickled under a content address derived from ``RunSpec.key()``, so
  re-running an experiment (or a different experiment sharing points, e.g.
  Figure 4 after Table 1) is free. The cache is invalidated wholesale
  whenever the simulator's source changes: results live in a subdirectory
  named after :func:`model_version`, a digest of every ``repro`` source
  file. Stale model versions are pruned opportunistically.

* **Parallelism** — cache misses are farmed to a ``multiprocessing`` pool.
  Runs are pure functions of their spec (the simulator threads explicit
  seeds everywhere), so fan-out cannot change results; a determinism test
  pins ``run_many(jobs=N) == serial``.

* **Batching** — cache misses sharing one warmup snapshot run as lanes of
  one lockstep batch-engine call (:mod:`repro.snapshot.batch`), bit-
  identically to running them one by one.

Both are safe because runs are deterministic and self-contained: a spec
fully determines its result (see ``RunSpec.canonical``).
"""

import hashlib
import os
import pickle
import sys
import time

from repro.harness.diskcache import BlobStore
from repro.harness.runner import run_one

#: cache-format version; bump to orphan every existing cache entry.
_CACHE_FORMAT = 1

#: most lanes one batch-engine call advances (the ``batch_lanes`` default)
MAX_LANES = 64

_version_cache = None


#: source suffixes that define the model: the Python package plus the
#: compiled batch kernel's C source
_MODEL_SOURCES = (".py", ".c")


def source_digest(root):
    """16-hex-digit digest of the model sources under ``root``.

    Hashes every ``.py`` and ``.c`` file (path and contents, in sorted
    path order).
    """
    digest = hashlib.sha256(b"repro-cache-format:%d" % _CACHE_FORMAT)
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(_MODEL_SOURCES):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            digest.update(rel.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def model_version():
    """Digest of the simulator sources: the cache-invalidation stamp.

    :func:`source_digest` of the installed ``repro`` package, so any
    change to the model — pipeline, batch kernel, fault injector, energy
    model, workload generator — retires all previously cached results.
    """
    global _version_cache
    if _version_cache is None:
        import repro

        _version_cache = source_digest(
            os.path.dirname(os.path.abspath(repro.__file__))
        )
    return _version_cache


def default_cache_root():
    """Default cache root: ``$REPRO_CACHE_DIR`` or ``./.sim_cache``."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.getcwd(), ".sim_cache"
    )


class ResultCache(BlobStore):
    """Content-addressed store of pickled :class:`SimResult` objects.

    Layout: ``<root>/<model_version>/<spec_key>.pkl`` (the store/prune
    mechanics live in :class:`~repro.harness.diskcache.BlobStore`, shared
    with the snapshot cache). Loads and stores are best-effort — a
    corrupt or unreadable entry is treated as a miss and overwritten,
    never raised to the caller.
    """

    suffix = ".pkl"

    def __init__(self, root=None):
        if root is None:
            root = default_cache_root()
        super().__init__(root, model_version())
        self.hits = 0
        self.misses = 0

    def _path(self, spec):
        return self.path_for(spec.key())

    def load(self, spec):
        """The cached result for ``spec``, or ``None`` on a miss.

        Any unreadable entry — truncated write, corrupted bytes, a
        pickle from renamed classes — is logged, unlinked, and treated
        as a miss: a bad cache file must cost one recompute, never a
        crashed batch.
        """
        key = spec.key()
        payload = self.read_bytes(key)
        if payload is None:
            self.misses += 1
            return None
        try:
            result = pickle.loads(payload)
        except Exception as exc:  # noqa: BLE001 — any corrupt entry
            self.misses += 1
            print(
                f"[cache] discarding unreadable entry "
                f"{key + self.suffix}: {exc!r}",
                file=sys.stderr,
            )
            self.remove(key)
            return None
        self.hits += 1
        return result

    def store(self, spec, result):
        """Persist ``result`` under ``spec``'s content address."""
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        self.write_bytes(spec.key(), payload)


def _worker(spec):
    # module-level so it pickles under every multiprocessing start method
    if (
        getattr(spec, "verify", False)
        or getattr(spec, "storm", None) is not None
        or getattr(spec, "corruption", None)
    ):
        # verification failures come back as RunFailure result objects
        # (with a repro bundle) instead of killing the whole batch
        from repro.verify.driver import run_checked

        return run_checked(spec)
    return run_one(spec)


def _resolve_jobs(jobs, n_pending):
    if jobs in (None, 0):
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, n_pending))


def _pool(n_procs):
    import multiprocessing

    # fork (when available) shares the warm program caches with the
    # workers; spawn still works because the tasks are importable
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context()
    return ctx.Pool(n_procs)


def _task(item):
    # module-level so it pickles under every multiprocessing start method;
    # ``item`` is (task number, specs): one spec, or the lanes of a batch
    number, specs = item
    if len(specs) > 1:
        from repro.snapshot.batch import run_batch

        return number, run_batch(specs, specs[0].snapshot_dir)
    return number, [_worker(specs[0])]


def _plan_tasks(todo, batch_lanes):
    """Partition ``todo`` into pool tasks, each a list of specs.

    Eligible specs sharing one warmup snapshot (and snapshot dir) become
    multi-lane tasks of up to ``batch_lanes`` lanes for the lockstep
    batch engine; everything else, configurations the kernel never
    models included, is a one-spec task. Batch tasks are
    formed only when the compiled kernel loads: without it every lane
    would run serially inside one scalar fallback, losing the fan-out.
    """
    from repro.snapshot.batch import batch_groups

    by_dir = {}
    for spec in todo:
        directory = getattr(spec, "snapshot_dir", None)
        if directory is not None:
            by_dir.setdefault(str(directory), []).append(spec)
    groups = []
    if batch_lanes > 1:
        for members in by_dir.values():
            groups += batch_groups(members, batch_lanes)[0]
    if groups:
        from repro.uarch import batchcore

        if batchcore.load_kernel() is None:
            groups = []
    grouped = {id(spec) for group in groups for spec in group}
    return groups + [[spec] for spec in todo if id(spec) not in grouped]


def _run_tasks(tasks, n_jobs, timeout, n_runs):
    """Yield ``(specs, results)`` for each task as it completes.

    Without a ``timeout`` a single worker runs the tasks in-process.
    With one, the tasks always run on a pool, under a wall-clock budget
    of ``timeout`` per run over the pool's depth, every lane of a batch
    counting as one run (a batch may run its lanes one by one). Workers
    take tasks as they free up, so a task starts once at most
    ``(n_runs - lanes) // workers`` runs' worth of time has passed and
    the depth is that plus the largest task's lanes — ``ceil(n_runs /
    workers)`` when every task is one run. On breach the pool is
    terminated, killing hung workers, and ``TimeoutError`` is raised;
    tasks already yielded keep their results.
    """
    items = list(enumerate(tasks))
    n_procs = min(n_jobs, len(tasks))
    if timeout is None and n_procs == 1:
        for number, results in map(_task, items):
            yield tasks[number], results
        return
    import multiprocessing

    budget = None
    if timeout is not None:
        largest = max(len(task) for task in tasks)
        budget = timeout * ((n_runs - largest) // n_procs + largest)
        deadline = time.monotonic() + budget
    with _pool(n_procs) as pool:
        done = pool.imap_unordered(_task, items)
        for _item in items:
            wait = None
            if budget is not None:
                wait = max(0.0, deadline - time.monotonic())
            try:
                number, results = done.next(wait)
            except multiprocessing.TimeoutError:
                raise TimeoutError(
                    f"batch of {n_runs} runs missed its {budget:.0f}s "
                    f"budget ({timeout}s/run)"
                ) from None
            yield tasks[number], results


def _ensure_snapshot_worker(spec):
    # module-level so it pickles under every multiprocessing start method
    from repro.snapshot import ensure_snapshot

    ensure_snapshot(spec, spec.snapshot_dir)


def _warm_snapshots(specs, n_jobs=1):
    """Warm each unique warmup prefix of ``specs`` once, storing snapshots.

    Without this pre-pass, parallel cache misses sharing one warmup
    prefix would each re-simulate the warmup from cycle 0 — the snapshot
    store only dedupes after the first write lands. Missing prefixes are
    warmed once (in parallel when the batch itself is parallel) so the
    fan-out that follows forks every draw from a warmed snapshot.
    """
    from repro.snapshot import SnapshotCache, ensure_snapshot, snapshot_eligible

    groups = {}  # (dir, warmup_key) -> first spec with that prefix
    for spec in specs:
        directory = getattr(spec, "snapshot_dir", None)
        if directory is None or not snapshot_eligible(spec):
            continue
        groups.setdefault((str(directory), spec.warmup_key()), spec)
    todo = [
        spec for (directory, key), spec in groups.items()
        if not SnapshotCache(directory).has(key)
    ]
    if not todo:
        return
    n_procs = min(max(1, int(n_jobs)), len(todo))
    if n_procs > 1:
        with _pool(n_procs) as pool:
            pool.map(_ensure_snapshot_worker, todo)
    else:
        for spec in todo:
            ensure_snapshot(spec, spec.snapshot_dir)


def run_many(specs, jobs=1, cache=False, cache_dir=None, snapshot_dir=None,
             batch_lanes=MAX_LANES, timeout=None):
    """Run a batch of specs; results in the same order as ``specs``.

    The one executor every simulation of an experiment or campaign goes
    through. ``jobs``: worker processes for the cache misses. ``1`` (the
    default) runs serially in-process; ``None``/``0`` uses every core.
    ``cache``: when true, consult and populate the on-disk
    :class:`ResultCache` (rooted at ``cache_dir``, the
    ``REPRO_CACHE_DIR`` environment variable, or ``./.sim_cache``). An
    existing :class:`ResultCache` may be passed directly as ``cache``;
    each task's results are stored as soon as the task completes.

    ``snapshot_dir``: when set, stamp it onto every spec as the warmup
    snapshot cache location (specs already carrying a ``snapshot_dir``
    keep theirs). Each unique warmup prefix of the batch is then warmed
    exactly once and every eligible run forks from its snapshot — see
    :mod:`repro.snapshot`.

    Cache-missing specs that share one warmup snapshot run through the
    lockstep batch engine (:mod:`repro.snapshot.batch`), up to
    ``batch_lanes`` lanes per engine call, whenever the compiled kernel
    loads. Results are bit-identical to the scalar path; ineligible
    specs and singleton groups run scalar. ``batch_lanes=0`` runs every
    spec on the scalar path — the bit-identity reference.

    ``timeout``: seconds per run; the whole call then runs on a pool
    (even at ``jobs=1``) and raises ``TimeoutError`` once the batch
    overruns its budget (see :func:`_run_tasks`). Results of tasks that
    finished before the breach are already in the cache.

    Identical specs in one batch are simulated once and share the result.
    """
    specs = list(specs)
    if isinstance(cache, ResultCache):
        store = cache
    elif cache:
        store = ResultCache(cache_dir)
    else:
        store = None
    if snapshot_dir is not None:
        for spec in specs:
            if getattr(spec, "snapshot_dir", None) is None:
                spec.snapshot_dir = str(snapshot_dir)

    keys = [spec.key() for spec in specs]
    found = {}  # spec key -> result
    todo = {}  # spec key -> first cache-missing spec (dedup in the batch)
    for spec, key in zip(specs, keys):
        if key in found or key in todo:
            continue
        cached = store.load(spec) if store is not None else None
        if cached is None:
            todo[key] = spec
        else:
            found[key] = cached

    if todo:
        n_jobs = _resolve_jobs(jobs, len(todo))
        _warm_snapshots(todo.values(), n_jobs)
        tasks = _plan_tasks(list(todo.values()), batch_lanes)
        for task, results in _run_tasks(tasks, n_jobs, timeout, len(todo)):
            for spec, result in zip(task, results):
                # failures are never cached: a transient capture must
                # not poison future batches with a pre-failed result
                if store is not None and not getattr(
                        result, "is_failure", False):
                    store.store(spec, result)
                found[spec.key()] = result
    return [found[key] for key in keys]


def collect_series(results):
    """Interval-metrics series of a batch, pooled into one mean timeline.

    Results ride their telemetry through the pool and the cache (a
    :class:`~repro.harness.runner.SimResult` carries its
    ``TelemetryResult`` as plain data), so pooling after ``run_many`` is
    pure aggregation: every result whose spec enabled metrics
    contributes its series to a :meth:`~repro.telemetry.metrics.
    MetricsSeries.merge` (windows aligned by index, averaged pointwise).
    Returns ``None`` when no result carries a series.
    """
    from repro.telemetry.metrics import MetricsSeries

    series = [
        result.telemetry.metrics
        for result in results
        if result is not None
        and getattr(result, "telemetry", None) is not None
        and result.telemetry.metrics is not None
    ]
    return MetricsSeries.merge(series)
