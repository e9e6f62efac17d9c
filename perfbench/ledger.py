"""Per-layer time ledger, recorded from outside the simulator.

:class:`Ledger` replaces public functions of each simulator layer with
timing wrappers (module attributes and class methods, patched where the
caller looks them up) and restores them on :meth:`Ledger.uninstall`.
Spans nest: each records its *self* time, i.e. its duration minus the
time its child spans cover, so the self times of all layers plus the
unattributed remainder add up to the traced wall time exactly (one
thread, properly nested calls). Inclusive durations are kept as well.

The scalar cycle loop is broken down by the public
:class:`repro.telemetry.profile.SelfProfiler`, attached to every core at
the warmup-to-measurement boundary. Its stage times are credited as
children of the enclosing ``harness.measure`` span.
"""

import importlib
from time import perf_counter

#: (span name, module, attribute) — every place the layer's callers
#: resolve the function at call time. Names imported with ``from x
#: import y`` must be patched in the importing module too.
SPANS = (
    ("workloads.build_program", "repro.harness.runner", "build_program"),
    ("workloads.estimate_pc_freq", "repro.harness.runner",
     "estimate_pc_freq"),
    ("harness.warm_core", "repro.harness.runner", "warm_core"),
    ("harness.warm_core", "repro.snapshot.fork", "warm_core"),
    ("harness.prime_caches", "repro.harness.runner", "prime_caches"),
    ("harness.measure", "repro.harness.runner", "measure"),
    ("harness.measure", "repro.snapshot.batch", "measure"),
    ("harness.result_cache.load", "repro.harness.parallel",
     "ResultCache.load"),
    ("harness.result_cache.store", "repro.harness.parallel",
     "ResultCache.store"),
    ("snapshot.ensure", "repro.snapshot", "ensure_snapshot"),
    ("snapshot.ensure", "repro.snapshot.batch", "ensure_snapshot"),
    ("snapshot.capture", "repro.snapshot.fork", "capture_core"),
    ("snapshot.restore", "repro.snapshot.fork", "restore_core"),
    ("uarch.batch.build_plan", "repro.uarch.batchcore", "build_plan"),
    ("uarch.batch.build_tapes", "repro.snapshot.batch", "build_tapes"),
    ("uarch.batch.engine_run", "repro.uarch.batchcore", "BatchEngine.run"),
    ("uarch.batch.kernel_call", "repro.uarch.batchcore", "call_kernel"),
    # the per-lane scalar path of run_batch: whole-batch fallbacks and
    # evicted lanes both go through it
    ("uarch.batch.scalar_fallback", "repro.snapshot.batch", "_scalar_lane"),
    ("campaign.journal.append", "repro.campaign.journal", "Journal.append"),
    ("campaign.report.write", "repro.campaign.report", "write_reports"),
)

#: SelfProfiler stage labels, plus the loop residue it reports
LOOP_STAGES = ("fetch", "dispatch", "select", "commit", "events", "other")


def _resolve(module, attr):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Ledger:
    """Nested span timer over patched layer entry points."""

    def __init__(self):
        self.seconds = {}
        self.total = {}
        self.calls = {}
        self.loop_seconds = dict.fromkeys(LOOP_STAGES, 0.0)
        self.loop_calls = dict.fromkeys(LOOP_STAGES, 0)
        self.loop_cycles = 0
        self.loop_wall = 0.0
        self._stack = []
        self._patches = []

    def _timed(self, name, fn):
        seconds = self.seconds
        total = self.total
        calls = self.calls
        stack = self._stack
        seconds.setdefault(name, 0.0)
        total.setdefault(name, 0.0)
        calls.setdefault(name, 0)

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                seconds[name] += dt - stack.pop()
                total[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1] += dt

        return timed

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self):
        """Patch every layer entry point and the measurement boundary."""
        for span, module, attr in SPANS:
            owner, name = _resolve(module, attr)
            self._patch(owner, name, self._timed(span, getattr(owner, name)))
        runner = importlib.import_module("repro.harness.runner")
        self._patch(runner, "begin_measurement",
                    self._profiled_boundary(runner.begin_measurement))
        return self

    def uninstall(self):
        """Restore every patched attribute."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _profiled_boundary(self, begin_measurement):
        from repro.telemetry.profile import SelfProfiler

        ledger = self

        def boundary(core, spec):
            collector = begin_measurement(core, spec)
            profiler = SelfProfiler().attach(core)
            run = core.run

            def profiled_run(*args, **kwargs):
                try:
                    return run(*args, **kwargs)
                finally:
                    ledger._fold(profiler.report(), core.stats.cycles)

            core.run = profiled_run
            return collector

        return boundary

    def _fold(self, report, cycles):
        for label, entry in report["stages"].items():
            self.loop_seconds[label] += entry["seconds"]
            self.loop_calls[label] += entry["calls"]
        self.loop_seconds["other"] += report["other_seconds"]
        self.loop_calls["other"] += 1
        self.loop_cycles += cycles
        self.loop_wall += report["wall_seconds"]
        # the loop is a child of the enclosing harness.measure span
        if self._stack:
            self._stack[-1] += report["wall_seconds"]

    def attributed(self):
        """Seconds covered by some span or loop stage."""
        return sum(self.seconds.values()) + self.loop_wall
