"""One benchmark workload in a fresh process (started by ``run.py``).

Usage (normally only through ``perfbench/run.py``)::

    PYTHONPATH=src python3 perfbench/bench.py --workload campaign_deep \\
        --seed 1 --seconds 20 --trace 0 --tmp DIR --spawned-at T

``--setup-only`` stops after set-up and prints the set-up time, so the
parent can sample set-up in several fresh processes.

The process sets up (imports, compiles and loads the C batch kernel into
a fresh kernel cache, creates empty result-cache and snapshot stores),
then runs units of work until ``--seconds`` have passed. Unit ``i``
draws its inputs from ``(--seed, workload, i)`` only, so unit 0 is the
same on every run with one seed: it carries the output checks, the
simulated-statistics digest and the modelled-design figures. The
end-to-end rates and the set-up time are scaled to a reference speed
(see :func:`reference_s`). Every line but the last on stdout is
human-readable detail; the last line is one JSON object for ``run.py``.

With ``--trace 1`` odd units run under :class:`ledger.Ledger` and even
units untraced; the difference in per-unit time is the tracing
overhead.
"""

import argparse
import json
import math
import os
import random
import resource
import shutil
import sys
from collections import Counter
from statistics import median
from time import monotonic, perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: lanes per batch-engine call in both campaign workloads
BATCH_LANES = 64


def _finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def _ratio(num, den):
    return num / den if den else 0.0


def _window_missed(committed, window):
    """True unless a run retired its window, overshooting by < one group.

    The core retires up to ``width`` instructions per cycle, so a run
    stops somewhere in ``[window, window + width)``.
    """
    from repro.uarch.config import CoreConfig

    return not window <= committed < window + CoreConfig.core1().width


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup(tmp):
    """Imports, kernel compile+load, empty stores; returns kernel facts."""
    import repro

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")
    import repro.campaign.executor  # noqa: F401
    import repro.harness.experiments  # noqa: F401
    import repro.snapshot.batch  # noqa: F401
    import repro.telemetry.profile  # noqa: F401
    from repro.harness.parallel import ResultCache
    from repro.snapshot import SnapshotCache
    from repro.uarch.batchkernel import load_kernel

    for name in ("kernel", "cache", "snapshots", "campaigns"):
        os.makedirs(os.path.join(tmp, name), exist_ok=True)
    t0 = perf_counter()
    kernel = load_kernel()
    kernel_load_s = perf_counter() - t0
    ResultCache(os.path.join(tmp, "cache"))  # hashes the model version
    SnapshotCache(os.path.join(tmp, "snapshots"))
    return {"kernel": kernel is not None, "kernel_load_s": kernel_load_s}


# ----------------------------------------------------------------------
# engine lane accounting (always on: it only reads BatchReport)
# ----------------------------------------------------------------------
class LaneCounter:
    """Folds the :class:`BatchReport` of every ``run_batch`` call."""

    KEYS = ("batches", "vector_lanes", "scalar_lanes", "evicted_lanes",
            "fallback_batches", "kernel_lanes")

    def __init__(self):
        self.totals = dict.fromkeys(self.KEYS, 0)
        self.reasons = Counter()
        self._kernel_calls = 0

    def install(self):
        import repro.snapshot.batch as batch
        import repro.uarch.batchcore as batchcore

        run_batch = batch.run_batch
        call_kernel = batchcore.call_kernel
        counter = self

        def counted_call_kernel(*args, **kwargs):
            counter._kernel_calls += 1
            return call_kernel(*args, **kwargs)

        def reported_run_batch(specs, snapshot_dir, report=None, **kwargs):
            if report is None:
                report = batch.BatchReport()
            calls = counter._kernel_calls
            try:
                return run_batch(specs, snapshot_dir, report=report,
                                 **kwargs)
            finally:
                counter._fold(report, counter._kernel_calls > calls)

        batch.run_batch = reported_run_batch
        batchcore.call_kernel = counted_call_kernel

    def _fold(self, report, on_kernel):
        t = self.totals
        t["batches"] += 1
        t["vector_lanes"] += report.vector_lanes
        t["scalar_lanes"] += report.scalar_lanes
        t["evicted_lanes"] += len(report.evictions)
        if on_kernel:
            t["kernel_lanes"] += report.vector_lanes
        if report.fallback_reason is not None:
            t["fallback_batches"] += 1
            self.reasons[report.fallback_reason] += report.n_lanes
        for reason in report.evictions.values():
            self.reasons[f"evicted: {reason}"] += 1

    def state(self):
        return dict(self.totals), Counter(self.reasons)


# ----------------------------------------------------------------------
# modelled-design figures (deterministic given the seed)
# ----------------------------------------------------------------------
def model_figures(scheme_results, all_results):
    """IPC, fault/replay rates, TEP coverage, L1D miss rate of unit 0."""
    committed = sum(r.stats.committed for r in scheme_results)
    cycles = sum(r.stats.cycles for r in scheme_results)
    faults = sum(r.stats.faults_total for r in scheme_results)
    hits = sum(r.cache_stats["l1d_hits"] for r in all_results)
    misses = sum(r.cache_stats["l1d_misses"] for r in all_results)
    return {
        "model.ipc": _ratio(committed, cycles),
        "model.fault_rate": _ratio(faults, committed),
        "model.replay_rate": _ratio(
            sum(r.stats.replays for r in scheme_results), committed),
        "model.tep.coverage": _ratio(
            sum(r.stats.faults_predicted for r in scheme_results), faults),
        "mem.l1d.miss_rate": _ratio(misses, hits + misses),
    }


MODEL_UNITS = {
    "model.ipc": "inst/cycle",
    "model.fault_rate": "faults/inst",
    "model.replay_rate": "replays/inst",
    "model.tep.coverage": "share",
    "mem.l1d.miss_rate": "share",
}


def _digest(items):
    import hashlib

    return hashlib.sha256(
        json.dumps(items, sort_keys=True).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class FigSweep:
    """The Figure 8 grid at 0.97 V on the scalar loop, no cache/snapshots."""

    name = "fig_sweep"
    #: memory-bound (mcf, libquantum) and core-bound (bzip2, gcc, sjeng)
    BENCHMARKS = ("mcf", "libquantum", "bzip2", "gcc", "sjeng")
    N_INSTRUCTIONS = 3000
    WARMUP = 1500
    #: the sweep runs uncached
    cache_hits = cache_misses = 0

    def __init__(self, seed, tmp):
        from repro.core.schemes import SchemeKind

        self.seed = seed
        self.schemes = (SchemeKind.FAULT_FREE, SchemeKind.EP,
                        SchemeKind.ABS, SchemeKind.FFS, SchemeKind.CDS)
        self.unit0 = None

    def run(self, index, unit_seed):
        from repro.faults.timing import VDD_HIGH_FAULT
        from repro.harness.experiments import SchedulingSweep, fig8

        sweep = SchedulingSweep(
            VDD_HIGH_FAULT, self.N_INSTRUCTIONS, self.WARMUP, unit_seed,
            self.BENCHMARKS, jobs=1, cache=False,
        )
        fig = fig8(self.N_INSTRUCTIONS, self.WARMUP, unit_seed,
                   list(self.BENCHMARKS), sweep=sweep, jobs=1)
        return sweep, fig

    def account(self, index, handle):
        sweep, fig = handle
        results = {
            (b, s): sweep.result(b, s)
            for b in self.BENCHMARKS for s in self.schemes
        }
        failed = sum(
            _window_missed(r.stats.committed, self.N_INSTRUCTIONS)
            for r in results.values()
        )
        if index == 0:
            self.unit0 = (results, fig)
        committed = sum(r.stats.committed for r in results.values())
        return len(results), committed, len(results), failed

    def finish(self):
        """(failed checks, digest, model figures, informational dict)."""
        from repro.core.schemes import SchemeKind
        from repro.harness import paper_data

        results, fig = self.unit0
        digest = _digest([
            [b, s.name, r.stats.as_dict(), r.cache_stats]
            for (b, s), r in results.items()
        ])
        scheme_results = [
            r for (_, scheme), r in results.items()
            if scheme is not SchemeKind.FAULT_FREE
        ]
        model = model_figures(scheme_results, list(results.values()))
        averages = fig.data["averages"]
        info = {
            "informational": True,
            "headline_reduction_vs_ep": _finite(1.0 - min(averages.values())),
            "paper_reduction_vs_ep": (
                paper_data.PAPER_CLAIMS["perf_reduction_high_fr"]),
            "per_scheme_reduction_vs_ep": {
                k: _finite(1.0 - v) for k, v in averages.items()},
            "ipc_gap_vs_table1": {
                b: _finite(results[(b, SchemeKind.FAULT_FREE)].ipc
                           / paper_data.PAPER_TABLE1[b].ipc - 1.0)
                for b in self.BENCHMARKS
            },
        }
        return 0, digest, model, info


class _Campaign:
    """A campaign run through ``run_campaign`` with a fixed draw count."""

    #: scheme draws of unit 0 re-run on the scalar snapshot path, per scheme
    CHECKS_PER_SCHEME = 1

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = tmp
        self.unit0 = None
        self.recorded = []
        self.cache_hits = 0
        self.cache_misses = 0

    def campaign_spec(self, master_seed):
        raise NotImplementedError

    def _dirs(self, index):
        return {
            kind: os.path.join(self.tmp, kind, f"unit{index}")
            for kind in ("campaigns", "cache", "snapshots")
        }

    def run(self, index, unit_seed):
        from repro.campaign.executor import make_run_fn, run_campaign
        from repro.harness.parallel import ResultCache

        dirs = self._dirs(index)
        cache = ResultCache(dirs["cache"])
        run_fn = make_run_fn(jobs=1, cache=cache, batch_lanes=BATCH_LANES)
        if index == 0:
            run_fn = self._recording(run_fn)
        run_campaign(
            dirs["campaigns"], self.campaign_spec(unit_seed), jobs=1,
            cache=True, run_fn=run_fn, snapshot_dir=dirs["snapshots"],
        )
        return cache

    def _recording(self, run_fn):
        sink = self.recorded

        def recording_run_fn(specs):
            results = run_fn(specs)
            sink.extend(zip(specs, results))
            return results

        return recording_run_fn

    def account(self, index, cache):
        from repro.campaign.journal import JOURNAL_NAME

        dirs = self._dirs(index)
        spec = self.campaign_spec(0)
        with open(os.path.join(dirs["campaigns"], JOURNAL_NAME), "rb") as fh:
            journal = fh.read()
        events = [json.loads(line) for line in journal.splitlines()]
        runs = [e for e in events if e["event"] == "run"]
        failed = sum(
            _window_missed(e["counts"]["committed"], spec.n_instructions)
            for e in runs
        )
        failed += sum(
            e["event"] == "point" and "failure" in e for e in events
        )
        expected = spec.max_seeds * len(spec.points())
        failed += max(expected - len(runs), 0)
        self.cache_hits += cache.hits
        self.cache_misses += cache.misses
        if index == 0:
            self.unit0 = journal
        else:
            for path in dirs.values():
                shutil.rmtree(path, ignore_errors=True)
        committed = sum(e["counts"]["committed"] for e in runs)
        return len(runs), committed, max(expected, len(runs)), failed

    def finish(self):
        """Re-run sampled draws on the scalar snapshot path; digest unit 0."""
        from repro.harness.runner import run_one

        scheme_runs = [
            (s, r) for s, r in self.recorded if s.measurement_seed is not None
        ]
        by_scheme = {}
        for spec, result in scheme_runs:
            by_scheme.setdefault(spec.scheme.name, []).append((spec, result))
        rng = random.Random(self.seed)
        failed = 0
        for name in sorted(by_scheme):
            pool = by_scheme[name]
            for spec, result in rng.sample(
                    pool, min(self.CHECKS_PER_SCHEME, len(pool))):
                if run_one(spec).stats.as_dict() != result.stats.as_dict():
                    print(f"mismatch: {spec!r} mseed={spec.measurement_seed}"
                          " differs from the scalar snapshot path",
                          file=sys.stderr)
                    failed += 1
        unique = {s.key(): r for s, r in self.recorded}
        digest = _digest([
            self.unit0.decode(),
            [[k, r.stats.as_dict(), r.cache_stats]
             for k, r in sorted(unique.items())],
        ])
        model = model_figures([r for _, r in scheme_runs],
                              list(unique.values()))
        return failed, digest, model, {}


class CampaignDeep(_Campaign):
    """The standard campaign point with a large fixed draw count."""

    name = "campaign_deep"
    DRAWS = 256
    CHECKS_PER_SCHEME = 4

    def campaign_spec(self, master_seed):
        from repro.campaign.plan import CampaignSpec

        return CampaignSpec(
            "bench-deep", ["gcc"], ["ABS"], [0.97],
            n_instructions=6000, warmup=3000, master_seed=master_seed,
            min_seeds=self.DRAWS, max_seeds=self.DRAWS,
            batch_size=BATCH_LANES,
        )


class CampaignGrid(_Campaign):
    """The Figure 8 grid as a campaign: many points, few draws each."""

    name = "campaign_grid"
    BENCHMARKS = ("mcf", "gcc", "sjeng")
    DRAWS = 4

    def campaign_spec(self, master_seed):
        from repro.campaign.plan import CampaignSpec

        return CampaignSpec(
            "bench-grid", list(self.BENCHMARKS),
            ["RAZOR", "EP", "ABS", "FFS", "CDS"], [0.97],
            n_instructions=3000, warmup=1500, master_seed=master_seed,
            min_seeds=self.DRAWS, max_seeds=self.DRAWS,
            batch_size=self.DRAWS,
        )


WORKLOADS = {w.name: w for w in (FigSweep, CampaignDeep, CampaignGrid)}


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
#: iterations and repetitions of the reference job
REFERENCE_LOOP = 200_000
REFERENCE_REPS = 7
#: the reference job's time on an unloaded 2-vCPU Intel Xeon KVM guest
#: under CPython 3.11; scaled times read as host seconds there
REFERENCE_S = 0.010


def reference_s():
    """Fastest of several timings of a fixed pure-Python job.

    A shared host can run everything up to about twice as slow for
    minutes at a time, and process CPU time slows with it. The job uses
    nothing from the repository, so no change to the simulator moves
    it, while a slow host moves it and the simulator alike; dividing a
    host time by it keeps the simulator's speed and drops the host's.
    The fastest repetition ignores bursts shorter than one repetition.
    """
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return min(times)


def run_units(workload, seed, seconds, lanes, ledger=None):
    """Run units until ``seconds`` have passed; one dict per unit.

    With a ``ledger``, odd units run with it installed and even units
    without, so drift in the host's speed lands on both sides of the
    tracing-overhead comparison. The reference job runs before the first
    unit and after each unit; ``ref_s`` is a unit's host time scaled by
    the mean of the reference times on either side of it.
    """
    from repro.campaign.plan import derive_seed

    units = []
    start = perf_counter()
    index = 0
    ref_before = reference_s()
    while True:
        traced = ledger is not None and index % 2 == 1
        lanes_before, _ = lanes.state()
        cache_before = (workload.cache_hits, workload.cache_misses)
        unit_seed = derive_seed(seed, workload.name, index)
        if traced:
            ledger.install()
        try:
            t0 = perf_counter()
            handle = workload.run(index, unit_seed)
            dt = perf_counter() - t0
        finally:
            if traced:
                ledger.uninstall()
        ref_after = reference_s()
        draws, committed, attempted, failed = workload.account(index, handle)
        lanes_after, _ = lanes.state()
        units.append({
            "s": dt, "ref_s": dt * 2 * REFERENCE_S / (ref_before + ref_after),
            "traced": traced, "draws": draws,
            "committed": committed, "attempted": attempted, "failed": failed,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "lanes": {k: lanes_after[k] - lanes_before[k]
                      for k in lanes_after},
            "cache": (workload.cache_hits - cache_before[0],
                      workload.cache_misses - cache_before[1]),
        })
        ref_before = ref_after
        index += 1
        # a traced run needs at least one traced and one untraced unit
        if perf_counter() - start >= seconds and (ledger is None
                                                   or index >= 2):
            return units


#: spans whose children carry most of their time: inclusive seconds too
INCLUSIVE = ("harness.warm_core", "harness.measure", "snapshot.ensure",
             "uarch.batch.engine_run", "uarch.batch.scalar_fallback")


def layer_metrics(ledger, units, kernel):
    """The per-layer metric dict of the traced units of one run."""
    from ledger import SPANS

    traced = [u for u in units if u["traced"]]
    wall = sum(u["s"] for u in traced)
    lanes = {k: sum(u["lanes"][k] for u in traced) for k in LaneCounter.KEYS}
    hits = sum(u["cache"][0] for u in traced)
    misses = sum(u["cache"][1] for u in traced)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for span in dict.fromkeys(name for name, _, _ in SPANS):
        put(f"{span}_s", ledger.seconds[span], "s")
        if span in INCLUSIVE:
            put(f"{span}_total_s", ledger.total[span], "s")
        calls = ("campaign.journal.appends"
                 if span == "campaign.journal.append" else f"{span}_calls")
        put(calls, ledger.calls[span], "count")
        put(f"{span}_share", _ratio(ledger.seconds[span], wall), "share")
    for stage in ledger.loop_seconds:
        put(f"uarch.loop.{stage}_s", ledger.loop_seconds[stage], "s")
        put(f"uarch.loop.{stage}_calls", ledger.loop_calls[stage], "count")
        put(f"uarch.loop.{stage}_share",
            _ratio(ledger.loop_seconds[stage], wall), "share")
    put("uarch.loop.cycles", ledger.loop_cycles, "count")
    put("uarch.loop.host_ns_per_cycle",
        _ratio(ledger.loop_wall * 1e9, ledger.loop_cycles), "ns")
    # compiled once per process during set-up, outside the traced units
    put("uarch.batch.kernel_load_s", kernel["kernel_load_s"], "s")
    put("uarch.batch.kernel_load_calls", 1, "count")
    put("uarch.batch.kernel_load_share",
        _ratio(kernel["kernel_load_s"], kernel["setup_s"]), "share")
    for key in LaneCounter.KEYS:
        if key != "batches":
            put(f"uarch.batch.{key}", lanes[key], "count")
    put("uarch.batch.vector_share",
        _ratio(lanes["vector_lanes"],
               lanes["vector_lanes"] + lanes["scalar_lanes"]), "share")
    put("harness.result_cache.hits", hits, "count")
    put("harness.result_cache.misses", misses, "count")
    put("harness.result_cache.hit_rate", _ratio(hits, hits + misses), "share")
    unattributed = wall - ledger.attributed()
    put("ledger.wall_s", wall, "s")
    put("ledger.unattributed_s", unattributed, "s")
    put("ledger.unattributed_share", _ratio(unattributed, wall), "share")
    # each traced unit against its untraced neighbours, so slow drift in
    # the host's speed cancels; unit 0 pays first-use costs and is left
    # out unless it is the only neighbour
    ratios = []
    for i, unit in enumerate(units):
        if unit["traced"]:
            near = [units[j]["s"] for j in (i - 1, i + 1)
                    if 0 < j < len(units)] or [units[0]["s"]]
            ratios.append(unit["s"] * len(near) / sum(near))
    share = median(ratios) - 1.0
    put("trace.overhead_s", wall * share / (1.0 + share), "s")
    put("trace.overhead_share", share, "share")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    kernel = setup(args.tmp)
    kernel["setup_s"] = monotonic() - args.spawned_at
    kernel["setup_ref_s"] = kernel["setup_s"] * REFERENCE_S / reference_s()
    if args.setup_only:
        print(json.dumps({"setup_s": kernel["setup_s"],
                          "setup_ref_s": kernel["setup_ref_s"]}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    lanes = LaneCounter()
    lanes.install()
    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    ledger = None
    if args.trace:
        from ledger import Ledger

        ledger = Ledger()
    units = run_units(workload, args.seed, args.seconds, lanes, ledger)

    check_failed, digest, model, info = workload.finish()
    totals, reasons = lanes.state()
    nproc = os.cpu_count()
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "nproc": nproc,
        "units": len(units), "digest": digest, "model": model,
    }, sort_keys=True))
    print(json.dumps({"lanes": totals, "fallback_reasons": dict(reasons),
                      "kernel_loaded": kernel["kernel"]}, sort_keys=True))
    if info:
        print(json.dumps(info, sort_keys=True))
    if args.workload == CampaignDeep.name and totals["kernel_lanes"] == 0:
        print("campaign_deep ran no lane on the compiled batch kernel "
              f"(kernel loaded: {kernel['kernel']}, lanes: {totals}, "
              f"reasons: {dict(reasons)}); refusing to report its rate",
              file=sys.stderr)
        return 3

    if args.trace:
        metrics = layer_metrics(ledger, units, kernel)
        for key, value in model.items():
            metrics[key] = {"value": value, "unit": MODEL_UNITS[key]}
    else:
        ref_s = sum(u["ref_s"] for u in units)
        metrics = {
            "sim_inst_per_s": {
                "value": sum(u["committed"] for u in units) / ref_s,
                "unit": "inst/s"},
            "draws_per_s": {
                "value": sum(u["draws"] for u in units) / ref_s,
                "unit": "draws/s"},
            # after unit 0, so it does not grow with the number of units
            # the time allows (the simulator memoizes programs per seed)
            "peak_rss_mb": {"value": units[0]["maxrss_kb"] / 1024.0,
                            "unit": "MB"},
        }
    print(json.dumps({
        "nproc": nproc,
        "unit_seconds": [u["s"] for u in units],
        "unit_ref_seconds": [u["ref_s"] for u in units],
        "attempted": sum(u["attempted"] for u in units),
        "failed": sum(u["failed"] for u in units) + check_failed,
        "setup_s": kernel["setup_s"],
        "setup_ref_s": kernel["setup_ref_s"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
