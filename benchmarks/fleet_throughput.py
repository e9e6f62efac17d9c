"""Fleet campaign throughput: draws/s at 1, 2, and 4 local workers.

Runs the same fixed-N campaign (gcc/ABS at 0.97V, 6000 measured
instructions after a 3000-instruction warmup, 12 draws in 4-draw
batches) through ``fleet_run`` with the worker count swept over
{1, 2, 4}, and records the end-to-end draw rate of each — including
coordinator startup, worker process spawn, leasing, and the final
journal rewrite, since that is what a user of ``fleet run`` pays. The
point's warmup snapshot is built once up front and shared by every
sweep so the worker counts are compared on identical footing.

The numbers are merged into the existing BENCH_throughput.json record
under ``campaign_fleet_draws_per_s`` without disturbing the other keys.
Worker counts above the host's CPU count cannot scale — the workers
serialize on the CPU and the extra processes only add scheduling and
leasing overhead — so the record also carries the measured
``cpu_count`` and lists those counts under ``oversubscribed``: a
decreasing series at oversubscribed counts is an artifact of the box,
not a regression (on a 1-core CI runner *every* multi-worker config is
oversubscribed). Readers should only interpret the sub-series of
worker counts ≤ cpu_count as a scaling curve.

Usage::

    PYTHONPATH=src python benchmarks/fleet_throughput.py [output.json]
"""

import json
import os
import sys
import tempfile
import time

from repro.campaign.plan import CampaignSpec
from repro.core.schemes import SchemeKind
from repro.fleet import fleet_run
from repro.snapshot import ensure_snapshot

WORKER_COUNTS = (1, 2, 4)
N_DRAWS = 12

#: the standard campaign point, same as throughput_smoke.py
CAMPAIGN_POINT = dict(
    benchmark="gcc", scheme=SchemeKind.ABS, vdd=0.97,
    n_instructions=6000, warmup=3000,
)


def _spec():
    return CampaignSpec(
        name="fleet-bench", benchmarks=[CAMPAIGN_POINT["benchmark"]],
        schemes=[CAMPAIGN_POINT["scheme"].name],
        vdds=[CAMPAIGN_POINT["vdd"]],
        n_instructions=CAMPAIGN_POINT["n_instructions"],
        warmup=CAMPAIGN_POINT["warmup"],
        min_seeds=N_DRAWS, max_seeds=N_DRAWS, batch_size=4,
    )


def measure_fleet(snapshot_dir):
    rates = {}
    for workers in WORKER_COUNTS:
        with tempfile.TemporaryDirectory() as run_dir:
            t0 = time.perf_counter()
            report = fleet_run(
                run_dir, spec=_spec(), workers=workers, cache=False,
                snapshot_dir=snapshot_dir, linger=0.2,
            )
            dt = time.perf_counter() - t0
        assert report["complete"], report
        assert report["runs_total"] == N_DRAWS, report
        rates[str(workers)] = round(N_DRAWS / dt, 2)
        over = " [oversubscribed]" if workers > (os.cpu_count() or 1) else ""
        print(f"fleet {workers} worker(s): {rates[str(workers)]} draws/s "
              f"({N_DRAWS} draws in {dt:.1f}s){over}")
    return rates


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out = argv[0] if argv else "BENCH_throughput.json"
    with tempfile.TemporaryDirectory() as snap_dir:
        # one shared warmup snapshot so every worker count forks draws
        # instead of re-paying the point warmup
        spec = _spec()
        run_spec, _ = spec.pair_specs(spec.points()[0], 0)
        ensure_snapshot(run_spec, snap_dir)
        rates = measure_fleet(snap_dir)
    record = {}
    if os.path.exists(out):
        with open(out) as fh:
            record = json.load(fh)
    cpu_count = os.cpu_count() or 1
    oversubscribed = [w for w in WORKER_COUNTS if w > cpu_count]
    record["campaign_fleet_workload"] = (
        f"gcc/ABS/vdd=0.97, {N_DRAWS} draws in 4-draw leases, "
        "end-to-end fleet run incl. worker spawn and journal rewrite"
    )
    record["campaign_fleet_draws_per_s"] = rates
    record["campaign_fleet_cpu_count"] = cpu_count
    record["campaign_fleet_oversubscribed_workers"] = oversubscribed
    if oversubscribed:
        record["campaign_fleet_note"] = (
            f"worker counts {oversubscribed} exceed the {cpu_count} "
            "available CPU(s); their rates measure scheduling overhead, "
            "not scaling, and decreasing values there are expected"
        )
    else:
        record.pop("campaign_fleet_note", None)
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
