"""Repository benchmark: run one workload in fresh processes, print metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig_sweep --seed 1 --seconds 20 \\
        --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):
``fig_sweep``, ``campaign_deep``, ``campaign_grid``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``sim_inst_per_s``, ``draws_per_s``, ``peak_rss_mb`` (the workload
process) and ``setup_s`` (median over several fresh processes, from
spawn to the first timed call). Their times are host times scaled to
a reference speed (see ``bench.reference_s``). With ``--trace 1`` it
carries the per-layer ledger of a traced run instead. Every earlier
line is detail: the simulated-statistics digest, engine lane counters
with fallback reasons, and (fig_sweep) the informational paper
comparison.

Everything the benchmark writes — result cache, snapshot store, kernel
cache, compiler temporaries — lives in a fresh directory under
``.perfbench_tmp/`` in the repository root and is removed at exit.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from statistics import median
from time import monotonic

from bench import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: extra fresh processes that only set up, for the set-up median
SETUP_PROBES = 4
#: budget of one set-up probe; the probe is killed past it
PROBE_TIMEOUT_S = 30.0
#: budget of the workload process beyond ``--seconds``: its set-up, the
#: unit running when time is up, and the scalar re-checks of unit 0
WORKLOAD_MARGIN_S = 100.0


def _child_env(tmp):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        TMPDIR=tmp,
        REPRO_CACHE_DIR=os.path.join(tmp, "cache"),
        REPRO_SNAPSHOT_DIR=os.path.join(tmp, "snapshots"),
        REPRO_KERNEL_CACHE=os.path.join(tmp, "kernel"),
    )
    return env


def _run_child(args, tmp, timeout):
    """Run ``bench.py`` in a fresh process group; its stdout lines."""
    os.makedirs(tmp)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--tmp", tmp,
           "--spawned-at", repr(monotonic())] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(tmp),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark process exceeded {timeout:.0f}s")
    finally:
        # the child's compiler or pool processes share its group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(out)
        raise SystemExit(f"benchmark process exited with {proc.returncode}")
    return out.splitlines()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no simulator sources under {ROOT}/src/repro", file=sys.stderr)
        return 2

    # a terminated run still removes its directory and its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        setups = []  # (host seconds, scaled to the reference speed)
        if not args.trace:
            for k in range(SETUP_PROBES):
                lines = _run_child(["--setup-only"],
                                   os.path.join(tmp, f"probe{k}"),
                                   PROBE_TIMEOUT_S)
                probe = json.loads(lines[-1])
                setups.append((probe["setup_s"], probe["setup_ref_s"]))
        lines = _run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            os.path.join(tmp, "workload"),
            args.seconds + WORKLOAD_MARGIN_S,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for line in lines[:-1]:
        print(line)
    child = json.loads(lines[-1])
    metrics = child["metrics"]
    if not args.trace:
        setups.append((child["setup_s"], child["setup_ref_s"]))
        metrics["setup_s"] = {"value": median(r for _, r in setups),
                              "unit": "s"}
    print(json.dumps({
        "nproc": child["nproc"], "setup_samples_s": [h for h, _ in setups],
        "setup_ref_samples_s": [r for _, r in setups],
        "unit_seconds": child["unit_seconds"],
        "unit_ref_seconds": child["unit_ref_seconds"],
    }))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
