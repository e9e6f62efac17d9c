"""Vector-vs-scalar equivalence: the batch engine must be invisible.

The lockstep batch engine (``repro.snapshot.batch`` +
``repro.uarch.batchcore``) exists purely as a throughput optimization:
for every lane, its SimStats digest, cache counters, and energy numbers
must equal the scalar snapshot-fork run bit for bit, and a campaign
journal written with batching on must be byte-identical to one written
with it off. The grid here crosses schemes × supply × storm on/off ×
lane counts N∈{1,4,16} on the compiled kernel, a hypothesis test pins
that forcing lane evictions at arbitrary points (the mid-window
divergence path) cannot change any result, and the two whole-batch
degrade causes (no kernel, a config beyond its limits) are checked to
land on the scalar path with the cause reported.
"""

import pytest

from repro.core.schemes import SchemeKind
from repro.faults.storm import StormConfig
from repro.harness.parallel import run_many
from repro.harness.runner import RunSpec
from repro.uarch.batchstream import have_numpy
from repro.uarch.config import CoreConfig

pytestmark = pytest.mark.skipif(
    not have_numpy(), reason="batch engine requires numpy"
)

POINT = dict(benchmark="gcc", n_instructions=600, warmup=300, seed=5)
SCHEMES = (SchemeKind.ABS, SchemeKind.EP)
VDDS = (0.97, 1.04)
LANE_COUNTS = (1, 4, 16)


def _digest(result):
    return {
        "stats": result.stats.as_dict(),
        "cache": dict(result.cache_stats),
        "energy": repr(result.energy.__dict__),
    }


def _specs(scheme, vdd, n, snap_dir, storm=None, first_mseed=1,
           config=None):
    out = []
    for i in range(n):
        spec = RunSpec(
            scheme=scheme, vdd=vdd, storm=storm, config=config,
            measurement_seed=first_mseed + i, **POINT,
        )
        spec.snapshot_dir = str(snap_dir)
        out.append(spec)
    return out


@pytest.fixture(scope="module")
def snap_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("snapshots")


@pytest.fixture(scope="module")
def scalar_ref(snap_dir):
    """Memoized scalar-path reference digests, keyed per lane spec."""
    memo = {}

    def ref(scheme, vdd, n):
        key = (scheme, vdd, n)
        if key not in memo:
            results = run_many(
                _specs(scheme, vdd, n, snap_dir), batch_lanes=0
            )
            memo[key] = [_digest(r) for r in results]
        return memo[key]

    return ref


@pytest.fixture(params=["kernel"])
def engine_path(request):
    """The batch engine under test; without it the grid compares scalar
    with scalar, so a missing kernel skips rather than passes."""
    from repro.uarch import batchkernel

    batchkernel.reset_kernel_cache()
    if batchkernel.load_kernel() is None:
        pytest.skip("compiled batch kernel unavailable (no C compiler)")
    return request.param


@pytest.mark.parametrize("n", LANE_COUNTS)
@pytest.mark.parametrize("vdd", VDDS)
@pytest.mark.parametrize(
    "scheme", SCHEMES, ids=[s.name for s in SCHEMES]
)
def test_batch_matches_scalar(scheme, vdd, n, snap_dir, scalar_ref,
                              engine_path):
    batched = run_many(
        _specs(scheme, vdd, n, snap_dir), batch_lanes=max(2, n)
    )
    assert [_digest(r) for r in batched] == scalar_ref(scheme, vdd, n)


@pytest.mark.parametrize(
    "no_kernel, config, cause",
    [
        (True, None, "kernel unavailable"),
        (False, CoreConfig(iq_size=128), "iq_size 128"),
    ],
    ids=["no-kernel", "iq128"],
)
def test_whole_batch_degrades_to_scalar(no_kernel, config, cause, snap_dir,
                                        monkeypatch):
    """No kernel, or a plan beyond its static limits: every lane runs on
    the scalar path, bit-identically, and the report names the cause."""
    from repro.snapshot.batch import BatchReport, run_batch
    from repro.uarch import batchcore

    if no_kernel:
        monkeypatch.setattr(batchcore, "load_kernel", lambda: None)
    specs = _specs(SchemeKind.ABS, 0.97, 4, snap_dir, config=config)
    scalar = run_many(
        _specs(SchemeKind.ABS, 0.97, 4, snap_dir, config=config),
        batch_lanes=0,
    )
    report = BatchReport()
    batched = run_batch(specs, str(snap_dir), report)
    assert [_digest(r) for r in batched] == [_digest(r) for r in scalar]
    assert report.vector_lanes == 0
    assert report.scalar_lanes == 4
    assert cause in report.fallback_reason


@pytest.mark.parametrize("vdd", VDDS)
@pytest.mark.parametrize(
    "scheme", SCHEMES, ids=[s.name for s in SCHEMES]
)
def test_storm_specs_route_scalar_identically(scheme, vdd, snap_dir):
    """Storm draws are batch-ineligible; routing must not disturb them."""
    from repro.snapshot.batch import batch_eligible

    storm = StormConfig(burst_rate=0.001)
    specs = _specs(scheme, vdd, 4, snap_dir, storm=storm)
    assert not any(batch_eligible(s) for s in specs)
    batched = run_many(_specs(scheme, vdd, 4, snap_dir, storm=storm),
                       batch_lanes=4)
    scalar = run_many(_specs(scheme, vdd, 4, snap_dir, storm=storm),
                      batch_lanes=0)
    assert ([_digest(r) for r in batched]
            == [_digest(r) for r in scalar])


def _tiny_campaign_spec():
    from repro.campaign.plan import CampaignSpec

    return CampaignSpec(
        name="batch-equivalence", benchmarks=["gcc"],
        schemes=["ABS"], vdds=[0.97],
        n_instructions=POINT["n_instructions"], warmup=POINT["warmup"],
        min_seeds=4, max_seeds=4, batch_size=4,
    )


def test_campaign_journal_bytes_identical(tmp_path, snap_dir):
    """A batched campaign's journal and report are byte-equal to scalar."""
    from repro.campaign.executor import run_campaign

    outputs = {}
    for label, lanes in (("scalar", 0), ("batch", 4)):
        directory = tmp_path / label
        run_campaign(
            str(directory), spec=_tiny_campaign_spec(), cache=False,
            snapshot_dir=str(snap_dir), batch_lanes=lanes,
        )
        outputs[label] = {
            name: (directory / name).read_bytes()
            for name in ("journal.jsonl", "report.json")
        }
    assert outputs["batch"] == outputs["scalar"]


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with [dev]
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=12, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        evictions=st.dictionaries(
            st.integers(min_value=0, max_value=3),
            # a 600-instruction window never commits in under ~100
            # virtual cycles, so every forced point lands mid-window
            st.integers(min_value=1, max_value=100),
            min_size=1, max_size=4,
        )
    )
    def test_forced_evictions_preserve_results(evictions, snap_dir,
                                               scalar_ref):
        """Evicting any lane at any cycle must not change any lane."""
        from repro.snapshot.batch import BatchReport, run_batch

        report = BatchReport()
        results = run_batch(
            _specs(SchemeKind.ABS, 0.97, 4, snap_dir), str(snap_dir),
            report, force_evict=evictions,
        )
        assert report.scalar_lanes >= len(evictions)
        assert ([_digest(r) for r in results]
                == scalar_ref(SchemeKind.ABS, 0.97, 4))
