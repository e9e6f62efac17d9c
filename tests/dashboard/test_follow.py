"""--follow mode: live terminal rendering on the watcher substrate."""

import io

from repro.campaign.journal import Journal, write_manifest
from repro.campaign.plan import CampaignSpec
from repro.dashboard.follow import follow_status, render_fleet_lines
from repro.fleet.ledger import LeaseLedger


def _spec():
    return CampaignSpec(
        name="fol", benchmarks=["astar"], schemes=["EP"], vdds=[0.97],
        seeds=[1, 2], n_instructions=500, warmup=250,
    )


def _run(point, index):
    return {
        "event": "run", "point": point, "index": index, "seed": index,
        "metrics": {"perf_overhead": 0.1, "ed_overhead": 0.2, "ipc": 1.0,
                    "fault_rate": 0.01, "replay_rate": 0.0},
        "counts": {"faults": 5, "replays": 0, "committed": 500},
    }


class TestFollow:
    def test_renders_once_and_stops_at_max_updates(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        with Journal(tmp_path) as journal:
            journal.append(_run(spec.points()[0].id, 0))
        out = io.StringIO()
        code = follow_status(tmp_path, interval=0.01, max_updates=1,
                             stream=out)
        assert code == 0
        text = out.getvalue()
        assert "campaign 'fol'" in text
        assert "1 draws journaled" in text
        assert "\x1b[" not in text  # non-tty stream: no ANSI control

    def test_exits_when_campaign_completes(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            journal.append(_run(point, 0))
            journal.append({"event": "point", "point": point, "n": 1,
                            "stopped": "ci", "summary": {}})
            journal.append({"event": "done"})
        out = io.StringIO()
        # no max_updates: termination comes from the done event alone
        assert follow_status(tmp_path, interval=0.01, stream=out) == 0
        assert "complete=true" in out.getvalue()

    def test_fleet_mode_renders_ledger_and_audit(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        ledger = LeaseLedger(tmp_path)
        ledger.granted(1, "p", [0], "w1")
        ledger.completed(1, 1)
        ledger.audited({"auth_failures": 4})
        out = io.StringIO()
        follow_status(tmp_path, fleet=True, interval=0.01, max_updates=1,
                      stream=out)
        text = out.getvalue()
        assert "worker w1" in text
        assert "auth_failures=4" in text

    def test_ansi_redraw_when_forced(self, tmp_path):
        spec = _spec()
        write_manifest(tmp_path, spec)
        out = io.StringIO()
        follow_status(tmp_path, interval=0.01, max_updates=1, stream=out,
                      ansi=True)
        assert out.getvalue().startswith("\x1b[H\x1b[J")

    def test_cli_campaign_status_follow(self, tmp_path, capsys):
        from repro.harness.cli import main

        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            journal.append({"event": "point", "point": point, "n": 1,
                            "stopped": "ci", "summary": {}})
            journal.append({"event": "done"})
        code = main(["campaign", "status", "--dir", str(tmp_path),
                     "--follow", "--interval", "0.01"])
        assert code == 0
        assert "complete=true" in capsys.readouterr().out

    def test_cli_fleet_status_follow_requires_dir(self, capsys):
        from repro.harness.cli import main

        code = main(["fleet", "status", "--follow",
                     "--connect", "127.0.0.1:1"])
        assert code == 2
        assert "--dir" in capsys.readouterr().err

    def test_cli_fleet_status_follow(self, tmp_path, capsys):
        from repro.harness.cli import main

        spec = _spec()
        write_manifest(tmp_path, spec)
        point = spec.points()[0].id
        with Journal(tmp_path) as journal:
            journal.append({"event": "point", "point": point, "n": 1,
                            "stopped": "ci", "summary": {}})
            journal.append({"event": "done"})
        LeaseLedger(tmp_path).audited({"rejected_versions": 1})
        code = main(["fleet", "status", "--dir", str(tmp_path),
                     "--follow", "--interval", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "complete=true" in out
        assert "rejected_versions=1" in out


class TestRenderFleetLines:
    def test_counts_and_open_leases(self):
        lines = render_fleet_lines({
            "workers": {"w": {"draws": 3, "granted": 2, "completed": 1,
                              "revoked": 1, "stolen_from": 0}},
            "open_leases": [{"lease": 5}],
            "leases_granted": 2, "leases_completed": 1,
            "leases_revoked": 1, "steals": [], "scale_events": [],
            "audit": None,
        })
        assert "2 granted" in lines[0]
        assert "1 open" in lines[0]
        assert any("worker w" in line for line in lines)
