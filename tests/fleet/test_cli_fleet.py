"""The `fleet` CLI subcommand: argument validation and status verbs."""

import json

from repro.campaign.journal import Journal, write_manifest
from repro.campaign.plan import CampaignSpec
from repro.harness.cli import main

_FAST = [
    "--instructions", "500", "--warmup", "250",
    "--seeds-min", "2", "--seeds-max", "2", "--batch", "2",
]


def _err(capsys):
    return capsys.readouterr().err


class TestValidation:
    def test_rejects_zero_workers(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path),
                     "--workers", "0"] + _FAST)
        assert code == 2
        assert "--workers must be >= 1" in _err(capsys)

    def test_rejects_out_of_range_port(self, tmp_path, capsys):
        code = main(["fleet", "serve", "--dir", str(tmp_path),
                     "--port", "99999"] + _FAST)
        assert code == 2
        assert "--port must be" in _err(capsys)

    def test_rejects_empty_host(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path),
                     "--host", "  "] + _FAST)
        assert code == 2
        assert "--host must be" in _err(capsys)

    def test_rejects_malformed_connect(self, capsys):
        code = main(["fleet", "worker", "--connect", "nonsense"])
        assert code == 2
        assert "HOST:PORT" in _err(capsys)

    def test_rejects_connect_port_zero(self, capsys):
        code = main(["fleet", "worker", "--connect", "127.0.0.1:0"])
        assert code == 2
        assert "1..65535" in _err(capsys)

    def test_rejects_bad_worker_name(self, capsys):
        code = main(["fleet", "worker", "--connect", "127.0.0.1:4242",
                     "--name", "../evil"])
        assert code == 2
        assert "invalid worker name" in _err(capsys)

    def test_worker_needs_an_endpoint(self, capsys):
        code = main(["fleet", "worker"])
        assert code == 2
        assert "--connect" in _err(capsys)

    def test_rejects_unknown_benchmark(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path),
                     "--benchmarks", "nosuch"] + _FAST)
        assert code == 2
        assert "unknown benchmark" in _err(capsys)

    def test_rejects_negative_telemetry_interval(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path),
                     "--telemetry-interval", "-5"] + _FAST)
        assert code == 2
        assert "--telemetry-interval must be >= 0" in _err(capsys)

    def test_campaign_rejects_negative_telemetry_interval(
        self, tmp_path, capsys
    ):
        code = main(["campaign", "run", "--dir", str(tmp_path),
                     "--telemetry-interval", "-1"] + _FAST)
        assert code == 2
        assert "--telemetry-interval must be >= 0" in _err(capsys)

    def test_resume_without_manifest(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path / "nope"),
                     "--resume"])
        assert code == 2
        assert "no campaign manifest" in _err(capsys)

    def test_rejects_unreadable_secret_file(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path),
                     "--secret-file", str(tmp_path / "nope")] + _FAST)
        assert code == 2
        assert "cannot read --secret-file" in _err(capsys)

    def test_rejects_both_secret_sources(self, tmp_path, capsys):
        secret = tmp_path / "secret"
        secret.write_text("s")
        code = main(["fleet", "serve", "--dir", str(tmp_path),
                     "--secret", "s", "--secret-file", str(secret)]
                    + _FAST)
        assert code == 2
        assert "not both" in _err(capsys)

    def test_rejects_cert_without_key(self, tmp_path, capsys):
        cert = tmp_path / "cert.pem"
        cert.write_text("x")
        code = main(["fleet", "serve", "--dir", str(tmp_path),
                     "--tls-cert", str(cert)] + _FAST)
        assert code == 2
        assert "--tls-key" in _err(capsys)

    def test_worker_rejects_key_without_cert(self, tmp_path, capsys):
        key = tmp_path / "key.pem"
        key.write_text("x")
        code = main(["fleet", "worker", "--connect", "127.0.0.1:4242",
                     "--tls-key", str(key)])
        assert code == 2
        assert "--tls-cert" in _err(capsys)

    def test_rejects_min_workers_above_max(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path),
                     "--min-workers", "3", "--max-workers", "2"] + _FAST)
        assert code == 2
        assert "--min-workers (3) must be <= --max-workers (2)" in (
            _err(capsys)
        )

    def test_rejects_nonpositive_min_workers(self, tmp_path, capsys):
        code = main(["fleet", "run", "--dir", str(tmp_path),
                     "--min-workers", "0", "--max-workers", "2"] + _FAST)
        assert code == 2
        assert "--min-workers must be >= 1" in _err(capsys)


def _killed_fleet_campaign(directory):
    """A fleet directory whose coordinator died after one draw."""
    spec = CampaignSpec(
        name="cli-fleet", benchmarks=["astar"], schemes=["EP"],
        n_instructions=500, warmup=250, min_seeds=2, max_seeds=2,
        batch_size=2,
    )
    write_manifest(directory, spec)
    point = spec.points()[0].id
    with Journal(directory) as journal:
        journal.append({
            "event": "run", "point": point, "index": 0, "seed": 1,
            "metrics": {"perf_overhead": 0.1, "ed_overhead": 0.2,
                        "ipc": 1.0, "fault_rate": 0.0,
                        "replay_rate": 0.0},
            "counts": {"faults": 0, "replays": 0, "committed": 500},
        })
    return spec


class TestStatus:
    def test_offline_status_from_killed_fleet_journal(self, tmp_path,
                                                      capsys):
        _killed_fleet_campaign(tmp_path)
        assert main(["fleet", "status", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0/1 points done" in out
        assert "sampling" in out

    def test_offline_status_json(self, tmp_path, capsys):
        _killed_fleet_campaign(tmp_path)
        assert main(
            ["fleet", "status", "--dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs_total"] == 1

    def test_offline_status_json_carries_audit_counters(
        self, tmp_path, capsys
    ):
        """Persisted security audit counters ride `fleet status --json`."""
        from repro.fleet.ledger import LeaseLedger

        _killed_fleet_campaign(tmp_path)
        LeaseLedger(tmp_path).audited({
            "auth_failures": 3, "rejected_hellos": 4,
            "rejected_versions": 1, "protocol_errors": 2, "steals": 0,
        })
        assert main(
            ["fleet", "status", "--dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["audit"]["auth_failures"] == 3
        assert payload["audit"]["rejected_versions"] == 1

    def test_offline_status_text_renders_audit(self, tmp_path, capsys):
        from repro.fleet.ledger import LeaseLedger

        _killed_fleet_campaign(tmp_path)
        LeaseLedger(tmp_path).audited({"auth_failures": 3})
        assert main(["fleet", "status", "--dir", str(tmp_path)]) == 0
        assert "audit: auth_failures=3" in capsys.readouterr().out

    def test_offline_status_audit_none_without_ledger_records(
        self, tmp_path, capsys
    ):
        _killed_fleet_campaign(tmp_path)
        assert main(
            ["fleet", "status", "--dir", str(tmp_path), "--json"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["audit"] is None

    def test_status_needs_dir_or_connect(self, capsys):
        assert main(["fleet", "status"]) == 2
        assert "--connect" in _err(capsys)

    def test_status_without_manifest(self, tmp_path, capsys):
        assert main(["fleet", "status", "--dir", str(tmp_path)]) == 2
        assert "no campaign manifest" in _err(capsys)

    def test_connect_refused_is_actionable(self, capsys):
        # port 1 on localhost: nothing listens there in CI
        code = main(["fleet", "status", "--connect", "127.0.0.1:1"])
        assert code == 2
        assert _err(capsys).strip()


class TestFleetRunCli:
    def test_run_produces_campaign_report(self, tmp_path, capsys):
        code = main(
            ["fleet", "run", "--dir", str(tmp_path), "--workers", "2",
             "--benchmarks", "astar", "--schemes", "EP", "--no-cache",
             "--no-snapshot"] + _FAST
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1/1 points" in out
        report = json.load(open(tmp_path / "report.json"))
        assert report["complete"]
        assert (tmp_path / "leases.jsonl").is_file()
        assert not (tmp_path / "shards").exists()

    def test_run_with_secret_file(self, tmp_path, capsys):
        # the secret reaches worker subprocesses via the environment
        secret = tmp_path / "secret"
        secret.write_text("cli-secret\n")
        code = main(
            ["fleet", "run", "--dir", str(tmp_path / "fleet"),
             "--workers", "1", "--secret-file", str(secret),
             "--benchmarks", "astar", "--schemes", "EP", "--no-cache",
             "--no-snapshot"] + _FAST
        )
        assert code == 0
        report = json.load(open(tmp_path / "fleet" / "report.json"))
        assert report["complete"]
