import json
import os

import numpy as np
import pytest

from switchnet.cli import main, run, _run_examples


def _write(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_tandem_row(tmp_path):
    cfg = _write(tmp_path, {"network": "tandem"})
    bundle = run(cfg, kind="analyze")
    rows = {(r[0], r[1]): r[2] for r in bundle.rows}
    assert rows[("route-delay", "r0")] == pytest.approx(4.0)
    assert bundle.summary["admissible"] is True
    assert bundle.provenance["tool"] == "switchnet"
    assert len(bundle.provenance["config_sha256"]) == 64


def test_analyze_inadmissible_flagged(tmp_path):
    cfg = _write(
        tmp_path,
        {
            "network": {
                "queues": 1,
                "routes": [{"path": [0], "rate": 1.2}],
                "capacity": {"matrix": [[1.0]]},
            }
        },
    )
    bundle = run(cfg, kind="analyze")
    assert bundle.summary["admissible"] is False
    assert all(r[0] in ("queue-load", "pool-load") for r in bundle.rows)


def test_compare_pooled_route(tmp_path):
    cfg = _write(
        tmp_path,
        {"network": "pooled-route", "seeds": [3], "sim": {"horizon": 40000}},
    )
    bundle = run(cfg, kind="compare")
    delay = [r for r in bundle.rows if r[0] == "route-delay"][0]
    assert delay[2] == pytest.approx(5.0)  # analytic column
    assert delay[5] <= 3.0  # simulated within 3 SE
    assert bundle.summary["max_abs_z"] <= 3.5


def test_simulate_csv_reproducible(tmp_path):
    cfg = _write(
        tmp_path,
        {"network": "merge", "seeds": [2, 9], "sim": {"horizon": 3000}},
    )
    b1 = run(cfg, kind="simulate")
    b2 = run(cfg, kind="simulate")
    assert b1.csv_body() == b2.csv_body()
    assert b1.to_json() == b2.to_json()
    # header is mandatory and first
    assert b1.csv_body().splitlines()[0] == "seed,metric,id,value,stderr,n"


def test_simulate_parallel_merge_deterministic(tmp_path, monkeypatch):
    cfg = _write(
        tmp_path,
        {"network": "tandem", "seeds": [5, 1, 8], "sim": {"horizon": 1500}},
    )
    monkeypatch.setenv("SWITCHNET_THREADS", "1")
    seq = run(cfg, kind="simulate")
    monkeypatch.setenv("SWITCHNET_THREADS", "3")
    par = run(cfg, kind="simulate")
    assert seq.csv_body() == par.csv_body()
    # rows come back sorted by seed regardless of completion order
    seeds = [r[0] for r in par.rows]
    assert seeds == sorted(seeds)


def test_outputs_written(tmp_path):
    cfg = _write(
        tmp_path,
        {"network": "tandem", "seeds": [4], "sim": {"horizon": 1000}},
    )
    out = tmp_path / "results"
    run(cfg, kind="simulate", out_dir=str(out))
    body = (out / "metrics.csv").read_bytes()
    assert body.startswith(b"seed,metric,id,value,stderr,n\n")
    assert b"\r" not in body  # LF only
    summary = json.loads((out / "summary.json").read_text())
    assert summary["provenance"]["seeds"] == [4]
    run(cfg, kind="simulate", out_dir=str(out))
    assert (out / "metrics.csv").read_bytes() == body


def test_seed_and_horizon_flags(tmp_path):
    cfg = _write(
        tmp_path,
        {"network": "tandem", "seeds": [1, 2, 3], "sim": {"horizon": 9999}},
    )
    bundle = run(cfg, kind="simulate", seed=7, horizon=800)
    assert bundle.provenance["seeds"] == [7]
    assert bundle.summary["horizon"] == 800


def test_independence_bundle(tmp_path):
    cfg = _write(
        tmp_path,
        {
            "network": "k22",
            "seeds": [6],
            "independence": {"pairs": [[0, 3], [0, 1]], "samples": 30000},
        },
    )
    bundle = run(cfg, kind="independence")
    verdicts = {(r[0], r[1]): r[7] for r in bundle.rows}
    assert verdicts[(0, 3)] == "independent-consistent"
    assert verdicts[(0, 1)] == "dependent"


def test_ldp_bundle(tmp_path):
    cfg = _write(
        tmp_path,
        {
            "network": "single-pool",
            "ldp": {"queue_vector": [2, 1], "scales": [1, 8, 64]},
        },
    )
    bundle = run(cfg, kind="ldp")
    assert bundle.summary["gaps_decreasing"] is True
    assert bundle.summary["target"] == pytest.approx(1.9095425048844388)
    gaps = [r[3] for r in bundle.rows]
    assert gaps[0] > gaps[-1]


def test_balance_bundle(tmp_path):
    cfg = _write(
        tmp_path,
        {"network": "cycle4", "seeds": [3], "balance": {"checks": 120}},
    )
    bundle = run(cfg, kind="balance")
    assert bundle.summary["max_residual"] < 1e-12


def test_examples_bundle():
    bundle = _run_examples()
    names = {r[0] for r in bundle.rows}
    assert {"k22", "grid3x3", "tri-grid", "odd-cycle-5", "tandem", "single-pool"} <= names
    flags = {r[0]: r[3] for r in bundle.rows}
    assert flags["odd-cycle-5"] is False
    assert flags["k22"] is True


def test_main_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, {"network": "tandem"})
    assert main(["analyze", "--config", ok]) == 0

    norate = _write(
        tmp_path,
        {
            "network": {
                "queues": 1,
                "routes": [{"path": [0]}],
                "capacity": {"matrix": [[1.0]]},
            }
        },
        name="norate.json",
    )
    assert main(["analyze", "--config", norate]) == 2
    err = capsys.readouterr().err
    assert "routes[0].rate" in err

    assert main(["analyze", "--config", str(tmp_path / "ghost.json")]) == 2

    # runtime failure: exact sampling on an overloaded network
    overload = _write(
        tmp_path,
        {
            "network": {
                "queues": 2,
                "routes": [
                    {"path": [0], "rate": 1.5},
                    {"path": [1], "rate": 0.2},
                ],
                "capacity": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
            },
            "independence": {"pairs": [[0, 1]], "samples": 11000},
        },
        name="overload.json",
    )
    assert main(["independence", "--config", overload]) == 3


def test_main_examples_subcommand(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert "odd-cycle-5" in out and "k22" in out


def test_cli_override_flag(tmp_path, capsys):
    cfg = _write(tmp_path, {"network": "tandem", "seeds": [2]})
    code = main(
        ["balance", "--config", cfg, "--override", "balance.checks=50"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "50" in out


def test_simulate_prop_sched_on_cycle4(tmp_path):
    # a multi-pool network: every slot needs a fair allocation that a lottery
    # over the independent sets can reach
    cfg = _write(
        tmp_path,
        {"network": "cycle4", "seeds": [0], "sim": {"engine": "prop-sched", "horizon": 1500}},
    )
    out = tmp_path / "results"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    body = (out / "metrics.csv").read_text()
    assert body.startswith("seed,metric,id,value,stderr,n\n")
    assert len(body.splitlines()) > 1
