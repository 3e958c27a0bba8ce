import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import switchnet
from switchnet.cli import main, run, _run_examples


def _write(tmp_path, doc, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_import_loads_neither_scipy_stats_nor_optimize():
    # every CLI process pays for what the package import loads
    code = ("import sys, switchnet; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(switchnet.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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


def test_ldp_target_has_no_signed_zero(tmp_path):
    # tandem4's pools are disjoint, so Q = (1, 2, 3, 1) gets rates of exactly
    # 1 and a fair objective of exactly 0.0; the target is its negation and
    # must print as 0.0, never -0.0
    cfg = _write(tmp_path, {"network": "tandem4",
                            "ldp": {"queue_vector": [1, 2, 3, 1], "scales": [1, 2, 4, 34]}})
    out = tmp_path / "ldp"
    assert main(["ldp", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / "metrics.csv").read_text().splitlines()
    assert header == "scale,scaled_log_weight_sum,target,gap"
    assert [row.split(",")[2] for row in rows] == ["0.0"] * 4
    target = json.loads((out / "summary.json").read_text())["summary"]["target"]
    assert target == 0.0 and math.copysign(1.0, target) == 1.0


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

    # a bad sim setting is a config failure, found before any replication runs
    for key, value in (("batches", 1), ("warmup_fraction", 1.5),
                       ("slot_arrivals", "uniform"), ("checkpoints", -1)):
        bad = _write(tmp_path, {"network": "tandem", "sim": {key: value, "horizon": 100}},
                     name=f"bad-{key}.json")
        assert main(["simulate", "--config", bad]) == 2
        assert "error: sim: " in capsys.readouterr().err

    # a slotted run snapshots at most one checkpoint per post-warmup slot;
    # the event simulator's checkpoints are times, not slots
    many = {"network": "one-edge", "sim": {"horizon": 20, "checkpoints": 50}}
    for engine in ("prop-sched", "backpressure"):
        bad = _write(tmp_path, {**many, "sim": {**many["sim"], "engine": engine}},
                     name=f"checkpoints-{engine}.json")
        assert main(["simulate", "--config", bad]) == 2
        assert ("error: sim.checkpoints: 50 checkpoints asked of a run with 16 post-warmup "
                "slots") in capsys.readouterr().err
    assert main(["simulate", "--config", _write(tmp_path, many, name="checkpoints-sf.json")]) == 0
    capsys.readouterr()

    # a JSON true is not an integer, wherever the config asks for one
    inline = {"queues": 1, "routes": [{"path": [0], "rate": 0.5}], "capacity": {"matrix": [[1.0]]}}
    for command, field, doc in (
        ("analyze", "network.queues", {"network": {**inline, "queues": True}}),
        ("simulate", "sim.checkpoints", {"network": "tandem", "sim": {"checkpoints": True}}),
        ("simulate", "sim.batches", {"network": "tandem", "sim": {"batches": True}}),
        ("independence", "independence.samples",
         {"network": "tandem", "independence": {"pairs": [[0, 1]], "samples": True}}),
        ("balance", "balance.checks", {"network": "tandem", "balance": {"checks": True}}),
    ):
        bad = _write(tmp_path, doc, name=f"bool-{field}.json")
        assert main([command, "--config", bad]) == 2
        assert f"error: {field}: " in capsys.readouterr().err

    # capacity entries are taken as written, never converted; numbers are finite
    three = {"queues": 3, "routes": [{"path": [0, 1], "rate": 0.2}]}
    for i, (command, field, doc) in enumerate((
        ("analyze", "network.capacity.edges", {"network": {**three, "capacity": {"edges": [[0, 1.7]]}}}),
        ("analyze", "network.capacity.edges", {"network": {**three, "capacity": {"edges": [[True, 2]]}}}),
        ("analyze", "network.capacity.edges", {"network": {**three, "capacity": {"edges": [["0", 1]]}}}),
        ("simulate", "network.capacity.schedules",
         {"network": {**three, "capacity": {"schedules": [[0.9, 0, 1]]}},
          "sim": {"engine": "backpressure", "horizon": 50}}),
        ("simulate", "network.capacity.schedules",
         {"network": {**three, "capacity": {"schedules": [[True, False, True]]}},
          "sim": {"engine": "backpressure", "horizon": 50}}),
        ("analyze", "network.capacity.matrix", {"network": {**inline, "capacity": {"matrix": [[True]]}}}),
        ("analyze", "network.routes[0].rate",
         {"network": {**inline, "routes": [{"path": [0], "rate": math.inf}]}}),
        ("analyze", "sim.horizon", {"network": "tandem", "sim": {"horizon": math.nan}}),
    )):
        bad = _write(tmp_path, doc, name=f"entry-{i}.json")
        assert main([command, "--config", bad]) == 2
        assert f"error: {field}: " in capsys.readouterr().err

    # a schedule-only capacity serves backpressure simulation alone
    sched = _write(tmp_path, {"network": {**three, "capacity": {"schedules": [[1, 0, 1], [0, 1, 0]]}},
                              "sim": {"engine": "backpressure", "horizon": 200}}, name="sched.json")
    out = tmp_path / "sched-out"
    assert main(["simulate", "--config", sched, "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_text().startswith("seed,metric,id,value,stderr,n\n")
    capsys.readouterr()
    for argv in (["analyze"], ["compare"], ["simulate", "--override", "sim.engine=prop-sched"]):
        assert main([argv[0], "--config", sched, *argv[1:]]) == 2
        assert ("error: network.capacity: a schedule-only capacity works only for "
                "backpressure simulation") in capsys.readouterr().err

    # queue labels are a list of one distinct nonempty string per queue
    for labels in ("ab", 0, [1, 2], ["a", "a"], ["a", ""], None):
        doc = {"network": {"queues": 2, "routes": [{"path": [0, 1], "rate": 0.5}],
                           "capacity": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
                           "queue_labels": labels}}
        bad = _write(tmp_path, doc, name="labels.json")
        assert main(["analyze", "--config", bad]) == 2
        assert "error: network.queue_labels: " in capsys.readouterr().err


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


def test_prop_sched_rejected_on_imperfect_graph(tmp_path, capsys):
    # the 5-cycle is not perfect: its fair rates can lie outside the hull of
    # the schedules, so no lottery reaches them
    cfg = _write(
        tmp_path,
        {"network": "odd-cycle-5", "seeds": [0], "sim": {"engine": "prop-sched", "horizon": 200}},
    )
    assert main(["simulate", "--config", cfg]) == 2
    assert "sim.engine" in capsys.readouterr().err
    assert main(["simulate", "--config", cfg, "--override", "sim.engine=backpressure"]) == 0
