import math

import numpy as np
import pytest

from switchnet.metrics import (
    JointOccupancy,
    SimConfig,
    TraceMetrics,
    batch_se,
    collect_joint,
)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SimConfig(horizon=horizon)
    with pytest.raises(ValueError):
        SimConfig(horizon=10, warmup_fraction=1.0)
    with pytest.raises(ValueError):
        SimConfig(horizon=10, batches=1)
    with pytest.raises(ValueError):
        SimConfig(horizon=10, slot_arrivals="weird")
    with pytest.raises(ValueError):
        SimConfig(horizon=10, pairs=((0, 1, 2),))
    for pairs in (((0.5, 1),), ((0, 1.5),), ((0, math.nan),), ((True, 1),)):
        with pytest.raises(ValueError, match="pairs must hold integers"):
            SimConfig(horizon=10, pairs=pairs)
    with pytest.raises(ValueError):
        SimConfig(horizon=10, checkpoints=-1)


def test_sim_config_counts_are_integers():
    # an integer-valued float is its integer; a boolean, a fraction or a
    # string is refused, not taken as a count
    cfg = SimConfig(horizon=10, batches=3.0, checkpoints=np.int64(2))
    assert (cfg.batches, cfg.checkpoints) == (3, 2)
    assert type(cfg.batches) is int and type(cfg.checkpoints) is int
    for key, name in (("batches", "batch count"), ("checkpoints", "checkpoint count")):
        for bad in (True, 2.5, "3", math.nan):
            with pytest.raises(ValueError, match=f"{name} must hold integers"):
                SimConfig(horizon=10, **{key: bad})


def test_batch_se_hand_value():
    assert batch_se([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.6454972243679028)


def test_batch_se_drops_nan():
    assert batch_se([1.0, 2.0, 3.0, 4.0, np.nan]) == pytest.approx(
        0.6454972243679028
    )
    assert math.isnan(batch_se([np.nan, np.nan]))


def test_joint_from_samples():
    samples = np.array([[0, 0], [1, 1], [1, 1], [0, 1]])
    jo = collect_joint(samples, (0, 1), cap=4)
    assert jo.total == pytest.approx(4.0)
    assert jo.joint[0, 0] == pytest.approx(0.25)
    assert jo.joint[1, 1] == pytest.approx(0.5)
    np.testing.assert_allclose(jo.marginals[0][:2], [0.5, 0.5])
    np.testing.assert_allclose(jo.marginals[1][:2], [0.25, 0.75])
    # corr = cov / (sd_x sd_y) = 0.125 / sqrt(0.25 * 0.1875) = 1/sqrt(3)
    assert jo.correlation() == pytest.approx(1 / math.sqrt(3))
    assert jo.product_of_marginals.sum() == pytest.approx(1.0)


def test_joint_clipping():
    samples = np.array([[0, 99], [1, 2]])
    jo = collect_joint(samples, (0, 1), cap=2)
    assert jo.joint.shape == (3, 3)  # bins 0..cap
    assert jo.joint[0, 2] == pytest.approx(0.5)  # 99 clipped into the top bin


def _dummy_trace(**kw):
    base = dict(
        kind="test",
        horizon=10.0,
        warmup=2.0,
        seed=0,
        queue_means=np.array([1.0]),
        queue_ses=np.array([0.1]),
        queue_batch_means=np.ones((4, 1)),
        route_ids=("r",),
        sojourn_means=np.array([2.0]),
        sojourn_ses=np.array([0.2]),
        sojourn_counts=np.array([10]),
        composition_counts=np.array([[10]]),
        route_content_means=np.array([0.9]),
        route_content_ses=np.array([0.05]),
        admitted=12,
        departed=10,
        in_system=2,
    )
    base.update(kw)
    return TraceMetrics(**base)


def test_trace_conservation():
    assert _dummy_trace().conservation_ok()
    assert not _dummy_trace(in_system=0).conservation_ok()


def test_trace_rows_and_summary():
    tr = _dummy_trace()
    rows = tr.to_rows()
    names = [r[0] for r in rows]
    assert "queue_mean" in names and "sojourn_mean" in names
    d = tr.to_summary_dict()
    assert d["conservation_ok"] is True
    assert d["routes"]["r"]["sojourn_mean"] == pytest.approx(2.0)


def test_collect_joint_from_trace_requires_recorded_pair():
    tr = _dummy_trace()
    with pytest.raises(KeyError):
        collect_joint(tr, (0, 1))


def test_joint_rejects_empty():
    with pytest.raises(ValueError):
        collect_joint(np.zeros((0, 2), dtype=int), (0, 1))
