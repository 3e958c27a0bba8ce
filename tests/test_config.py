import json
import math

import pytest
from hypothesis import given, settings

from switchnet.config import (
    ConfigError,
    apply_overrides,
    config_hash,
    load_config,
    parse_config,
)
from switchnet.metrics import SimConfig
from switchnet.model import InterferenceGraph

from strategies import config_overrides


def _inline_net(**extra):
    doc = {
        "kind": "analyze",
        "network": {
            "queues": 2,
            "routes": [{"id": "f", "path": [0, 1], "rate": 0.5}],
            "capacity": {"matrix": [[1, 0], [0, 1]]},
        },
    }
    doc.update(extra)
    return doc


def test_example_reference():
    cfg = parse_config({"kind": "analyze", "network": "tandem"})
    assert cfg.network_name == "tandem"
    assert cfg.spec.n_queues == 2
    assert cfg.seeds == (0,)


def test_inline_network():
    cfg = parse_config(_inline_net(seeds=[4, 2]))
    assert cfg.seeds == (4, 2)
    assert cfg.spec.routes[0].rate == pytest.approx(0.5)
    assert cfg.polytope.n_pools == 2


def test_edges_capacity():
    cfg = parse_config(
        {
            "kind": "analyze",
            "network": {
                "queues": 2,
                "routes": [
                    {"path": [0], "rate": 0.3},
                    {"path": [1], "rate": 0.3},
                ],
                "capacity": {"edges": [[0, 1]]},
            },
        }
    )
    assert isinstance(cfg.spec.capacity, InterferenceGraph)
    assert cfg.polytope.matrix.shape == (1, 2)


def test_missing_rate_field_path():
    doc = _inline_net()
    del doc["network"]["routes"][0]["rate"]
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "network.routes[0].rate" in str(exc.value)


def test_unknown_kind_and_engine():
    with pytest.raises(ConfigError):
        parse_config({"kind": "frobnicate", "network": "tandem"})
    with pytest.raises(ConfigError):
        parse_config(
            {"kind": "simulate", "network": "tandem", "sim": {"engine": "warp"}}
        )


def test_unknown_example_name():
    with pytest.raises(ConfigError):
        parse_config({"kind": "analyze", "network": "nope"})


def test_seed_validation():
    with pytest.raises(ConfigError):
        parse_config(_inline_net(seeds=[]))
    with pytest.raises(ConfigError):
        parse_config(_inline_net(seeds=[-1]))
    with pytest.raises(ConfigError):
        parse_config(_inline_net(seeds=[2**64]))
    cfg = parse_config(_inline_net(seeds=7))
    assert cfg.seeds == (7,)


def test_kind_specific_requirements():
    with pytest.raises(ConfigError) as exc:
        parse_config({"kind": "independence", "network": "k22"})
    assert "independence.pairs" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config({"kind": "ldp", "network": "tandem"})
    assert "ldp.queue_vector" in str(exc.value)


def test_pair_validation():
    with pytest.raises(ConfigError):
        parse_config(
            {
                "kind": "independence",
                "network": "k22",
                "independence": {"pairs": [[0, 0]]},
            }
        )
    with pytest.raises(ConfigError):
        parse_config(
            {
                "kind": "independence",
                "network": "k22",
                "independence": {"pairs": [[0, 9]]},
            }
        )


def test_prop_sched_needs_schedules():
    doc = _inline_net(kind="simulate", sim={"engine": "prop-sched"})
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "sim.engine" in str(exc.value)


def test_prop_sched_needs_perfect_graph():
    doc = {"kind": "compare", "network": "odd-cycle-5", "sim": {"engine": "prop-sched"}}
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert "sim.engine" in str(exc.value)
    parse_config(dict(doc, kind="analyze"))  # the engine matters only to simulations
    parse_config(dict(doc, network="cycle4"))
    # the 17-cycle is not perfect either, but it is above the perfection
    # test's size cap, so it is accepted untested
    n = 17
    big = {
        "queues": n,
        "routes": [{"path": [j], "rate": 0.01} for j in range(n)],
        "capacity": {"edges": [[j, (j + 1) % n] for j in range(n)]},
    }
    assert parse_config(dict(doc, network=big)).engine == "prop-sched"


def test_sim_settings_become_one_sim_config():
    cfg = parse_config(_inline_net(sim={"horizon": 50, "batches": 7, "pairs": [[1, 0]]}))
    assert cfg.sim == SimConfig(horizon=50.0, batches=7, pairs=((1, 0),))
    assert cfg.pairs == ()  # independence pairs are a separate field
    with pytest.raises(ConfigError) as exc:
        parse_config(_inline_net(sim={"batches": 1}))
    assert exc.value.path == "sim"


def test_non_finite_numbers_refused():
    # Python's json reads NaN and Infinity; a run must not take them
    for value in (math.inf, -math.inf, math.nan):
        doc = _inline_net()
        doc["network"]["routes"][0]["rate"] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "network.routes[0].rate"
        for key in ("horizon", "warmup_fraction"):
            with pytest.raises(ConfigError) as exc:
                parse_config(_inline_net(sim={key: value}))
            assert exc.value.path == f"sim.{key}"


def test_initial_length_checked():
    doc = _inline_net(kind="simulate", sim={"initial": [1, 2, 3]})
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_overrides_dotted_paths():
    doc = {"kind": "analyze", "network": "tandem"}
    out = apply_overrides(doc, ["sim.horizon=2500", "network=merge", "seeds=[1,2]"])
    assert out["sim"]["horizon"] == 2500
    assert out["network"] == "merge"
    assert out["seeds"] == [1, 2]
    assert doc.get("sim") is None  # original untouched


def _overridable(cfg):
    return {
        "sim.horizon": cfg.sim.horizon,
        "sim.warmup_fraction": cfg.sim.warmup_fraction,
        "sim.batches": cfg.sim.batches,
        "sim.slot_arrivals": cfg.sim.slot_arrivals,
        "sim.checkpoints": cfg.sim.checkpoints,
        "sim.pairs": [list(p) for p in cfg.sim.pairs],
        "sim.engine": cfg.engine,
        "seeds": list(cfg.seeds),
        "network": cfg.network_name,
    }


@settings(max_examples=100, deadline=None)
@given(values=config_overrides())
def test_overrides_round_trip(values):
    doc = {"kind": "simulate", "network": "k22", "seeds": [3], "sim": {"horizon": 10}}
    items = [f"{key}={json.dumps(value)}" for key, value in values.items()]
    got = _overridable(parse_config(apply_overrides(doc, items)))
    base = _overridable(parse_config(doc))
    for key in got:
        assert got[key] == values.get(key, base[key]), key


def test_override_must_have_equals():
    with pytest.raises(ConfigError):
        apply_overrides({}, ["sim.horizon"])


def test_document_must_be_an_object():
    for doc in ([], "tandem", 5):
        with pytest.raises(ConfigError, match="config document must be a JSON object"):
            parse_config(doc)


def test_override_path_through_a_non_object_is_refused():
    # a value on the way is the document's error, not an empty object to fill
    for doc, key in (({"sim": 5}, "sim"), ({"sim": None}, "sim"), ({"ldp": {"x": [1]}}, "ldp.x")):
        with pytest.raises(ConfigError, match=f"^{key}: expected an object, cannot set {key}.y"):
            apply_overrides(doc, [f"{key}.y=500"])
    assert apply_overrides({"sim": {}}, ["sim.a.b=1"]) == {"sim": {"a": {"b": 1}}}


def test_hash_ignores_seeds_and_out():
    a = {"kind": "analyze", "network": "tandem", "seeds": [1], "out": "x"}
    b = {"kind": "analyze", "network": "tandem", "seeds": [9, 9], "out": "y"}
    c = {"kind": "analyze", "network": "merge", "seeds": [1], "out": "x"}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_inline_net(seeds=[5])))
    cfg = load_config(str(path), overrides=["sim.horizon=123"])
    assert cfg.sim.horizon == 123
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
