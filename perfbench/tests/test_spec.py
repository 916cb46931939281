"""BENCHMARK.json is well formed, and spec.py links every per-layer
metric it declares to the end-to-end metric it should move."""

import re

from spec import MOVES, declared

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_per_layer_metric_has_a_moves_link():
    assert [m["name"] for m in declared()["per_layer"]] == list(MOVES)


def test_declared_names_and_bounds_are_well_formed():
    doc = declared()
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())
