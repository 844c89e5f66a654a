"""BENCHMARK.json agrees with the code, and every name and unit is valid."""

import json
import re
from pathlib import Path

import layers
import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_are_valid():
    names = [n for n, _u in run.END_TO_END] + [n for n, _u in layers.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in list(run.END_TO_END) + list(layers.PER_LAYER):
        assert NAME.match(name), name
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_what_the_code_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["city400_4b_fast", "mirage_4b_exact",
                                                           "campaign_kukb"]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
