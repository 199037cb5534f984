"""Smoke test of the benchmark at toy sizes: every metric named in
BENCHMARK.json is emitted with its unit, and a wrong answer is caught.
No timing is asserted."""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TOY = {
    "recon-partial": workloads.grid((8, 10), ("cover", "extra", "drop", "dense")),
    "classify-mid": workloads.grid((8,), ("cover", "closest", "minus", "plus")),
    "plan-large": workloads.grid((12, 16), ("tree",)),
    "oracle-small": ((4, "remark1"), (5, "minus"), (5, "cover")),
}


@pytest.fixture(autouse=True)
def _unfreeze():
    yield
    gc.unfreeze()  # Setup freezes the objects alive at its end


def toy_setup(name: str) -> run.Setup:
    toy = dataclasses.replace(workloads.WORKLOADS[name], strata=TOY[name], warm_n=6)
    return run.Setup(name, seed=3, workload=toy)


def units(line: dict) -> dict:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TOY))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path, monkeypatch):
    setup = toy_setup(name)
    result = run.measure(setup, seconds=0.01)
    result["metrics"]["setup_s"] = setup.seconds
    line = run.report(result, run.END_TO_END_UNITS)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 1
    assert units(line) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

    monkeypatch.setattr(run, "OUT", tmp_path)
    line = run.report(run.traced(setup, name), {})
    assert line["correct"]
    assert units(line) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert (tmp_path / f"spans-{name}-s3.jsonl").stat().st_size > 0


def test_wrong_distances_raise_the_error_rate():
    setup = toy_setup("recon-partial")
    api = run.make_api(setup.tl)
    real = api.parse_cord_distances
    api.parse_cord_distances = lambda text: setup.tl.PartialDistance(
        {c: 1.5 * v for c, v in real(text).items()}
    )
    result = run.measure(setup, seconds=0.01, api=api)
    assert result["failures"]
    assert result["metrics"]["verified_share"] < 1.0
    assert not run.report(result, run.END_TO_END_UNITS)["correct"]


def test_wrong_verdict_raises_the_error_rate():
    setup = toy_setup("classify-mid")
    api = run.make_api(setup.tl)
    api.is_shellable = lambda tree, cords: setup.tl.ShellingResult((), frozenset())
    result = run.measure(setup, seconds=0.01, api=api)
    assert any("minus" in where for where, _ in result["failures"])


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, f"{run.HERE.name}/run.py", "--workload", "oracle-small", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
