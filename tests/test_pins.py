"""Byte-identity of results: every ``gb_cold`` pool job, every ``check_cli``
document, the random-connection ``chern_koszul`` jobs and a sample of its
n = 8 towers, run in-process, against the SHA-256 pins in
``perfbench/reference.json``.

The reduced Groebner bases, normal forms and CLI reports are unique, so a
change of algorithm or coefficient representation must leave every digest
as it is.  Only reads ``perfbench/`` (the documents it writes go under the
ignored ``.perfbench_work/``).
"""
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from workloads import ROOT, WORKLOADS, digest  # noqa: E402


@pytest.mark.parametrize("name", ["gb_cold", "check_cli"])
def test_pool_outputs_match_pins(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # check_cli documents are passed as relative paths
    pins = json.loads((PERFBENCH / "reference.json").read_text())[name]
    workload = WORKLOADS[name]
    jobs = workload.prepare(workload.pool(), in_process=True)
    assert len(jobs) == len(pins)
    mismatched = [j.key for j in jobs if digest(j.render(j.fn())) != pins[j.key]]
    assert mismatched == []


def _chern_pins_mismatched(specs):
    pins = json.loads((PERFBENCH / "reference.json").read_text())["chern_koszul"]
    jobs = WORKLOADS["chern_koszul"].prepare(specs)
    return [j.key for j in jobs if digest(j.render(j.fn())) != pins[j.key]]


def test_printed_chern_characters_match_pins():
    """The printed ch of the eight random-connection ``chern_koszul`` jobs
    (n = 4, a fraction of a second in all)."""
    specs = [spec for spec in WORKLOADS["chern_koszul"].pool() if spec["r"] is not None]
    assert len(specs) == 8
    assert _chern_pins_mismatched(specs) == []


def test_printed_tower_chern_characters_match_pins():
    """The printed ch of every 10th n = 8 tower of the ``chern_koszul`` pool,
    in pool order: the reduced mode of ``chern_character`` byte for byte,
    without the seconds that all 160 towers take."""
    towers = [spec for spec in WORKLOADS["chern_koszul"].pool() if spec["r"] is None]
    specs = towers[::10]
    assert len(specs) == 16 and {spec["m"] for spec in specs} == {4}
    assert _chern_pins_mismatched(specs) == []
