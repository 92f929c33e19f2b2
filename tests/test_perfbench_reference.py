"""The train-eval-language workload's outputs equal ``perfbench/reference.json``.

Its tiny inputs are generated for two input seeds through
``perfbench/workloads.py``, which this test only reads, and the workload's
three commands run through ``cli.main``: the model's sha256 and the exact
ideal and blocked accuracies are the ones the benchmark checks."""

import importlib.util
import json
from pathlib import Path

import pytest

from hdtcam import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD = "train-eval-language"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [0, 1])
def test_train_eval_language_matches_reference(seed, tmp_path, monkeypatch):
    profile = workloads.PROFILES["tiny"]
    bank = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    ref = workloads.seed_reference(bank["profiles"]["tiny"][WORKLOAD], seed)
    inputs, rep_dir = tmp_path / "inputs", tmp_path / "rep"
    inputs.mkdir()
    rep_dir.mkdir()
    workloads.generate_inputs(str(inputs), WORKLOAD, profile, seed)
    assert workloads.tree_sha256(str(inputs)) == ref["inputs_sha256"]
    monkeypatch.chdir(inputs)
    argvs = workloads.commands(WORKLOAD, profile, seed, str(rep_dir))
    outputs = workloads.primary_outputs(WORKLOAD, str(rep_dir))
    assert len(argvs) == len(outputs) == 3
    for i, (argv, path) in enumerate(zip(argvs, outputs)):
        assert cli.main(argv) == 0, argv
        assert workloads.check(WORKLOAD, i, path, ref, profile, None) is None, argv
