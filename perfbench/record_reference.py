"""Record ``reference.json``: this commit's outputs on every bank input seed.

    python3 perfbench/record_reference.py --profile full

For each workload and each of the BANK_SIZE input seeds it stores the
inputs' sha256 and the outputs that must match exactly (model-JSON sha256,
ideal and noise-free blocked accuracy, per-point ``energy_pJ``). For the
noisy sweep outputs it runs the sweep REF_TRIALS times with one trial and
distinct seeds and stores the per-point mean and per-trial standard
deviation of ``accuracy_mean`` and ``latency_ns``, from which
``workloads.check_sweep`` derives the tolerance. The profile's section of
the file is replaced once every seed is recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402
    BANK_SIZE, PROFILES, WHY, commands, point_key, prepare_inputs, primary_outputs,
    read_results_csv,
)

REF_TRIALS = 10
REF_SEED_BASE = 1_000_000  # CLI --seed of the first reference trial


def run(argv) -> None:
    from hdtcam import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hdtcam {' '.join(argv)} exited {code}")


def record_train_eval(profile: dict) -> dict:
    argvs = commands("train-eval-language", profile, 0, "ref")
    os.mkdir("ref")
    for argv in argvs:
        run(argv)
    model, ideal, blocked = primary_outputs("train-eval-language", "ref")
    with open(model, "rb") as f:
        out = {"model_sha256": hashlib.sha256(f.read()).hexdigest()}
    out["ideal_accuracy"] = read_results_csv(ideal)[0]["accuracy_mean"]
    out["blocked_accuracy"] = read_results_csv(blocked)[0]["accuracy_mean"]
    return out


def record_sweep(workload: str, profile: dict) -> dict:
    samples = {}
    ideal = set()
    for t in range(REF_TRIALS):
        rep = f"ref{t:02d}"
        os.mkdir(rep)
        run(commands(workload, dict(profile, trials=1), REF_SEED_BASE + t, rep)[0])
        for row in read_results_csv(f"{rep}/results.csv"):
            samples.setdefault(point_key(row), []).append(row)
            ideal.add(f"{float(row['accuracy_mean']) + float(row['accuracy_loss']):.6f}")
    if len(ideal) != 1:
        raise RuntimeError(f"ideal accuracy differs between trials: {sorted(ideal)}")
    points = {}
    for key, rows in samples.items():
        energies = {r["energy_pJ"] for r in rows}
        if len(energies) != 1:
            raise RuntimeError(f"{key}: energy_pJ differs between trials: {sorted(energies)}")
        acc = [float(r["accuracy_mean"]) for r in rows]
        lat = [float(r["latency_ns"]) for r in rows]
        points[key] = {"energy_pJ": energies.pop(), "trials": len(rows),
                       "accuracy_mean": statistics.fmean(acc), "accuracy_sd": statistics.stdev(acc),
                       "latency_ns": statistics.fmean(lat), "latency_sd": statistics.stdev(lat)}
    return {"ideal_accuracy": ideal.pop(), "points": points}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    args = parser.parse_args()
    profile = PROFILES[args.profile]
    workdir = ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    cwd = os.getcwd()
    bank = {}
    for workload in sorted(WHY):
        for seed in range(BANK_SIZE):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                entry = {"inputs_sha256": prepare_inputs(
                    str(workdir), str(ROOT / ".perfbench_cache"), args.profile, workload, seed)}
                os.chdir(workdir)
                if workload == "train-eval-language":
                    entry.update(record_train_eval(profile))
                else:
                    entry.update(record_sweep(workload, profile))
            finally:
                os.chdir(cwd)
                shutil.rmtree(workdir, ignore_errors=True)
            bank.setdefault(workload, {})[str(seed)] = entry
            print(f"recorded {args.profile} {workload} seed {seed}", flush=True)
    path = HERE / "reference.json"
    doc = json.loads(path.read_text()) if path.exists() else {"profiles": {}}
    doc["profiles"][args.profile] = bank
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
