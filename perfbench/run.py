"""hdtcam benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Generates the workload's inputs from ``hdtcam.synth`` with the seed, then
runs fresh processes (``child.py``) against the sources in ``src``:

--trace 0  a set-up probe, the run process and a second probe, so the
           three set-ups are spread over the run; reports ``setup_s``
           (their median), ``wall_s`` (median wall time of the CLI command
           sequence over the repetitions) and ``peak_rss_mb`` (peak
           resident memory of the run process);
--trace 1  one untraced and one traced run process; reports the per-layer
           metrics of ``spans.LAYER_METRICS`` and the tracing overhead.

Every CLI command is one operation. It fails when it exits nonzero, when its
output does not match ``reference.json``, or when the run's time budget cuts
it (the commands and repetitions it then leaves out fail as well). A
provenance line precedes the result, which is the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import MIN_REPS
from spans import LAYER_METRICS, layer_metrics, load
from workloads import (
    BANK_SIZE, PROFILES, WHY, check, commands, noisy_fields, point_key, prepare_inputs,
    primary_outputs, read_results_csv, seed_reference, standard_error,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# The child processes of one run, with the share of the remaining time each
# may take; a child that overruns its share is cut (see child.py).
PLANS = {0: (("probe", 1), ("run", 4), ("probe", 1)), 1: (("run", 1), ("trace", 1))}
DEADLINE_S = 160.0  # for all children together
GRACE_S = 8.0  # past a child's share before it is killed rather than cut


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def start_child(mode: str, args, workdir: Path, env: dict, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", args.workload,
           "--profile", args.profile, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--budget", f"{budget:.3f}"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=budget + GRACE_S)
    except subprocess.TimeoutExpired:  # killed and waited for by subprocess.run
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
        return {"mode": mode, "setup_s": time.monotonic() - started, "reps": [],
                "peak_rss_mb": rss, "timed_out": True}
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]), mode=mode)


def run_children(args, workdir: Path, env: dict, deadline: float) -> list:
    plan = PLANS[args.trace]
    children = []
    for i, (mode, share) in enumerate(plan):
        remaining = deadline - time.monotonic()
        budget = max(1.0, remaining * share / sum(w for _, w in plan[i:]))
        children.append(start_child(mode, args, workdir, env, budget))
    return children


def rep_walls(child: dict) -> list:
    """Wall times of the complete repetitions; if none completed, the time
    the process ran, a lower bound that still shows the slowdown."""
    walls = [r["wall_s"] for r in child["reps"] if r["complete"]]
    return walls or [child["setup_s"] + sum(r["wall_s"] for r in child["reps"])]


def corrupt_last_digit(path: Path, ref: dict, profile: dict) -> None:
    """Self-test hook: change the last digit in a file, as a silent bit error would."""
    data = bytearray(path.read_bytes())
    i = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))


def shift_accuracy(path: Path, ref: dict, profile: dict, every: bool) -> None:
    """Self-test hook: lower accuracy_mean in a sweep's results, as a biased
    sampler would, and raise accuracy_loss to match. Without ``every`` the
    first point moves by twice its tolerance; with it, every point moves by
    its floor plus 4 standard errors, which only the combined check sees."""
    floor = noisy_fields(profile)["accuracy_mean"]
    rows = read_results_csv(str(path))
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first = len(lines) - len(rows)
    header = lines[first - 1].rstrip("\n").split(",")
    for k, row in enumerate(rows[: None if every else 1]):
        want = ref["points"][point_key(row)]
        se = standard_error(want, "accuracy_mean", profile["trials"])
        if every and se == 0:
            continue
        shift = floor + 4 * se if every else 2 * (floor + 6 * se)
        row["accuracy_mean"] = f"{float(row['accuracy_mean']) - shift:.6f}"
        row["accuracy_loss"] = f"{float(row['accuracy_loss']) + shift:.6f}"
        lines[first + k] = ",".join(row[h] for h in header) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


CORRUPTIONS = {
    "digit": corrupt_last_digit,
    "accuracy-one": lambda path, ref, profile: shift_accuracy(path, ref, profile, False),
    "accuracy-all": lambda path, ref, profile: shift_accuracy(path, ref, profile, True),
}


def check_child(args, workdir: Path, child: dict, ref: dict, profile: dict) -> tuple:
    """(attempted, failed, reasons) over every command of every repetition.

    A child cut by its budget also fails the commands it never started, up to
    MIN_REPS repetitions; a cut probe counts as one failed operation."""
    attempted, failed, reasons = 0, 0, []
    reps = child["reps"]
    for k, rep in enumerate(reps):
        outputs = primary_outputs(args.workload, rep["dir"])
        first = primary_outputs(args.workload, reps[0]["dir"])
        if args.corrupt and k == 0 and rep["exit_codes"][0] == 0:
            CORRUPTIONS[args.corrupt](workdir / outputs[0], ref, profile)
        for i, (code, path) in enumerate(zip(rep["exit_codes"], outputs)):
            attempted += 1
            if code is None:
                reason = "cut by the time budget"
            elif code != 0:
                reason = f"exit code {code}: {' | '.join(rep['errors'])}"
            else:
                reason = check(args.workload, i, str(workdir / path), ref, profile,
                               str(workdir / first[i]) if k > 0 else None)
            if reason:
                failed += 1
                reasons.append(f"{rep['dir']} command {i}: {reason}")
    if child["timed_out"]:
        n_commands = len(commands(args.workload, profile, args.seed, ""))
        missing = (max(0, MIN_REPS - len(reps)) * n_commands if child["mode"] != "probe"
                   else 1)
        attempted, failed = attempted + missing, failed + missing
        reasons.append(f"{child['mode']} process cut by the time budget after "
                       f"{len(reps)} repetition(s)")
    return attempted, failed, reasons


def measure(args, workdir: Path, children: list) -> tuple:
    """(metrics, provenance details) of the children of one run."""
    if not args.trace:
        probe, run, probe2 = children
        setups = [probe["setup_s"], run["setup_s"], probe2["setup_s"]]
        walls = rep_walls(run)
        metrics = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                   "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
        return metrics, {"setup_s_samples": setups, "wall_s_samples": walls}
    untraced, traced = children
    overhead = statistics.median(rep_walls(traced)) - statistics.median(rep_walls(untraced))
    spans_path = workdir / "spans.jsonl"
    spans = load(str(spans_path)) if spans_path.exists() else []
    values = layer_metrics(spans, overhead, [r["dir"] for r in traced["reps"] if r["complete"]])
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    kept = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if spans_path.exists():
        shutil.copyfile(spans_path, kept)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    return metrics, {"spans": str(kept.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full",
                        help="input size; 'tiny' is for the self-test")
    parser.add_argument("--corrupt", choices=sorted(CORRUPTIONS),
                        help="self-test: corrupt the first output before checking it")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "hdtcam" / "cli.py").is_file():
        print(f"error: no hdtcam sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas = {k: str(nproc) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    os.environ.update(blas)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))
    import numpy

    profile = PROFILES[args.profile]
    with open(HERE / "reference.json", "r", encoding="utf-8") as f:
        reference = json.load(f)["profiles"][args.profile]
    input_seed = args.seed % BANK_SIZE
    ref = seed_reference(reference[args.workload], input_seed)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs_sha256 = prepare_inputs(str(workdir), str(ROOT / ".perfbench_cache"), args.profile,
                                       args.workload, input_seed)
        children = run_children(args, workdir, env, deadline)
        metrics, details = measure(args, workdir, children)
        attempted = failed = 0
        reasons = []
        for child in children:
            a, f_, r = check_child(args, workdir, child, ref, profile)
            attempted, failed, reasons = attempted + a, failed + f_, reasons + r
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    inputs_ok = inputs_sha256 == ref["inputs_sha256"]
    if not inputs_ok:
        reasons.insert(0, f"inputs sha256 {inputs_sha256} != reference {ref['inputs_sha256']}")
    for reason in reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "input_seed": input_seed, "inputs_sha256": inputs_sha256, "profile": args.profile,
        "queries": profile["languages"] * profile["queries_per_language"],
        "trials": profile["trials"], "python": sys.version.split()[0],
        "numpy": numpy.__version__, "nproc": nproc, "blas_threads": nproc,
        "git_commit": git_commit(),
        "reps": [len(c["reps"]) for c in children if c["mode"] != "probe"], **details,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": inputs_ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
