"""Self-test of the benchmark harness at the tiny input size.

    python3 perfbench/selftest.py

Checks, for every workload of BENCHMARK.json:
  * --trace 0 prints every end-to-end metric and --trace 1 every per-layer
    metric, each with the unit BENCHMARK.json gives, with no failed operation;
  * the traced sweeps encode no text, and block_reads repeats across runs;
  * a deliberately corrupted output (--corrupt digit) is a failed operation;
  * on the sweeps, one point's accuracy moved past its tolerance fails the
    per-point check, and every point's moved by 4 standard errors fails the
    combined check;
  * a run whose time budget cuts it still prints a result, with the cut
    commands counted as failed.
It also checks that the harness exits nonzero without a result when the
checkout holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# run.py with its children's time budget cut to 2 s
SHORT_DEADLINE = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
                  "run.DEADLINE_S = 2.0; sys.exit(run.main(sys.argv[1:]))")


def bench(*args: str, cwd: Path = ROOT, short: bool = False) -> tuple:
    """(exit code, result or None, stderr) of one tiny benchmark run."""
    program = ["-c", SHORT_DEADLINE] if short else ["perfbench/run.py"]
    proc = subprocess.run(
        [sys.executable, *program, "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else None
    return proc.returncode, result, proc.stderr


def expect(ok: bool, what: str, problems: list) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        problems.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = bench("--workload", name, "--seed", "3", "--trace", str(trace),
                                 "--profile", "tiny")
            expect(code == 0 and result is not None, f"{name} --trace {trace} prints a result",
                   problems)
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} --trace {trace} prints every {key} metric with its unit",
                   problems)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} --trace {trace} passes its output checks", problems)
            if trace and name.startswith("sweep-"):
                m = result["metrics"]
                expect(m["encoders.encode_text_ngram.windows"]["value"] == 0,
                       f"{name} encodes no text", problems)
                _, again, _ = bench("--workload", name, "--seed", "3", "--trace", "1",
                                 "--profile", "tiny")
                expect(again is not None and again["metrics"]["explorer.evaluate.block_reads"]
                       == m["explorer.evaluate.block_reads"],
                       f"{name} block_reads repeats across runs", problems)
        # corruption -> what the first repetition's first check must report
        corruptions = {"digit": ""}
        if name.startswith("sweep-"):
            corruptions["accuracy-one"] = r"[^:]+: accuracy_mean \S+ outside tolerance"
            corruptions["accuracy-all"] = "accuracy_mean: combined shift"
        for corrupt, reason in corruptions.items():
            _, result, err = bench("--workload", name, "--seed", "3", "--trace", "0",
                                   "--profile", "tiny", "--corrupt", corrupt)
            expect(result is not None and result["failed"] >= 1 and not result["correct"]
                   and re.search("check failed: run00 command 0: " + reason, err) is not None,
                   f"{name} counts a corrupted output ({corrupt}) as a failed operation",
                   problems)
        _, result, err = bench("--workload", name, "--seed", "3", "--trace", "0",
                               "--profile", "tiny", short=True)
        expect(result is not None and result["failed"] >= 1 and not result["correct"]
               and "cut by the time budget" in err,
               f"{name} counts the commands a time budget cuts as failed", problems)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("--workload", spec["workloads"][0]["name"], "--seed", "0",
                             cwd=bare)
        expect(code != 0 and result is None,
               "without the program's sources the harness fails without a result", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
