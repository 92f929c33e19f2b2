"""One fresh process of the benchmark.

Modes:
  probe  time ``import hdtcam.cli`` plus ``hwmodel.default_catalog()`` and exit;
  run    the same set-up, then repeat the workload's CLI sequence through
         ``hdtcam.cli.main`` until ``--seconds`` have passed (at least
         MIN_REPS times), timing each repetition in ``run<NN>/``;
  trace  like run, in ``trace<NN>/``, with spans installed before the
         catalog is calibrated and written to ``spans.jsonl`` at the end.

After ``--budget`` seconds the command in progress is cut and counts as
failed, with every command after it, and no further repetition starts.
Prints one JSON object on stdout. Run from the workload's input directory
with ``src`` on PYTHONPATH; ``run.py`` starts it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

MIN_REPS = 2  # so a --deterministic sweep can be compared with a rerun
MAX_REPS = 1000


class Cut(BaseException):
    """The budget ran out. A BaseException, so the CLI's own handlers let it pass."""


def _cut(signum, frame):
    raise Cut


def run_cli(cli, argv, rec):
    """Run one CLI command in-process; returns (exit code, output tail on failure)."""
    out = io.StringIO()
    index = rec.open(f"cli.{argv[0]}") if rec else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if rec:
            rec.close(index)
    return code, (out.getvalue()[-400:] if code else "")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--profile", default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--budget", type=float, required=True)
    args = parser.parse_args()

    from workloads import PROFILES, commands

    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _cut)
    signal.setitimer(signal.ITIMER_REAL, args.budget)
    setup_s, reps, rec = None, [], None
    try:
        import hdtcam.cli as cli
        from hdtcam import hwmodel

        if args.mode == "trace":
            import spans

            rec = spans.Recorder()
            spans.install(rec)
        hwmodel.default_catalog()
        setup_s = time.perf_counter() - started
        start = time.perf_counter()
        while args.mode != "probe" and len(reps) < MAX_REPS and (
            len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds
        ):
            rep_dir = f"{args.mode}{len(reps):02d}"
            argvs = commands(args.workload, PROFILES[args.profile], args.seed, rep_dir)
            rep = {"dir": rep_dir, "wall_s": 0.0, "complete": False,
                   "exit_codes": [None] * len(argvs), "errors": []}
            reps.append(rep)
            os.mkdir(rep_dir)
            if rec:
                rec.run_id = rep_dir
            t = time.perf_counter()
            try:
                for i, argv in enumerate(argvs):
                    rep["exit_codes"][i], tail = run_cli(cli, argv, rec)
                    if tail:
                        rep["errors"].append(tail)
            finally:
                rep["wall_s"] = time.perf_counter() - t
            rep["complete"] = True
    except Cut:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    timed_out = setup_s is None or (bool(reps) and not reps[-1]["complete"])
    if setup_s is None:
        setup_s = time.perf_counter() - started
    if rec:
        rec.write("spans.jsonl")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps({"setup_s": setup_s, "reps": reps, "peak_rss_mb": peak_rss_mb,
                      "timed_out": timed_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
