"""riccati3d benchmark: one workload, its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 10 --trace 0

Run from a checkout (the package is imported from ``src/`` next to this
directory, never from an installed copy).  Each workload runs in fresh
worker processes with RICCATI3D_THREADS=1, so the verify checks run
serially.

--trace 0  prints wall_s, setup_s and peak_rss_mb, plus ops_failed_ratio
           with its base (see NOTES.md for why that one is not a metric in
           the JSON line).  The two times are at the reference CPU speed
           of speed.py; the raw wall times are printed next to them.
--trace 1  runs the workload once untraced and once traced and prints the
           per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is the
JSON result.  Exit code 2 means the benchmark could not run at all.  Failed
operations do not change the exit code: they show in the JSON ``failed``
key and in the FAILED lines (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "grid-export", "w-eval")
SETUP_SAMPLES = 15     # set-ups per run; setup_s is their median
DEADLINE = time.monotonic() + 175  # a run must end within 180 s


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, mode: str, seconds: float, workdir: Path) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        # the verify checks run serially: the pool costs more than it gains
        # under the interpreter lock, and its timings vary too much
        RICCATI3D_THREADS="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(workdir),
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} ran past the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values, unit: str) -> str:
    """Quartiles of the samples of one run, or why there are none."""
    if len(values) < 2:
        return "spread n/a in a single sample; NOTES.md gives spreads across runs"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.4f} .. {q3:.4f} {unit}"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(args, workdir: Path):
    # set-ups are split around the timed run, so that they sample the
    # machine's speed over the whole run rather than over a few seconds
    def setups(n):
        return [worker(args.workload, args.seed, "setup", 0, workdir)["setup"]
                for _ in range(n)]
    before = setups(SETUP_SAMPLES // 2)
    run = worker(args.workload, args.seed, "run", args.seconds, workdir)
    setup_pieces = before + [run["setup"]] + setups(SETUP_SAMPLES - 1 - len(before))
    passes = [speed.reference_seconds(p) for p in run["passes"]]
    setup = [speed.reference_seconds(p) for p in setup_pieces]
    raw = [speed.raw_seconds(p) for p in run["passes"]]
    raw_setup = [speed.raw_seconds(p) for p in setup_pieces]
    probes = [s for pieces in run["passes"] for _, s in pieces if s is not None]
    probe = f"{statistics.median(probes) * 1e6:.1f} us" if probes else "n/a"
    failed = len(run["failures"])
    lines = [
        f"wall_s            {statistics.median(passes):.4f} s   "
        f"median of {len(passes)} pass(es), {spread(passes, 's')}",
        f"setup_s           {statistics.median(setup):.4f} s   "
        f"median of {len(setup)} set-ups, {spread(setup, 's')}",
        f"peak_rss_mb       {run['peak_rss_mb']:.1f} MB",
        f"ops_failed_ratio  {failed / run['attempted']:.5f} ratio   "
        f"{failed} failed of {run['attempted']} attempted",
        f"raw wall time     {statistics.median(raw):.4f} s per pass, "
        f"{statistics.median(raw_setup):.4f} s per set-up; wall_s and setup_s are "
        f"at the reference speed (speed.py); median probe in the passes "
        f"{probe}, reference {speed.REFERENCE_PROBE_S * 1e6:.1f} us",
    ]
    metrics = {
        "wall_s": metric(statistics.median(passes), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
    }
    return run, lines, metrics, run["problems"]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: p99 of 1000 samples leaves 10 beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced(args, workdir: Path):
    plain = worker(args.workload, args.seed, "run", 0, workdir)
    run = worker(args.workload, args.seed, "trace", 0, workdir)
    problems = plain["problems"] + run["problems"]
    if plain["attempted"] != run["attempted"] or plain["failures"] != run["failures"]:
        problems.append("traced pass failed other operations than the untraced pass")
    if args.workload == "verify-all" and plain["data"]["report"] != run["data"]["report"]:
        problems.append("traced verify report differs from the untraced one "
                        "beyond the seconds fields")
    wall, wall_traced = (speed.reference_seconds(r["passes"][0]) for r in (plain, run))
    values = dict(run["layers"])
    data = plain["data"]
    suite_s = data.get("suite_s", {})
    for suite in ("algebra", "operators", "riccati", "euler_picard", "symmetry",
                  "solutions", "oned"):
        values[f"verify.{suite}_s"] = suite_s.get(suite, 0.0)
    values["verify.checks_failed"] = (len(plain["failures"])
                                      if args.workload == "verify-all" else 0)
    cli_s = data.get("cli_s", {})
    values["cli.eval_s"] = cli_s.get("eval", 0.0)
    values["cli.transform_s"] = cli_s.get("transform", 0.0)
    values["cli.rows"] = data.get("rows", 0)
    values["cli.rows_masked"] = data.get("rows_masked", 0)
    eval_ms, residual_ms = data.get("eval_ms") or [0.0], data.get("residual_ms") or [0.0]
    values["w.eval_p50_ms"] = statistics.median(eval_ms)
    values["w.eval_p99_ms"] = percentile(eval_ms, 0.99)
    values["w.residual_p50_ms"] = statistics.median(residual_ms)
    values["w.residual_p90_ms"] = percentile(residual_ms, 0.90)
    values["trace.overhead_ratio"] = wall_traced / wall
    values["trace.wall_s_traced"] = wall_traced
    values["trace.wall_s_untraced"] = wall
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    mismatch = set(units) ^ set(values)
    if mismatch:
        problems.append(f"per-layer metrics out of step with BENCHMARK.json: {sorted(mismatch)}")
    metrics = {name: metric(values[name], units[name]) for name in units if name in values}
    lines = [f"{name:<28} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"trace overhead: traced pass {wall_traced:.4f} s / untraced pass "
                 f"{wall:.4f} s = {wall_traced / wall:.3f}")
    return plain, lines, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riccati3d benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "riccati3d" / "__init__.py").is_file():
        print(f"error: no riccati3d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run, lines, metrics, problems = (traced if args.trace else untraced)(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    machine = run["machine"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {machine['nproc']}  python {machine['python']}  numpy {machine['numpy']}")
    print("\n".join(lines))
    failures = run["failures"]
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    if len(failures) > 10:
        print(f"FAILED ... and {len(failures) - 10} more")
    for digest in run["data"].get("sha256", []):
        print(f"sha256 {digest}")
    for problem in problems:
        print(f"INCORRECT {problem}")
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": len(run["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
