"""One benchmark workload in a fresh process; prints one JSON result line.

run.py starts this with PYTHONPATH set to the checkout's ``src`` and
RICCATI3D_THREADS=1.  Modes:

  setup  import riccati3d, build the inputs, force lazy builds, report the
         time that took;
  run    the same set-up, then as many timed passes of the workload body as
         fill ``--seconds`` at the pass time in PASS_S (at least one, so
         ``--seconds 0`` gives exactly one pass);
  trace  tracing wrappers installed before set-up, then exactly one pass.

Every timed stretch (the set-up and each pass) is reported as the
[seconds, probe seconds] pieces of ``speed.Sampler``, which samples the
CPU's speed from the moment this script starts; run.py turns them into
times at a reference CPU speed (see speed.py).

The package is driven only through its public modules, and always through
module attributes (``cli.main``, ``riccati.vekua_residual``) so that the
tracing wrappers see the calls.
"""

import time

_START = time.perf_counter()  # set-up time includes importing the package

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

import riccati3d
from riccati3d import cli, fields, riccati, verify
from riccati3d.report import RunConfig

# tolerances of the verify suite checks that cover the same identities
RICCATI_TOL = 1e-6      # solutions/riccati_*
PSI_TOL = 1e-5          # solutions/schrodinger_*
TRANSPORT_TOL = 1e-5    # symmetry/transport
DISCREPANCY_TOL = 1e-6  # transform exit-code threshold
VEKUA_TOL = 5e-2        # euler_picard/vekua_residual_built_W


class Pass:
    """Checked outcome of one pass of a workload body."""

    def __init__(self):
        self.attempted = 0
        self.failures = []   # one line per failed operation
        self.problems = []   # reasons the benchmark cannot trust the pass
        self.data = {}

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class VerifyAll:
    """``verify.run_suite("all")`` serially; one operation per check."""

    def __init__(self, seed: int, workdir: Path):
        self.config = RunConfig(seed=seed)

    def run(self):
        return verify.run_suite("all", self.config)

    def check(self, report) -> Pass:
        out = Pass()
        for c in report.sorted_checks():
            out.op(c.passed, f"{c.name}: residual {c.max_abs_residual:.3e}, "
                             f"tolerance {c.tolerance:.1e}")
        suite_s = {s: 0.0 for s in verify.SUITES}
        for c in report.checks:
            suite_s[c.name.split("/", 1)[0]] += c.seconds
        names = [c.name for c in report.checks]
        if len(set(names)) != len(names):
            out.problems.append("the verify report repeats a check name")
        missing = [s for s in verify.SUITES if not any(n.startswith(s + "/") for n in names)]
        if missing:
            out.problems.append(f"the verify report has no checks of suites {missing}")
        payload = json.loads(report.to_json())
        for c in payload["checks"]:
            del c["seconds"]
        out.data = {"suite_s": suite_s, "report": payload}
        return out


ROT_C = repr(0.5 * math.log(2.0))
E = repr(math.e)

# (command, solution flags, grid x0,x1,nx,y0,y1,ny,z0,z1,nz, fields or group flags)
GRID_CALLS = (
    ("eval", ["--solution", "rotational", "--k", "1", "--c", ROT_C],
     (0.35, 1.1, 21, 0.0, 0.55, 21, -0.8, 0.8, 21), ["--fields", "Q,q,psi,residuals"]),
    ("eval", ["--solution", "conical", "--C1", "2", "--C2", E],
     (0.8, 1.2, 17, 0.0, 0.3, 17, 0.0, 0.25, 17), ["--fields", "Q,q,psi,residuals"]),
    ("eval", ["--solution", "harmonic:x+y+z"],
     (0.5, 1.9, 11, 0.3, 1.4, 11, 0.4, 1.5, 11), ["--fields", "Q,residuals"]),
    ("transform", ["--solution", "rotational", "--k", "1", "--c", ROT_C],
     (0.5, 1.0, 9, 0.05, 0.4, 9, -0.4, 0.4, 9), ["--group", "6", "--lambda", "0.3"]),
    ("transform", ["--solution", "conical", "--C1", "2", "--C2", E],
     (0.85, 1.15, 9, 0.02, 0.25, 9, 0.02, 0.2, 9), ["--group", "10", "--lambda", "0.05"]),
    ("transform", ["--solution", "harmonic:x+y+z"],
     (0.55, 1.85, 9, 0.35, 1.35, 9, 0.45, 1.45, 9), ["--group", "8", "--lambda", "0.05"]),
)


def _column_tolerance(command: str, column: str):
    if column == "resid_psi":
        return PSI_TOL
    if column.startswith("resid_"):
        return RICCATI_TOL if command == "eval" else TRANSPORT_TOL
    if column == "discrepancy":
        return DISCREPANCY_TOL
    return None


def check_csv(path: Path, command: str, rows_expected: int):
    """Problems found in one exported file, its row counts and its sha256."""
    data = path.read_bytes()
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    rows = list(reader)
    problems = []
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
    checked = [(header.index(f"Re_{name[3:]}"), header.index(f"Im_{name[3:]}"),
                name[3:], tol)
               for name in header if name.startswith("Re_")
               for tol in [_column_tolerance(command, name[3:])] if tol is not None]
    masked, bad = 0, []
    for row in rows:
        if row[3] == "1":
            masked += 1
            continue
        for i_re, i_im, name, tol in checked:
            value = abs(complex(float(row[i_re]), float(row[i_im])))
            if not value <= tol:
                bad.append(f"|{name}| = {value:.3e} > {tol:.0e} at "
                           f"({row[0]}, {row[1]}, {row[2]})")
                break
    if bad:
        problems.append(f"{len(bad)} rows out of tolerance, first {bad[0]}")
    return problems, len(rows), masked, hashlib.sha256(data).hexdigest()


class GridExport:
    """Six ``cli.main`` exports on seed-shifted grids; one operation per call."""

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.calls = []
        for i, (command, solution, grid, extra) in enumerate(GRID_CALLS):
            axes, rows = [], 1
            for k in range(3):
                lo, hi, n = grid[3 * k:3 * k + 3]
                # shift by less than one grid step; the row count stays nx*ny*nz
                shift = (hi - lo) / (n - 1) * rng.uniform(-0.5, 0.5)
                axes += [repr(lo + shift), repr(hi + shift), str(n)]
                rows *= n
            out = workdir / f"{i}-{command}.csv"
            argv = [command, *solution, "--grid", ",".join(axes), *extra,
                    "--out", str(out)]
            self.calls.append((command, argv, out, rows))

    def run(self):
        seconds = {"eval": 0.0, "transform": 0.0}
        codes = []
        sink = io.StringIO()
        for command, argv, out, rows in self.calls:
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.main(argv))
            seconds[command] += time.perf_counter() - start
        return codes, seconds

    def check(self, outputs) -> Pass:
        codes, seconds = outputs
        result = Pass()
        total_rows = total_masked = 0
        digests = []
        for (command, argv, out, rows), code in zip(self.calls, codes):
            if not out.is_file():
                result.op(False, f"{command} {out.name}: exit code {code}, no output")
                continue
            problems, n, masked, digest = check_csv(out, command, rows)
            if code != 0:
                problems.insert(0, f"exit code {code}")
            result.op(not problems, f"{command} {out.name}: {'; '.join(problems)}")
            total_rows += n
            total_masked += masked
            digests.append(f"{out.name} {digest}")
            out.unlink()
        result.data = {"cli_s": seconds, "rows": total_rows,
                       "rows_masked": total_masked, "sha256": digests}
        return result


TUBE = ((0.25, -0.6, -0.6), (7.75, 0.6, 0.6))
SAMPLE_BOX = ((2.5, -0.2, -0.2), (5.5, 0.2, 0.2))
W_CALLS = 1000
RESIDUAL_CALLS = 150


def _radical_inverse(index: int, base: int) -> float:
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


def halton(box, start: int, n: int):
    lo, hi = box
    return [fields.Point3(*(lo[k] + (hi[k] - lo[k]) * _radical_inverse(i, b)
                            for k, b in enumerate((2, 3, 5))))
            for i in range(start, start + n)]


class WEval:
    """Evaluate a W built through B: ``W(p)`` calls and Vekua residuals."""

    def __init__(self, seed: int, workdir: Path):
        self.phi = fields.ScalarField(lambda p: 1.0 + 0j)
        W0 = fields.ScalarField(lambda p: complex(p.x))
        region = fields.BoxDomain.box(*TUBE)
        self.W = riccati.build_W_from_W0(W0, self.phi, None, region, cells=(60, 12, 12))
        self.W(fields.Point3(4.0, 0.0, 0.0))  # forces the lazy B grid build
        pts = halton(SAMPLE_BOX, 1 + 1153 * seed, W_CALLS + RESIDUAL_CALLS)
        self.eval_pts, self.residual_pts = pts[:W_CALLS], pts[W_CALLS:]

    def run(self):
        values, eval_ms, residuals, residual_ms = [], [], [], []
        for p in self.eval_pts:
            start = time.perf_counter()
            values.append(self.W(p))
            eval_ms.append((time.perf_counter() - start) * 1e3)
        for p in self.residual_pts:
            start = time.perf_counter()
            residuals.append(riccati.vekua_residual(self.W, self.phi, p))
            residual_ms.append((time.perf_counter() - start) * 1e3)
        return values, eval_ms, residuals, residual_ms

    def check(self, outputs) -> Pass:
        values, eval_ms, residuals, residual_ms = outputs
        result = Pass()
        for p, w in zip(self.eval_pts, values):
            # W0 = x exactly: the scalar part does not go through B
            ok = w.scalar == p.x and all(map(np.isfinite, w.vector))
            result.op(ok, f"W{tuple(p)} = {w!r}")
        for p, r in zip(self.residual_pts, residuals):
            r = r.max_abs()
            result.op(r <= VEKUA_TOL, f"vekua residual {r:.3e} > {VEKUA_TOL} at {tuple(p)}")
        result.data = {"eval_ms": eval_ms, "residual_ms": residual_ms}
        return result


WORKLOADS = {"verify-all": VerifyAll, "grid-export": GridExport, "w-eval": WEval}
# typical pass seconds on a 2-core machine; the pass count depends only on
# --seconds, so a slow moment on the machine does not change the work done
PASS_S = {"verify-all": 25.0, "grid-export": 12.0, "w-eval": 5.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    try:
        return run(args)
    finally:
        SAMPLER.stop()


def run(args) -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(riccati3d.__file__).resolve().parent.parent != src:
        print(f"error: riccati3d imported from {riccati3d.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"setup": SAMPLER.span(_START, time.perf_counter())}
    if args.mode != "setup":
        count = 1
        if args.mode == "run":
            count = max(1, round(args.seconds / PASS_S[args.workload]))
        passes, pieces = [], []
        for _ in range(count):  # checking a pass's outputs is not timed
            start = time.perf_counter()
            outputs = workload.run()
            pieces.append(SAMPLER.span(start, time.perf_counter()))
            passes.append(workload.check(outputs))
        result.update(
            passes=pieces,
            attempted=sum(p.attempted for p in passes),
            failures=[f for p in passes for f in p.failures],
            problems=[f for p in passes for f in p.problems],
            data=passes[0].data,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            machine={"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                     "numpy": np.__version__},
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
