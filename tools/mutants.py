"""Seeded mutants: which registry rows and which tier-1 tests see each defect.

Each mutant is one textual edit of ``src/``, given as (label, file, old, new);
``old`` must occur exactly once in the file.  For each mutant (and once
unmutated, as the baseline) the script copies ``src/``, ``tests/``,
``perfbench/`` and ``pyproject.toml`` to a temporary directory, applies
the edit there, runs ``riccati3d verify --suite all --report`` at seeds 0
and 1 and tier-1 (pytest over ``tests/``), and records the failing rows
and tests.  The results go to ``MUTANTS.md`` at the root of the
repository.  The working tree is never edited.

Run from anywhere (about 20 to 40 s per mutant on 2 cores):

    python tools/mutants.py

It needs nothing beyond the test dependencies, and pytest does not collect
it.  A mutant may change values without breaking any claim (a Gauss rule of
a quarter of the order may still be accurate enough); the table then shows
no kill, which is a finding about the checks or the mutant, not a defect.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from riccati3d.fields import QuadratureSpec  # noqa: E402

GAUSS = QuadratureSpec().gauss_order
SEEDS = (0, 1)
TIMEOUT_S = 1800  # per command; a mutant that hangs is recorded as such

MUTANTS = [
    ("`_d1` order 4 -> 2", "src/riccati3d/fields.py",
     "return (fm2 - f2 + (f1 - fm1) * 8.0) * (1.0 / (12.0 * h))",
     "return (f1 - fm1) * (0.5 / h)"),
    ("`_d1` weight 8 -> 8.001", "src/riccati3d/fields.py",
     "(f1 - fm1) * 8.0)", "(f1 - fm1) * 8.001)"),
    ("`_d2` order 4 -> 2", "src/riccati3d/fields.py",
     "return ((f1 + fm1) * 16.0 - (f2 + fm2) - f0 * 30.0) * (1.0 / (12.0 * h * h))",
     "return (f1 + fm1 - f0 * 2.0) * (1.0 / (h * h))"),
    ("biquaternion product, one sign in the `e3` cross term", "src/riccati3d/biquat.py",
     "a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1", "a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1"),
    ("`vhat_apply`: drop `a1 * dil` from `phi`", "src/riccati3d/symmetry.py",
     "phi = (a.a1 * dil + 2 * a.a2", "phi = (2 * a.a2"),
    ("`vhat_apply`: flip the sign of `a2 * dil` in `psi`", "src/riccati3d/symmetry.py",
     "+ a.a2 * dil - 2 * a.a3", "- a.a2 * dil - 2 * a.a3"),
    ("near-cell polynomial of `_blob_kernel_grad` x 100/105", "src/riccati3d/fields.py",
     "(105.0 / (16.0 * np.pi * a ** 3))", "(100.0 / (16.0 * np.pi * a ** 3))"),
    ("near-cell polynomial of `_blob_kernel` (`operator_B`) x 100/105",
     "src/riccati3d/fields.py",
     "(105.0 / (32.0 * np.pi * a))", "(100.0 / (32.0 * np.pi * a))"),
    (f"every Gauss rule at a quarter of its order (the default {GAUSS} -> {GAUSS // 4})",
     "src/riccati3d/fields.py",
     "nodes, weights = _gauss_nodes(order)",
     "nodes, weights = _gauss_nodes(max(1, order // 4))"),
    ("`_rk4_step`: `k4` at `x` instead of `x + h`", "src/riccati3d/riccati1d.py",
     "k4 = f(x + h, y + h * k3)", "k4 = f(x, y + h * k3)"),
    ("pull-back maps forward (`_act(g, ...)` for `_act(g.inverse(), ...)`)",
     "src/riccati3d/symmetry.py",
     "_act(g.inverse(), X, np.zeros_like(X))", "_act(g, X, np.zeros_like(X))"),
    ("`_conical_act` on the axis: `1 - x*lambda` with `x*lambda` x 1.01",
     "src/riccati3d/symmetry.py",
     "    d = 1.0 - xa * lam\n", "    d = 1.0 - xa * lam * 1.01\n"),
    ("reconciled conical transport on the axis: `1 + x*lambda` with `x*lambda` x 1.01",
     "src/riccati3d/symmetry.py",
     "1.0 + xa * lam)", "1.0 + xa * lam * 1.01)"),
    ("translations not additive in lambda (shift by `lam * (1 + 1e-3 * lam)`)",
     "src/riccati3d/symmetry.py",
     "image[k - 1] += lam\n", "image[k - 1] += lam * (1 + 1e-3 * lam)\n"),
    ("`_conical_act` off the axis: `r2 * lam * lam` in alpha x 1.01",
     "src/riccati3d/symmetry.py",
     "a = r2 * lam * lam - 2.0", "a = r2 * lam * lam * 1.01 - 2.0"),
    ("`operator_A` keys a y-leg by y alone (a y-leg group starts only where y changes)",
     "src/riccati3d/fields.py",
     "np.logical_or.accumulate(key[1:] != key[:-1], axis=1, out=new[1:])",
     "np.not_equal(key[1:], key[:-1], out=new[1:])"),
    ("`operator_A` keeps an x-group's first target in (x, y) order, not in C order",
     "src/riccati3d/fields.py",
     "np.minimum.reduceat(order, np.flatnonzero(new[:, m]))",
     "order[np.flatnonzero(new[:, m])]"),
    ("`operator_A` checks a leg's path at its Gauss nodes only, not at order 32's",
     "src/riccati3d/fields.py",
     "if quad.gauss_order < _PATH_CHECK_ORDER:", "if False:"),
    ("guard rule names the last failing point", "src/riccati3d/errors.py",
     "(i := _first(bad)) is not None:\n",
     "(i := _first(bad)) is not None:\n"
     "        i = int(np.flatnonzero(bad)[-1]) if type(bad) is np.ndarray else i\n"),
]

_VERIFY = "import sys; from riccati3d.cli import main; sys.exit(main(sys.argv[1:]))"
# a node id runs to pytest's " - " before the message (parametrized ids may hold spaces)
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")
_SECONDS = re.compile(r" in [0-9.]+s.*$")  # pytest's timing, left out of the table


def _run(cmd, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    try:
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, None, "", f"timed out after {TIMEOUT_S} s")


def _last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else ""


def _failing_rows(work: Path, seed: int):
    """The names of the rows that fail at this seed, or a string saying why
    there is no report."""
    report = work / f"verify-{seed}.json"
    proc = _run([sys.executable, "-c", _VERIFY, "verify", "--suite", "all",
                 "--seed", str(seed), "--report", str(report)], work)
    if not report.exists():
        return f"no report (exit {proc.returncode}: {_last_line(proc.stderr)})"
    checks = json.loads(report.read_text())["checks"]
    return [c["name"] for c in checks if not c["passed"]]


def _failing_tests(work: Path):
    """The ids of the tier-1 tests that fail or error, and pytest's summary line."""
    proc = _run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                 "tests"], work)
    ids = [m.group(1) for line in proc.stdout.splitlines() if (m := _FAILED.match(line))]
    summary = _last_line(proc.stdout) if proc.returncode is not None else proc.stderr
    return sorted(set(ids)), _SECONDS.sub("", summary.strip("= "))


def run_mutant(file: str | None, old: str | None, new: str | None) -> dict:
    """Rows per seed and failing tests with one edit applied (none if file is None)."""
    with tempfile.TemporaryDirectory(prefix="riccati3d-mutant-") as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "perfbench"):  # tests/test_trace.py runs perfbench
            shutil.copytree(ROOT / name, work / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        if file is not None:
            target = work / file
            text = target.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"mutant text occurs {text.count(old)} times in {file}: "
                                 f"{old!r}")
            target.write_text(text.replace(old, new))
        rows = {seed: _failing_rows(work, seed) for seed in SEEDS}
        tests, summary = _failing_tests(work)
    return {"rows": rows, "tests": tests, "summary": summary}


def _names(items) -> str:
    if isinstance(items, str):
        return items
    return ", ".join(f"`{name}`" for name in items) or "none"


def _count(items) -> str:
    return "-" if isinstance(items, str) else str(len(items))


def render(results) -> str:
    seeds = " | ".join(f"rows failing (seed {s})" for s in SEEDS)
    lines = [
        "# Seeded mutants",
        "",
        "Written by `python tools/mutants.py`; do not edit by hand.  Each mutant is",
        "one textual edit of `src/` (listed in `tools/mutants.py`), applied to a copy",
        "of the sources.  For each, `riccati3d verify --suite all` ran at seeds "
        + " and ".join(map(str, SEEDS)) + " and",
        "tier-1 (pytest over `tests/`) ran once.  A mutant is killed when a row or a",
        "test fails.",
        "",
        f"| mutant | {seeds} | tests failing | killed |",
        "|---|" + "---|" * len(SEEDS) + "---|---|",
    ]
    for label, res in results:
        killed = any(res["rows"].values()) or res["tests"]  # a crash (no report) kills
        counts = " | ".join(_count(res["rows"][s]) for s in SEEDS)
        lines.append(f"| {label} | {counts} | {len(res['tests'])} | "
                     f"{'yes' if killed else 'no'} |")
    lines += ["", "## Rows and tests per mutant", ""]
    for label, res in results:
        lines += [f"### {label}", ""]
        for s in SEEDS:
            lines.append(f"- Rows failing at seed {s}: {_names(res['rows'][s])}.")
        lines.append(f"- Tests failing: {_names(res['tests'])}.")
        lines.append(f"- pytest: {res['summary']}.")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    jobs = [("none (the unmutated sources)", None, None, None)] + MUTANTS
    results = []
    for label, file, old, new in jobs:
        print(f"mutant: {label}", file=sys.stderr, flush=True)
        results.append((label, run_mutant(file, old, new)))
    (ROOT / "MUTANTS.md").write_text(render(results))
    print(f"wrote {ROOT / 'MUTANTS.md'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
