"""Slack table: how close each registry row comes to its tolerance.

Runs ``verify --suite all`` in process at each seed of ``SEEDS`` (0 to 99)
and writes ``MARGINS.md`` at the root of the repository.  For each row it
gives the worst reading as a share of the row's tolerance (``residual /
tolerance``) and the seed where it was found, closest row first.  For each
``_detection`` row, which passes when its reading exceeds its threshold, it
gives the smallest fold (``reading / threshold``) and its seed.  Each row
draws its samples from the seed and its own name only, so any line of the
table is reproduced by ``riccati3d verify --suite all --seed N``.

Run from anywhere (about 20 s on 2 cores):

    python tools/margins.py

It exits 1 when a row fails at some seed, after writing the table with the
failures listed.  pytest does not collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from riccati3d.report import RunConfig  # noqa: E402
from riccati3d.verify import _DETECTION_SUFFIX, run_suite  # noqa: E402

SEEDS = range(100)


def sweep() -> tuple:
    """{row: (worst share or fold, its seed, reading, tolerance)} for the
    identity rows and for the detection rows, and every failing (row, seed)."""
    rows, detections, failures = {}, {}, []
    for seed in SEEDS:
        print(f"seed {seed}", file=sys.stderr, flush=True)
        for c in run_suite("all", RunConfig(seed=seed)).checks:
            if not c.passed:
                failures.append((c.name, seed))
            if c.name.endswith(_DETECTION_SUFFIX):
                fold = c.max_abs_residual / c.tolerance
                if c.name not in detections or fold < detections[c.name][0]:
                    detections[c.name] = (fold, seed, c.max_abs_residual, c.tolerance)
            else:
                share = c.max_abs_residual / c.tolerance if c.tolerance else (
                    0.0 if c.max_abs_residual == 0 else float("inf"))
                if c.name not in rows or share > rows[c.name][0]:
                    rows[c.name] = (share, seed, c.max_abs_residual, c.tolerance)
    return rows, detections, failures


def table(rows, detections, failures) -> str:
    lines = [
        "# Margins of the registry rows over seeds 0-99",
        "",
        "Written by `python tools/margins.py` (default configuration, "
        f"{len(SEEDS)} seeds).  A share is a row's worst `residual / tolerance`; "
        "a fold is a `_detection` row's smallest `reading / threshold`.",
        "",
        "| row | tolerance | worst residual | share of tolerance | seed |",
        "|---|---|---|---|---|",
    ]
    for name, (share, seed, value, tol) in sorted(rows.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"| `{name}` | {tol:.0e} | {value:.3e} | {share:.3g} | {seed} |")
    lines += ["", "| detection row | threshold | smallest reading | fold | seed |",
              "|---|---|---|---|---|"]
    for name, (fold, seed, value, tol) in sorted(detections.items(), key=lambda kv: kv[1][0]):
        lines.append(f"| `{name}` | {tol:.0e} | {value:.4g} | {fold:.3g} | {seed} |")
    lines.append("")
    if failures:
        lines.append("Failures (row, seed): "
                     + ", ".join(f"`{name}` {seed}" for name, seed in failures) + ".")
    else:
        lines.append(f"Every row passes at every seed from {SEEDS[0]} to {SEEDS[-1]}.")
    return "\n".join(lines) + "\n"


def main() -> int:
    rows, detections, failures = sweep()
    (ROOT / "MARGINS.md").write_text(table(rows, detections, failures))
    print(f"wrote MARGINS.md: {len(rows)} rows, {len(detections)} detection rows, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
