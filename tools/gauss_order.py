"""Choose operator A's default Gauss order from measured quadrature drift.

The rule: take each candidate order n of ``LADDER`` in turn and run the
suites whose rows read operator A (``SUITES``) at order n and at order 2n,
for seeds 0 to 99 (``SEEDS``).  A row's drift at a seed is ``|reading(n) -
reading(2n)|``, its ``max_abs_residual`` at the two orders.  The default is
the smallest n at which every row passes at every seed and every row's
drift stays at or below ``DRIFT_SHARE`` of that row's tolerance at every
seed.  Doubling the order of a Gauss rule that has converged geometrically
leaves the error at 2n far below that at n, so the drift estimates the
quadrature error at n (the paired-order estimate of Gander and Gautschi,
"Adaptive quadrature - revisited", BIT 40, 2000).  Timings play no part.

Run from anywhere (about 3.5 minutes on 2 cores):

    python tools/gauss_order.py

It prints a markdown table with one line per row whose reading moves with
the order: the largest drift over the seeds as a share of the row's
tolerance, and the seed where it was found.  Under the table it prints
which orders the rule accepts and the order it picks.  pytest does not
collect it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from riccati3d.fields import QuadratureSpec  # noqa: E402
from riccati3d.report import RunConfig  # noqa: E402
from riccati3d.verify import run_suite  # noqa: E402

LADDER = (8, 10, 12, 16, 20, 24, 32)
SUITES = ("operators", "riccati", "euler_picard")
DRIFT_SHARE = 1e-3
SEEDS = 100  # seeds 0 to 99


def readings(order: int) -> dict:
    """{row name: [(reading, tolerance, passed) per seed]} at this Gauss order."""
    rows: dict = {}
    for seed in range(SEEDS):
        for suite in SUITES:
            for c in run_suite(suite, RunConfig(seed=seed, gauss_order=order)).checks:
                rows.setdefault(f"{suite}/{c.name}", []).append(
                    (c.max_abs_residual, c.tolerance, c.passed))
    return rows


def sweep():
    """Per candidate order: the worst drift share and its seed per row, and
    the first (row, seed) that fails at that order, or None."""
    cache: dict = {}

    def at(order):
        if order not in cache:
            print(f"order {order}", file=sys.stderr, flush=True)
            cache[order] = readings(order)
        return cache[order]

    table = {}
    for n in LADDER:
        low, high = at(n), at(2 * n)
        worst, failing = {}, None
        for name, seq in low.items():
            shares = [abs(r - r2) / tol for (r, tol, _), (r2, _, _) in zip(seq, high[name])]
            seed = max(range(SEEDS), key=shares.__getitem__)
            worst[name] = (shares[seed], seed)
            bad = [s for s, (_, _, passed) in enumerate(seq) if not passed]
            if bad and failing is None:
                failing = (name, bad[0])
        table[n] = (worst, failing)
    return table


def render(table) -> str:
    names = [name for name in next(iter(table.values()))[0]
             if any(worst[name][0] > 0 for worst, _ in table.values())]
    lines = ["| row | " + " | ".join(f"n = {n}" for n in LADDER) + " |",
             "|---|" + "---:|" * len(LADDER)]
    for name in names:
        cells = [f"{table[n][0][name][0]:.1e} (s{table[n][0][name][1]})" for n in LADDER]
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    cells = []
    for n in LADDER:
        failing = table[n][1]
        cells.append("yes" if failing is None else f"no: `{failing[0]}` at s{failing[1]}")
    lines.append("| every row passes | " + " | ".join(cells) + " |")
    accepted = [n for n in LADDER if table[n][1] is None
                and all(share <= DRIFT_SHARE for share, _ in table[n][0].values())]
    lines += ["", f"Drift |reading(n) - reading(2n)| / tolerance, worst over seeds 0-{SEEDS - 1} "
              f"(sK: at seed K).  Accepted (every row passes, every drift <= "
              f"{DRIFT_SHARE:g}): {', '.join(map(str, accepted)) or 'none'}.  "
              f"The rule picks {accepted[0] if accepted else 'no order'}; "
              f"the default is {QuadratureSpec().gauss_order}."]
    return "\n".join(lines)


def main() -> int:
    print(render(sweep()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
