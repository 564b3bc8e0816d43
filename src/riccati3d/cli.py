"""Command-line verification harness and grid exporter.

Subcommands:
  verify     run a check suite, print the report table, exit 0/1/2
  eval       evaluate a cataloged solution on a grid, write CSV or JSON
  transform  transport a solution with a symmetry group element and export
             it together with the transport-vs-pushforward discrepancy

Exit codes: 0 all checks pass, 1 check failure / discrepancy, 2 usage or
configuration error.  Reports are deterministic given (config, seed) except
for the seconds timing fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, PoleError, Riccati3dError, ZeroCrossing
from .fields import DiffScheme, Point3
from .report import RunConfig
from .riccati import (
    RiccatiInstance,
    SchrodingerInstance,
    riccati_residual,
    schrodinger_residual,
)
from .solutions import CatalogEntry, catalog_entry, HARMONIC_IDS
from .symmetry import GroupElement, pushforward_solution, transport_solution
from .verify import SUITES, run_suite

_AXIS_TOL = 1e-14


def _parse_config_file(path: str) -> dict:
    """Flat key=value text; '#' starts a comment; tol.NAME sets an override."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            values[key] = val
    return values


_INT_KEYS = {"order", "gauss_order", "volume_grid", "build_grid", "seed",
             "samples"}
_FLOAT_KEYS = {"h", "line_tol", "margin"}
_STR_KEYS = {"line_rule"}


def _build_config(args) -> RunConfig:
    raw: dict = {}
    tolerances: dict = {}
    if getattr(args, "config", None):
        for key, val in _parse_config_file(args.config).items():
            if key.startswith("tol."):
                tolerances[key[4:]] = float(val)
            elif key in _INT_KEYS:
                raw[key] = int(val)
            elif key in _FLOAT_KEYS:
                raw[key] = float(val)
            elif key in _STR_KEYS:
                raw[key] = val
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in _INT_KEYS | _FLOAT_KEYS | _STR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag
    for item in getattr(args, "tol", None) or []:
        if "=" not in item:
            raise ConfigError(f"--tol expects NAME=VALUE, got {item!r}")
        name, val = item.split("=", 1)
        tolerances[name.strip()] = float(val)
    raw["tolerances"] = tolerances
    return RunConfig(**raw)


def cmd_verify(args) -> int:
    config = _build_config(args)
    report = run_suite(args.suite, config)
    print(report.format_table())
    if args.report:
        report.write(args.report)
    return 0 if report.overall_pass else 1


# --------------------------------------------------------------------------
# grid export

def _parse_grid(text: str):
    parts = text.split(",")
    if len(parts) != 9:
        raise ConfigError("--grid expects x0,x1,nx,y0,y1,ny,z0,z1,nz")
    axes = []
    for i in range(3):
        text_axis = parts[3 * i:3 * i + 3]
        try:
            lo, hi, n = float(text_axis[0]), float(text_axis[1]), int(text_axis[2])
            ok = math.isfinite(lo) and math.isfinite(hi) and lo <= hi and n >= 1
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"bad grid axis {i}: {','.join(text_axis)} (expected "
                              "finite bounds lo <= hi and an integer count >= 1)")
        axes.append(np.linspace(lo, hi, n) if n > 1 else np.array([lo]))
    return axes


def _entry_from_args(args) -> CatalogEntry:
    params = {}
    for name in ("k", "c", "C", "C1", "C2"):
        val = getattr(args, name, None)
        if val is not None:
            params[name] = val
    return catalog_entry(args.solution, margin=args.margin, **params)


def _grid_points(axes) -> List[Point3]:
    return [Point3(float(x), float(y), float(z))
            for x in axes[0] for y in axes[1] for z in axes[2]]


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else repr(float(value))


def _write_rows(path: str, fmt: str, header: Sequence[str], rows: List[dict]) -> None:
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row.get(col)) if col != "masked"
                                 else str(row["masked"]) for col in header])
    else:
        records = []
        for row in rows:
            rec = {}
            for col in header:
                if col == "masked":
                    rec[col] = row["masked"]
                else:
                    val = row.get(col)
                    rec[col] = None if val is None else float(val)
            records.append(rec)
        with open(path, "w") as fh:
            json.dump(records, fh, indent=2)
            fh.write("\n")


def _quantity_columns(fields: Sequence[str], entry: CatalogEntry) -> List[str]:
    names: List[str] = []
    if "Q" in fields:
        names += ["u", "v", "w"]
    if "q" in fields:
        names += ["q"]
    if "psi" in fields:
        names += ["psi"]
    if "residuals" in fields:
        names += ["resid_sc", "resid_v1", "resid_v2", "resid_v3"]
        if "psi" in fields and entry.psi is not None:
            names += ["resid_psi"]
    return names


def cmd_eval(args) -> int:
    entry = _entry_from_args(args)
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    unknown = set(fields) - {"Q", "q", "psi", "residuals"}
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)}")
    if "psi" in fields and entry.psi is None:
        raise ConfigError(f"{entry.name} has no Schrodinger partner psi")
    axes = _parse_grid(args.grid)
    dom = entry.instance.Q.domain
    corners = [Point3(x, y, z) for x in (axes[0][0], axes[0][-1])
               for y in (axes[1][0], axes[1][-1])
               for z in (axes[2][0], axes[2][-1])]
    if not all(dom.in_box(c) for c in corners):
        raise ConfigError("grid extends outside the solution's domain box")

    scheme = DiffScheme(h=args.h if args.h is not None else 1e-3)
    quantities = _quantity_columns(fields, entry)
    header = ["x", "y", "z", "masked"]
    for name in quantities:
        header += [f"Re_{name}", f"Im_{name}"]

    pts = _grid_points(axes)
    rows = []
    n_masked = 0
    for p in pts:
        row: dict = {"x": p.x, "y": p.y, "z": p.z, "masked": 0}
        if not dom.ok(p):
            row["masked"] = 1
        else:
            try:
                values: dict = {}
                if "Q" in fields:
                    qv = entry.instance.Q(p)
                    values.update(u=qv[0], v=qv[1], w=qv[2])
                if "q" in fields:
                    values["q"] = entry.instance.q(p)
                if "psi" in fields:
                    values["psi"] = entry.psi(p)
                if "residuals" in fields:
                    sc, vec = riccati_residual(entry.instance, p, scheme)
                    values.update(resid_sc=sc, resid_v1=vec[0],
                                  resid_v2=vec[1], resid_v3=vec[2])
                    if "psi" in fields and entry.psi is not None:
                        values["resid_psi"] = schrodinger_residual(
                            SchrodingerInstance(entry.psi, entry.instance.q),
                            p, scheme)
                for name, val in values.items():
                    val = complex(val)
                    row[f"Re_{name}"] = val.real
                    row[f"Im_{name}"] = val.imag
            except (DomainError, ZeroCrossing, PoleError):
                # masked rows carry empty cells for every quantity column
                row["masked"] = 1
                for name in quantities:
                    row.pop(f"Re_{name}", None)
                    row.pop(f"Im_{name}", None)
        n_masked += row["masked"]
        rows.append(row)
    if n_masked == len(rows):
        raise ConfigError("every grid point is masked; grid misses the domain")
    _write_rows(args.out, args.format, header, rows)
    print(f"wrote {len(rows)} rows ({n_masked} masked) to {args.out}")
    return 0


def cmd_transform(args) -> int:
    entry = _entry_from_args(args)
    g = GroupElement(args.group, getattr(args, "lambda"))
    if g.k not in entry.groups:
        raise ConfigError(
            f"group G_{g.k} is not compatible with the potential family of "
            f"{entry.name} (compatible: {sorted(entry.groups)})")
    axes = _parse_grid(args.grid)
    moved = transport_solution(g, entry.instance.Q)
    oracle = pushforward_solution(g, entry.instance.Q)
    moved_inst = RiccatiInstance(moved, entry.instance.q)
    scheme = DiffScheme()

    names = ["u", "v", "w", "resid_sc", "resid_v1", "resid_v2", "resid_v3",
             "discrepancy"]
    header = ["x", "y", "z", "masked"]
    for name in names:
        header += [f"Re_{name}", f"Im_{name}"]
    rows = []
    worst = 0.0
    flagged_axis = {8: (1, 2), 9: (0, 2), 10: (0, 1)}.get(g.k)
    for p in _grid_points(axes):
        row: dict = {"x": p.x, "y": p.y, "z": p.z, "masked": 0}
        try:
            tv = moved(p)
            ov = oracle(p)
            disc = float(np.max(np.abs(tv - ov)))
            sc, vec = riccati_residual(moved_inst, p, scheme)
            for name, val in (("u", tv[0]), ("v", tv[1]), ("w", tv[2]),
                              ("resid_sc", sc), ("resid_v1", vec[0]),
                              ("resid_v2", vec[1]), ("resid_v3", vec[2]),
                              ("discrepancy", disc)):
                val = complex(val)
                row[f"Re_{name}"] = val.real
                row[f"Im_{name}"] = val.imag
            flagged = False
            if flagged_axis is not None:
                c = np.asarray(p)
                flagged = (c[flagged_axis[0]] ** 2 + c[flagged_axis[1]] ** 2
                           <= _AXIS_TOL)
            if not flagged:
                worst = max(worst, disc)
        except (DomainError, ZeroCrossing, PoleError, ZeroDivisionError):
            row["masked"] = 1
            for name in names:
                row.pop(f"Re_{name}", None)
                row.pop(f"Im_{name}", None)
        rows.append(row)
    if all(row["masked"] for row in rows):
        raise ConfigError("every grid point is masked; grid misses the domain")
    _write_rows(args.out, args.format, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}; "
          f"max |transport - pushforward| = {worst:.3e}")
    return 1 if worst > 1e-6 else 0


# --------------------------------------------------------------------------

def _add_config_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--samples", type=int, default=None)
    sub.add_argument("--h", type=float, default=None, help="relative FD step")
    sub.add_argument("--order", type=int, default=None, choices=(2, 4))
    sub.add_argument("--line-rule", dest="line_rule", default=None,
                     choices=("adaptive_simpson", "gauss"))
    sub.add_argument("--line-tol", dest="line_tol", type=float, default=None)
    sub.add_argument("--gauss-order", dest="gauss_order", type=int, default=None)
    sub.add_argument("--volume-grid", dest="volume_grid", type=int, default=None)
    sub.add_argument("--build-grid", dest="build_grid", type=int, default=None)
    sub.add_argument("--margin", type=float, default=None)


def _add_solution_flags(sub):
    sub.add_argument("--solution", required=True,
                     help="rotational | conical | harmonic:<id> with ids "
                          f"{', '.join(HARMONIC_IDS)}")
    sub.add_argument("--k", type=float, default=None)
    sub.add_argument("--c", type=float, default=None)
    sub.add_argument("--C", type=float, default=None)
    sub.add_argument("--C1", type=float, default=None)
    sub.add_argument("--C2", type=float, default=None)
    sub.add_argument("--margin", type=float, default=0.1)
    # evaluation is deterministic; the seed is accepted for interface
    # uniformity with verify and echoed nowhere
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--grid", required=True,
                     help="x0,x1,nx,y0,y1,ny,z0,z1,nz")
    sub.add_argument("--out", required=True)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccati3d",
        description="Verification harness for the spatial Riccati equation "
                    "toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    v = subs.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="all", choices=SUITES + ("all",))
    v.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override one check tolerance (repeatable)")
    v.add_argument("--report", help="also write the report as JSON here")
    _add_config_flags(v)
    v.set_defaults(fn=cmd_verify)

    e = subs.add_parser("eval", help="evaluate a solution on a grid")
    _add_solution_flags(e)
    e.add_argument("--fields", default="Q,q",
                   help="comma subset of Q,q,psi,residuals")
    e.add_argument("--h", type=float, default=None, help="relative FD step")
    e.set_defaults(fn=cmd_eval)

    t = subs.add_parser("transform", help="transport a solution with G_k")
    _add_solution_flags(t)
    t.add_argument("--group", type=int, required=True, choices=range(1, 11),
                   metavar="K")
    t.add_argument("--lambda", type=float, required=True, dest="lambda")
    t.set_defaults(fn=cmd_transform)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Riccati3dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
