"""Command-line verification harness and grid exporter.

Subcommands:
  verify     run a check suite, print the report table, exit 0/1/2
  eval       evaluate a cataloged solution on a grid, write CSV or JSON
  transform  transport a solution with a symmetry group element and export
             it together with the transport-vs-pushforward discrepancy

CSV cells are ``repr`` of each value, formatted once per distinct bit
pattern of a column and gathered back to the rows: the bytes are those of
formatting each cell.

Exit codes: 0 all checks pass, 1 check failure / discrepancy, 2 usage or
configuration error, or a path that cannot be read or written.  Reports are
deterministic given (config, seed) except for the seconds timing fields.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, PoleError, Riccati3dError, ZeroCrossing
from .fields import DiffScheme, Point3
from .report import RunConfig
from .riccati import RiccatiInstance, _centre_and_residual, _schrodinger_centre
from .solutions import CatalogEntry, catalog_entry, HARMONIC_IDS
from .symmetry import _AXIS_TOL, GroupElement, pushforward_solution, transport_solution
from .verify import SUITES, run_suite


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


# the settings a flag or a config key gives, each parsed as the type of its
# RunConfig default; the tolerances come from --tol and tol.NAME keys
_KEYS = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)
         if f.default is not dataclasses.MISSING}


def _build_config(args) -> RunConfig:
    raw: dict = {}
    tolerances: dict = {}
    if getattr(args, "config", None):
        for key, val in _parse_config_file(args.config).items():
            if key.startswith("tol."):
                tolerances[key[4:]] = float(val)
            elif key in _KEYS:
                raw[key] = _KEYS[key](val)
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in _KEYS:
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


def _repr_column(col: np.ndarray) -> np.ndarray:
    """``repr`` of each value of a float64 or int64 column, as an object
    array of str.  ``repr`` runs once per distinct bit pattern, so that
    ``0.0`` and ``-0.0`` stay apart, and the strings are gathered back."""
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(col.dtype).tolist())), dtype=object)[inverse]


def _write_rows(path: str, fmt: str, grid: Sequence[np.ndarray], masked: np.ndarray,
               values: dict) -> None:
    """Columns x, y, z, masked, then Re_ and Im_ of each quantity in
    ``values``, empty (CSV) or null (JSON) in the masked rows."""
    header = ["x", "y", "z", "masked"]
    columns = [*grid, masked.astype(np.int64)]
    for name, val in values.items():
        header += [f"Re_{name}", f"Im_{name}"]
        columns += [val.real, val.imag]
    if fmt == "csv":
        columns, blank = [_repr_column(col) for col in columns], ""
    else:
        columns, blank = [col.astype(object) for col in columns], None
    for col in columns[4:]:
        col[masked] = blank
    columns = [col.tolist() for col in columns]
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(header) + "\n")
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))
        else:
            json.dump([dict(zip(header, row)) for row in zip(*columns)], fh, indent=2)
            fh.write("\n")


_EVAL_CHUNK = 1024  # grid rows per batch: bounds the batch's scratch memory


def _export(args, evaluate: Callable[[Point3], dict],
            ok_mask: Optional[Callable[[Point3], np.ndarray]] = None):
    """Evaluate quantities on the grid of ``args`` and write the export;
    return the grid, the masked rows and the quantity columns.

    Rows go in batches of ``_EVAL_CHUNK``, in C order.  ``ok_mask`` masks
    rows up front; ``evaluate`` maps a batch of points to one array per
    quantity, in column order, and each column is allocated when it first
    appears.  A typed error masks every row it names (``where``, else
    ``index``) and the rest of the batch is evaluated again, so a batch is
    retried once per failing check rather than once per failing row.
    """
    grid = [c.ravel() for c in np.meshgrid(*_parse_grid(args.grid), indexing="ij")]
    masked = np.ones(grid[0].size, dtype=bool)
    values: dict = {}
    for start in range(0, masked.size, _EVAL_CHUNK):
        P = Point3(*(c[start:start + _EVAL_CHUNK] for c in grid))
        todo = np.flatnonzero(ok_mask(P)) if ok_mask else np.arange(P.x.size)
        batch: dict = {}
        while todo.size:
            try:
                batch = evaluate(Point3(*(c[todo] for c in P)))
                break
            except (DomainError, ZeroCrossing, PoleError) as exc:
                if exc.index is None:
                    raise
                bad = np.zeros(todo.size, dtype=bool)
                bad[exc.index] = True
                if exc.where is not None:
                    bad |= exc.where.ravel()
            todo = todo[~bad]
        rows = start + todo
        masked[rows] = False
        for name, val in batch.items():
            if name not in values:
                values[name] = np.zeros(grid[0].size, dtype=complex)
            values[name][rows] = val
    if masked.all():
        raise ConfigError("every grid point is masked; grid misses the domain")
    _write_rows(args.out, args.format, grid, masked, values)
    return grid, masked, values


def _eval_batch(entry: CatalogEntry, fields: Sequence[str], P: Point3,
                scheme: DiffScheme) -> dict:
    """Quantity name -> complex array over a batch P of grid points, in the
    export's column order: u, v, w, q, psi, then the residuals.  The
    residuals are computed first: their stencil check raises before anything
    is evaluated, and they hand on Q, q and psi at P."""
    inst = entry.instance
    values: dict = {}
    resid: dict = {}
    Q = q = psi = None
    if "residuals" in fields:
        Q, q, sc, vec = _centre_and_residual(inst, P, scheme)
        resid.update(resid_sc=sc, resid_v1=vec[0], resid_v2=vec[1], resid_v3=vec[2])
        if "psi" in fields:
            psi, resid["resid_psi"] = _schrodinger_centre(entry.schrodinger(), P, scheme, q)
    if "Q" in fields:
        values.update(zip("uvw", inst.Q.batch(P) if Q is None else Q))
    if "q" in fields:
        values["q"] = inst.q.batch(P) if q is None else q
    if "psi" in fields:
        values["psi"] = entry.psi.batch(P) if psi is None else psi
    return {**values, **resid}


def cmd_eval(args) -> int:
    entry = _entry_from_args(args)
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    unknown = set(fields) - {"Q", "q", "psi", "residuals"}
    if unknown:
        raise ConfigError(f"unknown fields {sorted(unknown)}")
    if "psi" in fields and entry.psi is None:
        raise ConfigError(f"{entry.name} has no Schrodinger partner psi")
    scheme = DiffScheme(h=args.h if args.h is not None else 1e-3)
    # a row is masked where its point is off Q's domain or an evaluator raises
    _, masked, _ = _export(args, lambda P: _eval_batch(entry, fields, P, scheme),
                           entry.instance.Q.domain.ok_mask)
    print(f"wrote {masked.size} rows ({int(masked.sum())} masked) to {args.out}")
    return 0


def cmd_transform(args) -> int:
    entry = _entry_from_args(args)
    g = GroupElement(args.group, getattr(args, "lambda"))
    if g.k not in entry.groups:
        raise ConfigError(
            f"group G_{g.k} is not compatible with the potential family of "
            f"{entry.name} (compatible: {sorted(entry.groups)})")
    moved = transport_solution(g, entry.instance.Q)
    oracle = pushforward_solution(g, entry.instance.Q)
    moved_inst = RiccatiInstance(moved, entry.instance.q)
    scheme = DiffScheme()
    names = ["u", "v", "w", "resid_sc", "resid_v1", "resid_v2", "resid_v3", "discrepancy"]

    def evaluate(P: Point3) -> dict:
        tv, _, sc, vec = _centre_and_residual(moved_inst, P, scheme)
        ov = oracle.batch(P)
        return dict(zip(names, (*tv, sc, *vec, np.abs(tv - ov).max(axis=0))))

    # a row is masked only where an evaluator or the stencil check raises
    grid, masked, values = _export(args, evaluate)
    counted = ~masked
    if g.k >= 8:  # the conical groups' on-axis rows are flagged and not counted
        a, b = (c for i, c in enumerate(grid) if i != g.k - 8)
        counted &= a ** 2 + b ** 2 > _AXIS_TOL
    worst = max([0.0] + values["discrepancy"].real[counted].tolist())
    print(f"wrote {masked.size} rows to {args.out}; "
          f"max |transport - pushforward| = {worst:.3e}")
    return 1 if worst > 1e-6 else 0


# --------------------------------------------------------------------------

def _add_config_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    for key, kind in _KEYS.items():
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, default=None)


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
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Riccati3dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
