"""Run configuration and verification report types.

Reports are deterministic given (config, seed): two runs produce identical
JSON except the per-check ``seconds`` timing fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from typing import Dict, List

from .errors import ConfigError
from .fields import _MAX_GAUSS_ORDER, DEFAULT_QUAD

__all__ = ["RunConfig", "CheckResult", "VerificationReport"]


@dataclass
class RunConfig:
    """Resolved configuration, echoed verbatim into every report."""

    h: float = 1e-3
    order: int = 4
    gauss_order: int = DEFAULT_QUAD.gauss_order
    volume_grid: int = DEFAULT_QUAD.volume_grid
    build_grid: int = 12          # per-short-axis cells for W-builder checks
    seed: int = 0
    samples: int = 100
    margin: float = 0.1
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in (("h", self.h), ("margin", self.margin)):
            if type(value) is bool or not (math.isfinite(value) and value > 0):
                raise ConfigError(f"RunConfig.{name} must be finite and positive, "
                                  f"got {value!r}")
        # type(x) is int, not isinstance: True is an int too
        if type(self.order) is not int or self.order not in (2, 4):
            raise ConfigError(f"RunConfig.order must be the int 2 or 4, got {self.order!r}")
        for name, low in (("samples", 1), ("seed", 0), ("gauss_order", 1),
                          ("volume_grid", 8), ("build_grid", 8)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(f"RunConfig.{name} must be >= {low} and an int, "
                                  f"got {value!r}")
        if self.gauss_order > _MAX_GAUSS_ORDER:
            raise ConfigError(f"RunConfig.gauss_order must be <= {_MAX_GAUSS_ORDER}, "
                              f"got {self.gauss_order!r}")
        for name, value in self.tolerances.items():
            if type(value) is bool or not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"tolerance override {name!r} must be finite "
                                  f"and >= 0, got {value!r}")

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckResult:
    """One named check.

    For defect checks, pass means max_abs_residual <= tolerance.  Detection
    checks (names ending in "_detection") invert the sense: they record the
    smallest observed residual of a deliberately broken input and pass when
    it exceeds the tolerance.
    """

    name: str
    max_abs_residual: float
    tolerance: float
    samples: int
    passed: bool
    seconds: float

    def row(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<44} {self.max_abs_residual:>12.3e} "
                f"{self.tolerance:>10.1e} {self.samples:>7d} {flag:>6} "
                f"{self.seconds:>8.2f}s")


@dataclass
class VerificationReport:
    checks: List[CheckResult]
    config_echo: dict
    suite: str = "all"

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def sorted_checks(self) -> List[CheckResult]:
        return sorted(self.checks, key=lambda c: c.name)

    def format_table(self) -> str:
        header = (f"{'check':<44} {'max_resid':>12} {'tol':>10} "
                  f"{'samples':>7} {'status':>6} {'time':>9}")
        lines = [f"suite: {self.suite}", header, "-" * len(header)]
        lines += [c.row() for c in self.sorted_checks()]
        lines.append("-" * len(header))
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "overall_pass": self.overall_pass,
            "checks": [asdict(c) for c in self.sorted_checks()],
            "config_echo": self.config_echo,
        }
        return json.dumps(payload, indent=2)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
