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

__all__ = ["RunConfig", "CheckResult", "VerificationReport"]


@dataclass
class RunConfig:
    """Resolved configuration, echoed verbatim into every report."""

    h: float = 1e-3
    order: int = 4
    line_rule: str = "adaptive_simpson"
    line_tol: float = 1e-10
    gauss_order: int = 32
    volume_grid: int = 64
    build_grid: int = 12          # per-short-axis cells for W-builder checks
    seed: int = 0
    samples: int = 100
    margin: float = 0.1
    tolerances: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in (("h", self.h), ("line_tol", self.line_tol),
                            ("margin", self.margin)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"RunConfig.{name} must be finite and positive, "
                                  f"got {value!r}")
        if self.order not in (2, 4):
            raise ConfigError("RunConfig.order must be 2 or 4")
        if self.samples < 1:
            raise ConfigError("RunConfig.samples must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"RunConfig.seed must be >= 0, got {self.seed}")
        if self.gauss_order < 1:
            raise ConfigError(f"RunConfig.gauss_order must be >= 1, "
                              f"got {self.gauss_order}")
        if self.volume_grid < 8 or self.build_grid < 8:
            raise ConfigError("grid resolutions must be >= 8")
        for name, value in self.tolerances.items():
            if not (math.isfinite(value) and value >= 0):
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


def merge_reports(reports: List[VerificationReport], config_echo: dict,
                  suite: str = "all") -> VerificationReport:
    checks: List[CheckResult] = []
    for rep in reports:
        prefix = rep.suite
        for c in rep.checks:
            checks.append(CheckResult(f"{prefix}/{c.name}", c.max_abs_residual,
                                      c.tolerance, c.samples, c.passed, c.seconds))
    return VerificationReport(checks, config_echo, suite)
