"""Exception types shared across the toolkit, and the guard rule that
raises them over a point or a batch (``_raise_at``)."""

from typing import Optional

import numpy as np


class Riccati3dError(Exception):
    """Base class for all toolkit errors.

    ``index`` names the point an error is about when a batched call (a Point3
    of coordinate arrays) raises it: the flat C-order index of that point in
    the batch.  The message is the one the call at that point alone raises.
    The same code called at one point gives 0; an error that names no point
    of a batch leaves ``index`` None.

    ``where``, when not None, is a bool array of the batch's shape holding at
    every point at which the same check fails (``index`` is its first), so a
    caller that drops failing points can drop them all at once.  The
    catalog's guards and the group actions' pole checks set it to the points
    their check rejects, the batched stencil check to every target with a bad
    stencil point, operator A to every target with a failing node in its
    round, and a field evaluated point by point to every point that raised
    the same error type.  It is None at one point and where ``index`` is.
    """

    def __init__(self, *args, index: Optional[int] = None, where=None):
        super().__init__(*args)
        self.index = index
        self.where = where if getattr(where, "ndim", 0) else None


class ZeroDivisor(Riccati3dError):
    """Raised when inverting a biquaternion whose modulus vanishes.

    Biquaternions have genuine zero divisors (e.g. ``i + e1``), so this can
    happen for nonzero elements.
    """


class DomainError(Riccati3dError):
    """A point, stencil point or integration path left the field's domain."""


class QuadratureFailure(Riccati3dError):
    """A quadrature rule exceeded its subdivision budget or was misconfigured."""


class ZeroCrossing(Riccati3dError):
    """A denominator field (psi, phi, A[w/phi], ...) vanished at the point."""


class NotPureVector(Riccati3dError):
    """An operation requiring a pure-vector argument received a scalar part."""


class NonRealPotential(Riccati3dError):
    """The symmetry machinery only accepts real-valued potentials q."""


class PoleError(Riccati3dError):
    """A group action denominator (alpha or 1 - x*lambda) vanished."""


class ConfigError(Riccati3dError):
    """Invalid run configuration (CLI exit code 2)."""


def _first(bad) -> Optional[int]:
    """Where a guard fails: None if ``bad`` holds nowhere, else the flat
    C-order index of the first point where it holds (0 for one point)."""
    if type(bad) is np.ndarray:
        return int(bad.argmax()) if bad.any() else None
    return 0 if bad else None


def _raise_at(bad, error, message) -> None:
    """The guard rule.  ``bad`` is a bool at one point and a bool array over
    a batch; where it holds, raise ``error`` at its first point i (``_first``)
    with ``message``, a str or a function of i giving one, ``index=i`` and
    ``where=bad``.  A plain False, a passing point, makes no ``_first`` call
    and formats no message."""
    if bad is not False and (i := _first(bad)) is not None:
        raise error(message if type(message) is str else message(i), index=i, where=bad)


def _item(a, i: int):
    """Value i (flat C order) of a batch as a Python scalar; ``a`` itself at
    one point."""
    return a.flat[i].item() if type(a) is np.ndarray else a
