"""The benchmark's trace mode (``perfbench/tracing.py``) counts stencil calls.

``Tracer.install`` rebinds package-wide names, so it runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json
import numpy as np
from tracing import STENCILS, Tracer
from riccati3d import fields

tracer = Tracer()
tracer.install()
f = fields.ScalarField(lambda p: complex(p.x * p.y * p.y + p.z))
F = fields.VectorField(lambda p: np.array([p.y * p.z, p.x * p.x, p.z + p.y], complex))
p = fields.Point3(0.3, -0.7, 1.2)
for kind, field in [("grad", f), ("div", F), ("rot", F), ("laplacian", f),
                    ("dirac_left", f), ("dirac_right", F)]:
    fields.diff(kind, field, p)
print(json.dumps({name: tracer.layer("fields." + name).calls for name in STENCILS}))
"""


def test_traced_diff_counts_one_call_per_kind():
    # a stencil operator that called another public one (dirac_left through
    # grad, say) would count that one twice
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {"grad": 1, "div": 1, "rot": 1, "laplacian": 1,
                               "dirac_left": 1, "dirac_right": 1}
