"""scipy loads only where a sparse system is built or solved.

Each check runs in a fresh interpreter, since the test process itself has
scipy loaded (the oracle tests import it).
"""

import os
import subprocess
import sys
from pathlib import Path

import slag_lab

ENV = {**os.environ,
       "PYTHONPATH": str(Path(slag_lab.__file__).resolve().parents[1])}

NUMPY_ONLY_PATHS = """
import math, sys
import numpy as np
import slag_lab
from slag_lab import (GridSpec, ProblemSpec, RotationParams, check_subsolution,
                      check_sum_rule, conjugate_fast, rotate, sample_potential,
                      scale_potential, solve_dirichlet,
                      subsolution_preservation_trial)
from slag_lab.formulas import iso_quad

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

params = RotationParams.from_alpha(math.pi / 4)
for dim, nodes in ((2, 17), (3, 9)):
    u = sample_potential(iso_quad(1.5), GridSpec.ball_box(dim, nodes))
    assert rotate(u, params).domain.inside.any()
u = sample_potential(iso_quad(1.5), GridSpec.ball_box(2, 17))
conjugate_fast(u)
assert check_sum_rule(u, 1.0, [u.grid.node_coords((8, 7))]).passed
assert check_subsolution(u, math.pi / 2).passed
h = u.grid.spacing
assert subsolution_preservation_trial(u, math.pi / 2, [2 * h]).passed
assert scale_potential(u).mask.any()
assert not scipy_modules(), scipy_modules()[:3]

field, report = solve_dirichlet(iso_quad(1.0), ProblemSpec(dim=2, theta=math.pi / 2),
                                GridSpec.ball_box(2, 17))
assert report.converged, report.stop_reason
# the multigrid GMRES needs sparse matrices, not scipy's solvers
assert "scipy.sparse" in scipy_modules()
assert "scipy.sparse.linalg" not in scipy_modules(), scipy_modules()
print("ok")
"""


def _run(*args):
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=ENV)
    assert done.returncode == 0, done.stderr
    return done


def test_rotate_conjugate_and_audits_load_no_scipy():
    assert _run("-c", NUMPY_ONLY_PATHS).stdout.strip() == "ok"


def test_cli_help_loads_no_scipy():
    script = ("import sys; sys.argv = ['slag-lab', '--help']\n"
              "from slag_lab.cli import main\n"
              "try:\n    main()\nexcept SystemExit:\n    pass\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = _run("-c", script).stdout
    assert "usage" in out
    assert out.strip().endswith("[]")
