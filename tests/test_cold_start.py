"""scipy stays unloaded until `matfun.logm` first falls back.

Each check runs in a fresh interpreter: the other test modules import scipy
themselves, so `sys.modules` in this process says nothing about quadgeo.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import scipy.linalg

import quadgeo
from quadgeo import pseudo_linalg as pl

SRC = str(Path(quadgeo.__file__).resolve().parents[1])

# a 3-rad rotation in a 6x6 batch: |A - I|_1 >= 1, so only scipy takes its log
FAR_ROTATION = """
import numpy as np
from quadgeo import matfun
m = np.random.default_rng(3).standard_normal((6, 6))
x = m - m.T
x *= 3.0 / np.max(np.abs(np.linalg.eigvals(x)))
a = matfun.expm(x)[None]
"""


def run_fresh(tmp_path, *parts):
    """Run the script `parts` in a new interpreter, in `tmp_path`, that
    imports quadgeo from this tree."""
    script = "\n".join(textwrap.dedent(part) for part in parts)
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


def test_commands_and_samples_leave_scipy_unloaded_until_a_far_logm(tmp_path):
    run_fresh(tmp_path, """
        import sys
        import quadgeo.cli
        assert "scipy" not in sys.modules, "import quadgeo.cli loaded scipy"
        import numpy as np
        from quadgeo import cli, pseudo_linalg

        # descent needs curvature fields, so it refuses the projective graph
        for kind, descent_code in (("ellipsoid", 0), ("quadric_graph", 2)):
            surface = f"{kind}.json"
            assert cli.main(["generate", "--kind", kind, "--grid-nu", "17",
                             "--grid-nv", "17", "--out", surface]) == 0
            for command in ("lift", "gauss", "energy", "tension"):
                assert cli.main([command, "--surface", surface,
                                 "--out", f"{kind}-{command}.json"]) == 0, command
            assert cli.main(["descent", "--surface", surface, "--steps", "2",
                             "--out", f"{kind}-descent.json"]) == descent_code
        pseudo_linalg.random_unimodular(np.random.default_rng(1))
        assert "scipy" not in sys.modules, "a command or sample loaded scipy"
    """, FAR_ROTATION, """
        log = matfun.logm(a)
        assert "scipy.linalg" in sys.modules
        assert np.max(np.abs(log - x)) < 1e-10
    """)


def test_a_patched_scipy_logm_takes_the_first_fallback(tmp_path):
    run_fresh(tmp_path, FAR_ROTATION, """
        import scipy.linalg
        seen = []
        scipy_logm = scipy.linalg.logm
        scipy.linalg.logm = lambda b: seen.append(b) or scipy_logm(b)
        log = matfun.logm(a)
        assert len(seen) == 1 and np.array_equal(seen[0], a[0])
        assert np.max(np.abs(log - x)) < 1e-10
    """)


def test_random_unimodular_is_the_exponential_of_a_traceless_draw():
    for seed in range(4):
        a = pl.random_unimodular(np.random.default_rng(seed))
        x = 0.3 * np.random.default_rng(seed).standard_normal((4, 4))
        x -= np.trace(x) / 4.0 * np.eye(4)
        ref = scipy.linalg.expm(x)
        assert abs(np.linalg.det(a) - 1.0) <= 1e-12
        assert np.linalg.norm(a - ref) <= 1e-13 * np.linalg.norm(ref)
