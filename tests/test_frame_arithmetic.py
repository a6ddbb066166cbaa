"""Frame arithmetic: pure Python, correctly rounded, the same on every BLAS.

Frames are orthonormalized, moved and checked with ``cloud.dot`` in a
fixed order, and numpy only draws the seeded normals.  numpy's QR, with
the signs fixed so that R has a positive diagonal, stays here as the
reference the Gram-Schmidt rows and the projector are checked against.
"""

import os
import subprocess
import sys

import numpy as np

from centertrans.cloud import OrthoFrame, dot
from centertrans.transversal import _orthonormalize

# random_frame, verify and a 2-restart n = 3 search (its moves included),
# written as the concatenated report bytes
_REPORTS = """
import sys, warnings
from centertrans.generators import generate_cloud, maintheorem_suite
from centertrans.serialize import dump_json
from centertrans.transversal import SearchConfig, random_frame, search, verify

pair = list(maintheorem_suite(count=1)[0])
a = generate_cloud("gaussian-quantized", seed=1, atoms=7, dim=5)
b = generate_cloud("gaussian-quantized", seed=2, atoms=7, dim=5)
reports = [verify(random_frame(7, 2, 0), pair, 2)]
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # ambient 5 is below the bound 8 for m=2, n=3
    reports.append(search([a, b], 3, SearchConfig(restarts=2, local_steps=3, master_seed=4)))
sys.stdout.write("".join(dump_json(r.to_dict()) for r in reports))
"""


def _reports(coretype):
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", _REPORTS], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_reports_do_not_depend_on_the_blas_kernel():
    # Prescott is OpenBLAS's SSE3 kernel, which every x86-64 CPU runs
    default, prescott = _reports(None), _reports("Prescott")
    assert b'"projector"' in default
    assert default == prescott


def _qr_reference(g):
    q, r = np.linalg.qr(g.T)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def test_gram_schmidt_matches_sign_fixed_qr():
    # two backward-stable factorizations differ by up to about cond(g)
    # rounding units, so the bound is 1e-15 for orthonormal input and
    # widens with the conditioning of the sample
    rng = np.random.default_rng(0)
    for ambient in range(1, 9):
        for n in range(1, ambient + 1):
            g = rng.standard_normal((n, ambient))
            bound = 1e-15 * np.linalg.cond(g)
            want = _qr_reference(g)
            rows = _orthonormalize(g)
            assert np.max(np.abs(np.array(rows) - want)) <= bound, (n, ambient)
            assert all(dot(q, v) > 0 for q, v in zip(rows, g.tolist()))
            projector = np.array(OrthoFrame(rows).projector())
            assert np.max(np.abs(projector - want.T @ want)) <= bound, (n, ambient)
