"""Cold start: the numpy-only paths never import scipy.

scipy is a declared dependency, but only the kNN density backend, the
kd-tree outlier detector, the DCT estimator, the binomial tail in
``repro.core.theory`` and the outlier-data generator need it; each
imports it inside the function that uses it. Every case runs in a fresh
interpreter so modules loaded by other tests cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_DATA = (
    "import numpy as np\n"
    "rng = np.random.default_rng(0)\n"
    "data = np.vstack([rng.normal(c, 0.05, (1500, 2)) "
    "for c in ((0, 0), (1, 1))])\n"
)

#: Code run after ``import repro`` in each case.
_CASES = {
    "import-repro": "",
    "pipeline-kde": _DATA + (
        "repro.ApproximateClusteringPipeline(n_clusters=2, random_state=0, "
        "density_backend='kde').fit(data)\n"
    ),
    "pipeline-tree": _DATA + (
        "repro.ApproximateClusteringPipeline(n_clusters=2, random_state=0, "
        "density_backend='tree').fit(data)\n"
    ),
    "approximate-detector": _DATA + (
        "repro.ApproximateOutlierDetector(k=0.1, fraction=0.001, "
        "random_state=0).detect(data)\n"
    ),
}


def _scipy_modules_after(code: str) -> str:
    """The sorted list, printed, of ``scipy`` modules in
    ``sys.modules`` after a fresh interpreter runs ``import repro`` and
    then ``code``."""
    script = (
        "import sys, repro\n"
        + code
        + "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]
    ))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env,
    )
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("case", sorted(_CASES))
def test_loads_no_scipy(case):
    """``import repro``, the pipeline fit (both backends) and the
    approximate detector run on numpy alone."""
    assert _scipy_modules_after(_CASES[case]) == "[]"
