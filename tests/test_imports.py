"""Start-up guard: the package and its exact paths load NumPy only.

SciPy is imported by the Lanczos oracle (sectors above the dense cutoff)
and by orbital relaxation alone.  The check runs in a fresh interpreter,
since pytest and other test modules import SciPy themselves.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import senqse

FIXTURES = Path(__file__).parent / "fixtures"

SCRIPT = textwrap.dedent(
    """
    import importlib, pkgutil, sys

    import senqse
    for mod in pkgutil.iter_modules(senqse.__path__):
        importlib.import_module(f"senqse.{mod.name}")

    from senqse.csfbasis import default_selection_params, select_basis_pt
    from senqse.fermion import jordan_wigner, load_fcidump
    from senqse.solver import build_subspace, fci_oracle

    ints = load_fcidump(sys.argv[1])
    hq = jordan_wigner(ints)
    fci_oracle(hq, ints.n_elec)
    basis = select_basis_pt(ints, hq, default_selection_params(ints))
    build_subspace(basis, hq, ints.n_elec, mode="exact")
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
)


def test_exact_h2_paths_load_no_scipy():
    src = str(Path(senqse.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(FIXTURES / "h2_0.7414.fcidump")],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
