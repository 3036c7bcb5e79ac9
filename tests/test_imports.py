"""Start-up guards: what importing the package costs.

The package and its exact paths load NumPy only: SciPy is imported by the
Lanczos oracle (sectors above the dense cutoff) and by orbital relaxation
alone.  The check runs in a fresh interpreter, since pytest and other test
modules import SciPy themselves.  No source file reaches the token count
at which CPython's parser grows its token array.
"""

import os
import subprocess
import sys
import textwrap
import tokenize
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
    from senqse.fci import fci_oracle
    from senqse.solver import build_subspace

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


# CPython's parser doubles its token array when a file reaches this many
# tokens (comments, non-logical newlines and the encoding not counted)
PARSER_TOKEN_ARRAY = 8192


def test_sources_stay_below_the_parser_token_doubling():
    """Every ``src/senqse`` file holds fewer than 8192 parser tokens.

    Running from source compiles every module anew when no bytecode is
    written, and a file past the doubling point keeps more memory after
    the import.  ``solver.py`` at 8479 tokens raised the ``shot-study``
    benchmark's median ``peak_rss_mb`` by 0.16 MB over 5 pairs of runs,
    although that workload never calls the code that was added.
    """
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    package = Path(senqse.__file__).resolve().parent
    counts = {}
    for path in sorted(package.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.name] = sum(
                1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skip
            )
    assert counts and all(n < PARSER_TOKEN_ARRAY for n in counts.values()), counts
