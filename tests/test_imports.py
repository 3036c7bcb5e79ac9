"""Start-up guards: what importing the package costs, and what it runs.

The package and its exact paths load NumPy only: SciPy is imported by the
Lanczos oracle (sectors above the dense cutoff) and by orbital relaxation
alone.  The program path holds its operators as ``PauliArrays`` and never
builds a ``PauliSum``, the tests' reference algebra.  Both checks run in a
fresh interpreter, since pytest and other test modules import SciPy and
build ``PauliSum``s themselves.  No source file reaches the token count at
which CPython's parser grows its token array.
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


# cli.run on one H2 geometry four ways, with PauliSum.__init__ raising:
# each run's record count and failures
NO_PAULI_SUM = textwrap.dedent(
    """
    import sys, tempfile

    from senqse import cli
    from senqse.pauli import PauliSum

    def refuse(self, *args, **kwargs):
        raise RuntimeError("the program built a PauliSum")

    PauliSum.__init__ = refuse
    # one rotated VO state, so the sampled elements build swap operators
    runs = [
        dict(method="pt"),
        dict(method="vo", eps1=0.5),
        dict(method="vo", eps1=0.5, mode="sampled", seed=5),
        dict(method="vo", eps1=0.5, taper=False),
    ]
    for kwargs in runs:
        with tempfile.TemporaryDirectory() as out:
            report = cli.run(cli.RunConfig((sys.argv[1],), out_dir=out, **kwargs))
        print(len(report["geometries"]), report["failures"])
    """
)


def run_fresh(script: str, fixture: str) -> str:
    """stdout of ``script`` in a fresh interpreter on the package source,
    given the path of the fixture ``fixture``."""
    src = str(Path(senqse.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / fixture)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_exact_h2_paths_load_no_scipy():
    assert run_fresh(SCRIPT, "h2_0.7414.fcidump") == "[]"


def test_program_path_builds_no_pauli_sum():
    # PT exact, VO exact, VO sampled and the --no-taper ablation
    assert run_fresh(NO_PAULI_SUM, "h2_1.5000.fcidump").splitlines() == ["1 []"] * 4


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
