#!/usr/bin/env python3
"""Regenerate the frozen H2O 1.0 Angstrom VO bases the benchmark reads.

Writes two files in the ``.basis.txt`` warm-restart format:

- ``data/h2o_1.0000.vo-selected.basis.txt``: the VO selection with its
  zero-initialised rotation slots, the input of the ``vo-opt`` workload;
- ``data/h2o_1.0000.vo.basis.txt``: the optimized basis that the batch
  driver writes for the same geometry, the input of ``shot-study``.

Both come from the tuned settings the acceptance suite pins.  The script
checks that the optimized file, parsed back, gives the pipeline's exact
subspace energy, and that the two files hold the same states and rotation
slots (only the angles differ).  Takes about two minutes.

It also writes the H2 1.5 Angstrom pair (``h2_1.5000.*``) for the
benchmark's self-test: VO selection on H2 keeps no rotation, so that basis
is the Hartree-Fock state with one 0->1 pair rotation, optimized by
``vo_optimize``, which spans the singlet ground state exactly.

Run from the repository root:  python3 perfbench/make_basis.py
"""

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import common  # noqa: E402

common.pin_threads()

from senqse import cli  # noqa: E402
from senqse.csfbasis import (  # noqa: E402
    BasisState,
    CsfKind,
    CsfSpec,
    default_selection_params,
    parse_basis,
    select_basis_vo,
    serialize_basis,
)
from senqse.fermion import jordan_wigner, load_fcidump  # noqa: E402
from senqse.solver import build_subspace, vo_optimize  # noqa: E402

LABEL = "h2o_1.0000"
ENERGY_TOL = 1e-10
H2_LABEL = "h2_1.5000"


def slots(basis):
    return [(b.csf, tuple((r, s) for r, s, _ in b.rotations)) for b in basis]


def write(name: str, text: str) -> None:
    with open(os.path.join(common.DATA, name), "w") as fh:
        fh.write(text)


def write_h2() -> int:
    ints = load_fcidump(os.path.join(common.FIXTURES, f"{H2_LABEL}.fcidump"))
    hq = jordan_wigner(ints)
    selected = [BasisState(CsfSpec(CsfKind.HF), ((1, 0, 0.0),), label="s0")]
    optimized, problem, _ = vo_optimize(selected, hq, ints.n_elec)
    with open(os.path.join(common.FIXTURES, "reference.json")) as fh:
        e_ref = json.load(fh)[H2_LABEL]["e_fci"]
    print(f"{H2_LABEL}: e_min {problem.e_min!r}, reference FCI {e_ref!r}")
    if abs(problem.e_min - e_ref) > ENERGY_TOL:
        print("H2 basis does not reach the FCI energy", file=sys.stderr)
        return 1
    write(f"{H2_LABEL}.vo-selected.basis.txt", serialize_basis(selected))
    write(f"{H2_LABEL}.vo.basis.txt", serialize_basis(optimized))
    return 0


def main() -> int:
    fcidump = os.path.join(common.FIXTURES, f"{LABEL}.fcidump")
    ints = load_fcidump(fcidump)
    hq = jordan_wigner(ints)
    selected = select_basis_vo(
        ints, hq, default_selection_params(ints, **common.TUNED)
    )

    os.makedirs(common.OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=common.OUT)
    try:
        report = cli.run(
            cli.RunConfig(
                fcidump_paths=(fcidump,), method="vo", out_dir=out_dir, **common.TUNED
            )
        )
        if report["failures"]:
            print(f"pipeline failed: {report['failures']}", file=sys.stderr)
            return 1
        with open(os.path.join(out_dir, f"{LABEL}.basis.txt")) as fh:
            optimized_text = fh.read()
    finally:
        shutil.rmtree(out_dir)

    e_pipeline = report["geometries"][0]["e_min"]
    optimized = parse_basis(optimized_text)
    e_frozen = build_subspace(optimized, hq, ints.n_elec, mode="exact").e_min
    print(f"pipeline e_min {e_pipeline!r}, frozen basis e_min {e_frozen!r}")
    if abs(e_frozen - e_pipeline) > ENERGY_TOL:
        print("frozen basis does not reproduce the pipeline energy", file=sys.stderr)
        return 1
    if slots(optimized) != slots(selected):
        print("optimized basis does not match the selection's slots", file=sys.stderr)
        return 1

    write(f"{LABEL}.vo-selected.basis.txt", serialize_basis(selected))
    write(f"{LABEL}.vo.basis.txt", optimized_text)
    print(f"wrote {len(selected)} states to {common.DATA}")
    return write_h2()


if __name__ == "__main__":
    raise SystemExit(main())
