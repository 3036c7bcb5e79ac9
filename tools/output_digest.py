#!/usr/bin/env python3
"""Print the sha256 of every output file of a fixed set of `cli.run` runs.

A refactor that must not change any result can be checked by running this
on two checkouts and comparing the printed lines.  After each run's digests
come its per-geometry energies, ``e_min  name/label  repr(e_min)  e_fci
repr(e_fci)``, so a change that may move the bytes of a run (the amplitude
optimiser's or the FCI oracle's, say) can be held to an energy gate by
diffing the same two outputs.  Each run writes into a
temporary directory; `report.json` is hashed with its `config.out_dir`
removed, and the FCIDUMP paths it records are relative to the repository
root, so the digests do not depend on where the checkout lives.  NumPy runs
on one BLAS thread so that reductions sum in one order.  The runs cover
both selection methods, exact and sampled builds (the sampled ones on H2
and on H2O 1.0 A, whose sampler has 1030 fragments), orbital relaxation and
the ``taper=False`` and ``constant_shift=False`` ablations (untapered PT
on H2 and on H2O 1.0 A, untapered VO with a rotated state on H2).

With ``--against FILE`` the run is also checked against FILE, this
script's saved output from another checkout (the parent of a change, say),
and the script exits with status 1 if a check fails:

- every run with ``method=pt`` must print the same digests for the same
  files;
- every ``method=vo`` geometry's ``e_min`` may be higher than FILE's by at
  most ``VO_TOLERANCE`` (1e-9 Ha); lower is always allowed, since the
  optimiser may find a lower minimum;
- every geometry's ``e_fci`` must equal FILE's, except in runs with
  ``relax_orbitals``, whose oracle sees the optimiser's rotated integrals
  and may differ by at most ``VO_TOLERANCE``.

A run of which FILE holds no line (FILE is older than the run, say) is
reported on stderr as skipped and is not checked.

The sampled runs are VO runs whose ``e_min`` comes from one seeded draw,
so a change to the draws (a new layout of the draw table, say) moves their
``e_min`` by up to the sampling error and may fail the ``e_min`` check
above although nothing is wrong.  Such a change lists the moved lines and
failed checks in CHANGES.md, with each moved ``e_min`` set against the
run's predicted error; the checks and ``VO_TOLERANCE`` stay as they are.

Run from anywhere:  python3 tools/output_digest.py [--against FILE]
(about 6 s on a 2-core host)
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

from senqse import cli  # noqa: E402

# how much higher (Ha) a VO e_min may read than the saved output's, and how
# far a relaxed run's e_fci may move
VO_TOLERANCE = 1e-9
# the H2O selection settings of the acceptance suite
TUNED = dict(eps1=1e-5, eps2=1e-6, n_active_occ=5)


def _fixtures(*stems):
    return tuple(f"tests/fixtures/{s}.fcidump" for s in stems)


H2O = _fixtures("h2o_1.0000", "h2o_2.1000", "h2o_3.0000")

RUNS = {
    "pt-h2o": dict(fcidump_paths=H2O, method="pt", **TUNED),
    "pt-h2": dict(fcidump_paths=_fixtures("h2_0.7414"), method="pt"),
    "vo-h2": dict(fcidump_paths=_fixtures("h2_0.7414", "h2_1.5000"), method="vo"),
    # one state with one rotation, so the amplitude optimiser line-searches;
    # at the default trim the H2 VO bases are rotation-free
    "vo-h2-rotation": dict(fcidump_paths=_fixtures("h2_1.5000"), method="vo", eps1=0.5),
    "vo-h2o": dict(fcidump_paths=H2O, method="vo", **TUNED),
    "vo-h2-sampled": dict(
        fcidump_paths=_fixtures("h2_1.5000"), method="vo", mode="sampled", eps1=0.5, seed=5
    ),
    # the 1030-fragment sampler of the acceptance suite's sampled criteria
    "vo-h2o-sampled": dict(
        fcidump_paths=_fixtures("h2o_1.0000"), method="vo", mode="sampled", **TUNED, seed=5
    ),
    # the one run that feeds jordan_wigner dense, rotated integrals
    "vo-h2-relaxed": dict(
        fcidump_paths=_fixtures("h2_0.7414"), method="vo", relax_orbitals=True
    ),
    # the --no-taper ablation builds on the full register
    "pt-h2-no-taper": dict(
        fcidump_paths=_fixtures("h2_0.7414", "h2_1.5000"), method="pt", taper=False
    ),
    "pt-h2o-no-taper": dict(
        fcidump_paths=_fixtures("h2o_1.0000"), method="pt", **TUNED, taper=False
    ),
    # one rotated state, so full_state runs its pair rotation
    "vo-h2-rotation-no-taper": dict(
        fcidump_paths=_fixtures("h2_1.5000"), method="vo", eps1=0.5, taper=False
    ),
    "vo-h2-sampled-no-shift": dict(
        fcidump_paths=_fixtures("h2_1.5000"),
        method="vo",
        mode="sampled",
        eps1=0.5,
        seed=5,
        constant_shift=False,
    ),
}


def digest_run(name: str) -> tuple:
    """(sha256, "name/file") for every file the run writes, and the run's report."""
    with tempfile.TemporaryDirectory() as out_dir:
        summary = cli.run(cli.RunConfig(out_dir=out_dir, **RUNS[name]))
        lines = []
        for fname in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                data = fh.read()
            if fname == "report.json":
                report = json.loads(data)
                del report["config"]["out_dir"]
                data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
            lines.append((hashlib.sha256(data).hexdigest(), f"{name}/{fname}"))
        return lines, summary


def read_output(path: str) -> tuple:
    """({"name/file": sha256}, {"name/label": (e_min, e_fci)}) from a saved output."""
    digests, energies = {}, {}
    with open(path) as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 2:
                digests[fields[1]] = fields[0]
            elif fields and fields[0] == "e_min":
                energies[fields[1]] = (float(fields[2]), float(fields[4]))
    return digests, energies


def compare(name: str, lines: list, summary: dict, saved: tuple) -> list | None:
    """The failed checks of one run against a saved output.

    None when the saved output holds no line of the run.
    """
    digests, energies = saved
    if not any(what.split("/")[0] == name for what in (*digests, *energies)):
        return None
    failures = []
    if RUNS[name]["method"] == "pt":
        ours = {what: digest for digest, what in lines}
        theirs = {w: d for w, d in digests.items() if w.split("/")[0] == name}
        for what in sorted(set(ours) | set(theirs)):
            if ours.get(what) != theirs.get(what):
                failures.append(f"{what}: digest differs")
    fci_tolerance = VO_TOLERANCE if RUNS[name].get("relax_orbitals") else 0.0
    for rec in summary["geometries"]:
        key = f"{name}/{rec['label']}"
        if key not in energies:
            failures.append(f"{key}: no saved energies")
            continue
        e_min, e_fci = energies[key]
        if RUNS[name]["method"] == "vo" and rec["e_min"] > e_min + VO_TOLERANCE:
            failures.append(
                f"{key}: e_min {rec['e_min']!r} is "
                f"{rec['e_min'] - e_min:.3e} Ha above {e_min!r}"
            )
        if abs(rec["e_fci"] - e_fci) > fci_tolerance:
            failures.append(f"{key}: e_fci {rec['e_fci']!r} differs from {e_fci!r}")
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--against", metavar="FILE", help="saved output of another checkout"
    )
    args = parser.parse_args()
    saved = read_output(os.path.abspath(args.against)) if args.against else None
    os.chdir(ROOT)
    failures = []
    for name in RUNS:
        lines, summary = digest_run(name)
        for digest, what in lines:
            print(f"{digest}  {what}", flush=True)
        for rec in summary["geometries"]:
            print(
                f"e_min  {name}/{rec['label']}  {rec['e_min']!r}  "
                f"e_fci  {rec['e_fci']!r}",
                flush=True,
            )
        if saved is not None:
            found = compare(name, lines, summary, saved)
            if found is None:
                print(f"SKIP  {name}: not in {args.against}", file=sys.stderr)
            else:
                failures += found
    if saved is not None:
        for failure in failures:
            print(f"FAIL  {failure}", file=sys.stderr)
        print(
            f"against {args.against}: {len(failures)} failed check(s)", file=sys.stderr
        )
        sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
