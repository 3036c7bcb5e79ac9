"""Batch pipeline driver: run curve scans and emit result tables.

Per geometry: ingest integrals, select a basis (VO or PT), optionally
optimize amplitudes and relax orbitals, build the subspace problem (exact
or finite-shot), compare against the exact-diagonalization reference, and
account sampling cost and circuit resources.  Outputs a curve CSV, a full
JSON report (deterministic for a fixed config and seed), and per-geometry
basis and cost files.

Each setting is one ``RunConfig`` field: config-file key, flag and range
check follow from it, and a bad setting is refused before any output is
written.  One loop runs the geometries, in-process or on ``workers``
processes, and lists records and failures in input order.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import itertools
import json
import logging
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from senqse.csfbasis import (
    SETTING_DEFAULTS,
    SETTING_RANGES,
    CsfElementEngine,
    check_setting,
    default_selection_params,
    element_kernel,
    select_basis_pt,
    select_basis_vo,
    serialize_basis,
)
from senqse.fci import fci_oracle
from senqse.fermion import jordan_wigner, load_fcidump, rotate_orbitals
from senqse.resources import estimate_pair
from senqse.solver import build_subspace, relax_orbitals, vo_optimize
from senqse.taper import index_groups

log = logging.getLogger(__name__)


def _check_value(f, val) -> None:
    """Field ``f``'s metadata ``choices`` and ``min``, or selection range."""
    choices = f.metadata.get("choices")
    if choices and val not in choices:
        raise ValueError(f"unknown {f.name} {val!r}, expected one of {choices}")
    if "min" in f.metadata and val < f.metadata["min"]:
        raise ValueError(f"{f.name} must be >= {f.metadata['min']}, got {val}")
    if f.name in SETTING_RANGES:
        check_setting(f.name, val)


@dataclass(frozen=True)
class RunConfig:
    """One run's settings; each field is a config-file key.

    Every field but the two lists is also a flag, in field order: the name
    with dashes or the metadata ``flag``; a boolean's flag sets the
    opposite of its default (``--no-taper``).
    """

    fcidump_paths: tuple
    labels: tuple = ()
    method: str = field(default="vo", metadata={"choices": ("vo", "pt")})
    mode: str = field(default="exact", metadata={"choices": ("exact", "sampled")})
    shots: int = 100_000
    seed: int = field(default=0, metadata={"min": 0})
    out_dir: str = field(default="runs", metadata={"flag": "--out"})
    eps1: float = SETTING_DEFAULTS["eps1"]
    eps2: float = SETTING_DEFAULTS["eps2"]
    root_window: float = SETTING_DEFAULTS["root_window"]
    n_active_occ: int = field(
        default=SETTING_DEFAULTS["n_active_occ"], metadata={"flag": "--active-occ"}
    )
    n_active_virt: int = field(
        default=SETTING_DEFAULTS["n_active_virt"], metadata={"flag": "--active-virt"}
    )
    workers: int = field(default=1, metadata={"min": 1})
    taper: bool = True
    constant_shift: bool = True
    relax_orbitals: bool = False

    def __post_init__(self):
        if not self.fcidump_paths:
            raise ValueError("at least one FCIDUMP path is required")
        for f in fields(self):
            _check_value(f, getattr(self, f.name))
        if self.mode == "sampled" and self.shots < 1:
            raise ValueError("sampled mode needs shots >= 1")
        if self.mode == "sampled" and not self.taper:
            raise ValueError("sampled mode needs the tapered representation")
        object.__setattr__(self, "fcidump_paths", tuple(self.fcidump_paths))
        labels = tuple(self.labels) or tuple(
            os.path.splitext(os.path.basename(p))[0] for p in self.fcidump_paths
        )
        if len(labels) != len(self.fcidump_paths):
            raise ValueError("labels must match fcidump_paths one to one")
        for label in labels:
            if labels.count(label) > 1:
                raise ValueError(f"duplicate geometry label {label!r}")
            # a label names the output files inside out_dir
            if label in ("", ".", "..") or "/" in label or os.sep in label:
                raise ValueError(f"geometry label {label!r} is not a plain file name")
        object.__setattr__(self, "labels", labels)


_FIELDS = {f.name: f for f in fields(RunConfig)}
_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ConfigError(ValueError):
    """Malformed config file; the message starts with ``path:line``."""


def _parse_bool(val: str) -> bool:
    try:
        return _BOOL[val.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOL)}") from None


# value parsers by field annotation; a str field takes its text as it is
_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple": lambda val: tuple(v.strip() for v in val.split(",") if v.strip()),
}


def parse_config_file(path: str) -> dict:
    """Flat KEY=VALUE text; lists are comma separated, # starts a comment."""
    values: dict = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected KEY=VALUE, got {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key not in _FIELDS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            f = _FIELDS[key]
            try:
                values[key] = _PARSERS.get(f.type, str)(val)
                _check_value(f, values[key])
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{ln}: bad value {val!r} for {key}: {exc}"
                ) from None
    return values


def bond_parameter(label: str, index: int) -> float:
    """Bond-length-like scan parameter: trailing float in the label, else index."""
    m = re.findall(r"\d+\.\d+", label)
    return float(m[-1]) if m else float(index)


def run_geometry(path: str, label: str, bond: float, config: RunConfig) -> dict:
    """One geometry's record.

    Selection, amplitude optimisation, the subspace build and the tapering
    statistics share one element kernel (``CsfElementEngine``) of the
    geometry's qubit Hamiltonian; relaxing the orbitals makes a new
    Hamiltonian and so a new kernel.
    """
    ints = load_fcidump(path)
    hq = jordan_wigner(ints)
    kernel = CsfElementEngine(hq, ints.n_elec)
    params = default_selection_params(
        ints, **{name: getattr(config, name) for name in SETTING_DEFAULTS}
    )
    if config.method == "vo":
        basis = select_basis_vo(ints, hq, params, kernel=kernel)
        basis, _, _ = vo_optimize(basis, hq, ints.n_elec, kernel=kernel)
    else:
        basis = select_basis_pt(ints, hq, params, kernel=kernel)

    relaxation = None
    if config.relax_orbitals:
        rot, e_relaxed, _ = relax_orbitals(basis, ints)
        ints = rotate_orbitals(ints, rot)
        hq = jordan_wigner(ints)
        kernel = CsfElementEngine(hq, ints.n_elec)
        relaxation = {"e_min": e_relaxed, "t_norm": float(np.linalg.norm(rot.t))}

    sampled = config.mode == "sampled"
    problem = build_subspace(
        basis,
        hq,
        ints.n_elec,
        mode=config.mode,
        shots=config.shots if sampled else None,
        seed=config.seed if sampled else None,
        taper=config.taper,
        constant_shift=config.constant_shift,
        compute_sigma=config.taper,
        kernel=kernel,
    )
    record = {
        "label": label,
        "bond": bond,
        "path": str(path),
        "method": config.method,
        "mode": config.mode,
        "n_orbitals": ints.n_orb,
        "n_electrons": ints.n_elec,
        "n_states": len(basis),
        "n_rotations_max": max((len(b.rotations) for b in basis), default=0),
        "e_min": problem.e_min,
        "hamiltonian_terms": hq.n_terms,
        "basis_text": serialize_basis(basis),
    }
    if config.taper:
        record["metric"] = problem.cost.metric
        record["cost_text"] = problem.cost.to_text(label, bond, config.method)
        record["term_stats"] = tapering_stats(basis, hq, ints.n_elec, kernel=kernel)
    else:
        # the ablation has no sampling cost, and every operator is whole
        record["metric"] = record["cost_text"] = None
        record["term_stats"] = {
            "avg_term_ratio": 1.0,
            "max_term_ratio": 1.0,
            "avg_norm_ratio": 1.0,
            "max_norm_ratio": 1.0,
            "original_terms": _measured_terms(hq)[0],
        }
    sampler = problem.sampler
    if sampler is not None:
        record["first_order_mse"] = float(sampler.first_order_mse)
        record["second_order_bias"] = float(sampler.second_order_bias)
        record["elements_at_floor"] = sampler.elements_at_floor
        record["shots_total"] = int(sum(sum(v) for v in sampler.shots.values()))
        record["floor_shots"] = sampler.floor_shots
    if relaxation:
        record["relaxation"] = relaxation
    # the oracle's sector matrix is the geometry's largest allocation, so
    # the kernel, the sampler and their memos go first
    del kernel, problem, sampler
    fci = fci_oracle(hq, ints.n_elec, 0.0)
    record["e_fci"] = fci.energy
    record["error"] = record["e_min"] - fci.energy

    record.update(resource_stats(basis, ints.n_orb, ints.n_elec))
    return record


def resource_stats(basis, n_orb: int, n_elec: int) -> dict:
    """Mean and largest CNOT count and depth of the swap-test circuits over
    every distinct state pair, or the one pair (0, 0) of a one-state basis.

    An estimate depends on the (kind, omega, rotation count) shapes of bra
    and ket alone, symmetrically, so it is taken once per unordered shape
    pair and weighted by the number of state pairs of those shapes.  The
    counts are integers, so the weighted sums are exact, and one correctly
    rounded division gives the double of ``np.mean`` over all pairs.
    """
    groups = index_groups([(b.csf.kind, b.csf.omega, len(b.rotations)) for b in basis])
    sizes = [len(rows) for rows in groups.values()]
    firsts = [basis[rows[0]] for rows in groups.values()]
    weighted = []
    for g, h in itertools.combinations_with_replacement(range(len(sizes)), 2):
        pairs = sizes[g] * sizes[h] if g != h else sizes[g] * (sizes[g] - 1) // 2
        if pairs or len(basis) == 1:
            weighted.append((pairs or 1, estimate_pair(firsts[g], firsts[h], n_orb, n_elec)))
    total = sum(w for w, _ in weighted)
    return {
        "cnots_avg": sum(w * c.cnots for w, c in weighted) / total,
        "cnots_max": max(c.cnots for _, c in weighted),
        "depth_avg": sum(w * c.depth for w, c in weighted) / total,
        "depth_max": max(c.depth for _, c in weighted),
    }


def _measured_terms(op) -> tuple:
    """(count, 1-norm) of the terms of op other than the identity, the ones
    that cost measurements.  The 1-norm is Python's ``sum`` of the
    magnitudes (``np.hypot``, Python's ``abs`` bit for bit) in term order,
    minus the identity's."""
    identity = ~op.keys.any(axis=1)
    mags = np.hypot(op.coeffs.real, op.coeffs.imag)
    norm = sum(mags.tolist()) - sum(mags[identity].tolist(), 0.0)
    return len(op) - int(identity.sum()), norm


def tapering_stats(basis, hq, n_elec, kernel=None) -> dict:
    """Per-element tapered/original term-count and 1-norm ratios.

    Identity terms are excluded on both sides: they shift values without
    costing measurements.  The operators come from ``kernel``, the
    geometry's element kernel of ``hq`` (a new one when None), and the
    ratios are taken once per distinct config pair.
    """
    kernel = element_kernel(kernel, hq, n_elec)
    bits = [kernel.bits(b.csf) for b in basis]
    n_full, norm_full = _measured_terms(hq)
    ratios, term_ratios, norm_ratios = {}, [], []
    for mu, nu in itertools.combinations_with_replacement(range(len(basis)), 2):
        pair = (bits[mu], bits[nu])
        if pair not in ratios:
            n_terms, norm = _measured_terms(kernel.xop(*pair))
            ratios[pair] = (n_terms / n_full, norm / norm_full)
        term_ratios.append(ratios[pair][0])
        norm_ratios.append(ratios[pair][1])
    return {
        "avg_term_ratio": float(np.mean(term_ratios)),
        "max_term_ratio": float(np.max(term_ratios)),
        "avg_norm_ratio": float(np.mean(norm_ratios)),
        "max_norm_ratio": float(np.max(norm_ratios)),
        "original_terms": n_full,
    }


CSV_COLUMNS = [
    "bond",
    "label",
    "method",
    "mode",
    "n_states",
    "e_min",
    "e_fci",
    "error",
    "metric",
    "cnots_avg",
    "cnots_max",
    "depth_avg",
    "depth_max",
]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run(config: RunConfig) -> dict:
    """Run every geometry, write outputs, and return the summary."""
    os.makedirs(config.out_dir, exist_ok=True)
    jobs = [
        (path, label, bond_parameter(label, idx))
        for idx, (path, label) in enumerate(zip(config.fcidump_paths, config.labels))
    ]
    records, failures = [], []
    with contextlib.ExitStack() as stack:
        # each job's record as a call, in job order, so both ways fail alike
        if config.workers > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(config.workers)
            )
            calls = [pool.submit(run_geometry, *job, config).result for job in jobs]
        else:
            calls = [functools.partial(run_geometry, *job, config) for job in jobs]
        for (_, label, _), call in zip(jobs, calls):
            try:
                records.append(call())
            except Exception as exc:  # noqa: BLE001 - per-geometry isolation
                log.error("geometry %s failed: %s", label, exc)
                failures.append({"label": label, "error": str(exc)})

    csv_path = os.path.join(config.out_dir, "results.csv")
    with open(csv_path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(_csv_cell(rec.get(col)) for col in CSV_COLUMNS) + "\n")

    for rec in records:
        stem = os.path.join(config.out_dir, rec["label"])
        with open(f"{stem}.basis.txt", "w") as fh:
            fh.write(rec.pop("basis_text"))
        cost_text = rec.pop("cost_text")
        if cost_text is not None:
            with open(f"{stem}.cost.txt", "w") as fh:
                fh.write(cost_text)

    report = {
        "config": asdict(config),
        "geometries": records,
        "failures": failures,
    }
    with open(os.path.join(config.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senqse",
        description="Seniority-symmetric subspace expansion over FCIDUMP inputs",
    )
    parser.add_argument("fcidump", nargs="*", help="FCIDUMP files, one per geometry")
    parser.add_argument("--config", help="flat KEY=VALUE config file")
    for f in _FIELDS.values():
        name = f.name.replace("_", "-")
        if f.type == "bool":
            # the flag sets the opposite of the default
            flag, action = (
                (f"--no-{name}", "store_false") if f.default else (f"--{name}", "store_true")
            )
            parser.add_argument(flag, dest=f.name, action=action, default=None)
        elif f.type != "tuple":
            parser.add_argument(
                f.metadata.get("flag", f"--{name}"),
                dest=f.name,
                type=_PARSERS.get(f.type),
                choices=f.metadata.get("choices"),
            )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    if args.fcidump:
        values["fcidump_paths"] = tuple(args.fcidump)
    for key in _FIELDS:
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    return RunConfig(**values)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run(config)
    for rec in report["geometries"]:
        print(
            f"{rec['label']}: e_min={rec['e_min']:.8f} "
            f"e_fci={rec['e_fci']:.8f} error={rec['error']:+.3e}"
        )
    for failure in report["failures"]:
        print(f"{failure['label']}: FAILED ({failure['error']})", file=sys.stderr)
    if report["failures"] and not report["geometries"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
