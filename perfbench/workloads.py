"""The benchmark's workloads, their correctness gates and their layer probes.

Importing this module imports the package; call ``common.pin_threads()``
first.  Each operation times only the program's work; its checks run after
the timed region and feed the failure count and the correctness flag.
NOTES.md gives the reason for each workload.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import common
from senqse import cli, csfbasis, fermion, measure, resources, simulator, solver, taper
from stopwatch import Stopwatch
from tracer import Tracer

CHEMICAL_ACCURACY_HA = 1.6e-3
VARIATIONAL_TOL_HA = 1e-8
ORACLE_TOL_HA = 1e-8
SKELETON_TOL_HA = 1e-9
FRAGMENT_MEAN_TOL = 1e-8
DRAW_STRIDE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # pt-scan | vo-opt | shot-study
    labels: tuple  # fixture stems, one geometry each
    basis: str | None = None  # .basis.txt input under perfbench/data
    shots: int = 0
    draws: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pt-scan", "pt-scan", ("h2o_1.0000",)),
        Workload("vo-opt", "vo-opt", ("h2o_1.0000",), "h2o_1.0000.vo-selected.basis.txt"),
        Workload(
            "shot-study",
            "shot-study",
            ("h2o_1.0000",),
            "h2o_1.0000.vo.basis.txt",
            shots=200_000,
            draws=200,
        ),
        # the same paths on H2, for the benchmark's self-test
        Workload("h2-pt-scan", "pt-scan", ("h2_0.7414", "h2_1.5000")),
        Workload("h2-vo-opt", "vo-opt", ("h2_1.5000",), "h2_1.5000.vo-selected.basis.txt"),
        Workload(
            "h2-shot-study",
            "shot-study",
            ("h2_1.5000",),
            "h2_1.5000.vo.basis.txt",
            shots=20_000,
            draws=50,
        ),
    )
}


@dataclass
class Inputs:
    workload: Workload
    paths: tuple
    e_ref: dict  # label -> reference FCI energy
    ints: tuple = ()
    basis: list | None = None


@dataclass
class OpResult:
    seconds: float  # wall time of the timed region
    norm_seconds: float  # the same region at the reference host speed
    attempted: int
    failed: int
    faults: list  # tripped correctness gates
    error_ha: float | None  # largest e_min - e_fci
    extras: dict = field(default_factory=dict)  # name -> (value, unit)


def prepare(w: Workload) -> Inputs:
    """Set-up: read the reference energies, FCIDUMP and basis inputs."""
    with open(os.path.join(common.FIXTURES, "reference.json")) as fh:
        ref = json.load(fh)
    paths = tuple(os.path.join(common.FIXTURES, f"{lb}.fcidump") for lb in w.labels)
    inp = Inputs(w, paths, {lb: ref[lb]["e_fci"] for lb in w.labels})
    if w.kind != "pt-scan":  # the batch driver reads its own inputs
        inp.ints = tuple(fermion.load_fcidump(p) for p in paths)
    if w.basis:
        with open(os.path.join(common.DATA, w.basis)) as fh:
            inp.basis = csfbasis.parse_basis(fh.read())
    return inp


# -- correctness gates ------------------------------------------------------


def geometry_faults(label, e_min, e_fci, e_ref=None) -> list:
    """Variational, within chemical accuracy, oracle agreeing with the reference."""
    if not (math.isfinite(e_min) and math.isfinite(e_fci)):
        return [f"{label}: non-finite energy"]
    faults = []
    if e_min < e_fci - VARIATIONAL_TOL_HA:
        faults.append(f"{label}: e_min {e_min!r} below FCI {e_fci!r}")
    if e_min - e_fci > CHEMICAL_ACCURACY_HA:
        faults.append(f"{label}: error {e_min - e_fci:.3e} Ha misses chemical accuracy")
    if e_ref is not None and abs(e_fci - e_ref) > ORACLE_TOL_HA:
        faults.append(f"{label}: FCI oracle {e_fci!r} disagrees with reference {e_ref!r}")
    return faults


def sampler_faults(e_skeleton, e_exact, fragment_means, exact, draw_a, draw_b) -> list:
    """Exact skeleton, unbiased fragment estimators, reproducible draws."""
    faults = []
    if not abs(e_skeleton - e_exact) <= SKELETON_TOL_HA:
        faults.append(
            f"skeleton energy {e_skeleton!r} differs from the exact build {e_exact!r}"
        )
    for (mu, nu), mean in fragment_means.items():
        if not abs(mean - exact[mu, nu]) <= FRAGMENT_MEAN_TOL:
            faults.append(
                f"element ({mu},{nu}): fragment means sum to {mean!r}, "
                f"exact value {exact[mu, nu]!r}"
            )
    if not np.array_equal(draw_a, draw_b):
        faults.append("the same draw seed gave different matrices")
    return faults


# -- operations -------------------------------------------------------------


@contextlib.contextmanager
def traced(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    instrument(tracer)
    try:
        yield
    finally:
        tracer.restore()


def _scan_result(watch: Stopwatch, inp: Inputs, energies: dict, extras: dict) -> OpResult:
    faults, failed, errors = [], 0, []
    for label in inp.workload.labels:
        if label not in energies:
            failed += 1
            faults.append(f"{label}: raised")
            continue
        e_min, e_fci = energies[label]
        errors.append(e_min - e_fci)
        found = geometry_faults(label, e_min, e_fci, inp.e_ref[label])
        if found:
            failed += 1
            faults.extend(found)
    error = max(errors) if errors else None
    n = len(inp.workload.labels)
    return OpResult(watch.wall, watch.norm, n, failed, faults, error, extras)


def op_pt_scan(inp: Inputs, seed: int, tracer=None) -> OpResult:
    """One PT curve scan through the batch driver, outputs written to disk."""
    os.makedirs(common.OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=common.OUT)
    try:
        config = cli.RunConfig(
            fcidump_paths=inp.paths, method="pt", mode="exact", out_dir=out_dir, **common.TUNED
        )
        watch = Stopwatch()
        with traced(tracer), watch:
            report = cli.run(config)
        out_bytes = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    energies = {r["label"]: (r["e_min"], r["e_fci"]) for r in report["geometries"]}
    cost = max((r["metric"] for r in report["geometries"]), default=0.0)
    extras = {"cost_metric": (cost, "Ha2.shots"), "output_bytes": (out_bytes, "bytes")}
    return _scan_result(watch, inp, energies, extras)


def op_vo_opt(inp: Inputs, seed: int, tracer=None) -> OpResult:
    """Amplitude optimisation from the frozen selection, checked against FCI."""
    ints = inp.ints[0]
    energies = {}
    watch = Stopwatch()
    with traced(tracer), watch:
        try:
            hq = fermion.jordan_wigner(ints)
            _, problem, _ = solver.vo_optimize(inp.basis, hq, ints.n_elec)
            fci = solver.fci_oracle(hq, ints.n_elec, 0.0)
            energies[inp.workload.labels[0]] = (problem.e_min, fci.energy)
        except Exception as exc:  # noqa: BLE001 - a raising geometry is a failed op
            print(f"vo-opt raised: {exc!r}", file=sys.stderr)
    return _scan_result(watch, inp, energies, {})


def draw_seed(seed: int, k: int) -> int:
    return abs(seed) * DRAW_STRIDE + k


def op_shot_study(inp: Inputs, seed: int, tracer=None) -> OpResult:
    """Sampler build on the frozen optimized basis, then repeated draws."""
    w = inp.workload
    ints, label = inp.ints[0], w.labels[0]
    energies, failed = [], 0
    watch = Stopwatch()
    with traced(tracer), watch:
        hq = fermion.jordan_wigner(ints)
        t_basis = time.perf_counter()
        engine = solver.SubspaceEngine(inp.basis, hq, ints.n_elec)
        sampler = solver.make_matrix_sampler(engine, w.shots)
        t_ready = time.perf_counter()
        for k in range(w.draws):
            try:
                e = solver.ground_state(sampler.draw(draw_seed(seed, k)))[0]
            except Exception as exc:  # noqa: BLE001 - a raising draw is a failed op
                print(f"draw {k} raised: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            if math.isfinite(e):
                energies.append(e)
            else:
                failed += 1
        t_end = time.perf_counter()

    e_skeleton, c0 = solver.ground_state(sampler.exact)
    e_exact = solver.build_subspace(inp.basis, hq, ints.n_elec, mode="exact").e_min
    means = {
        key: sum(s.mean for s in samplers) for key, (samplers, _) in sampler.plan.items()
    }
    first = draw_seed(seed, 0)
    faults = sampler_faults(
        e_skeleton, e_exact, means, sampler.exact, sampler.draw(first), sampler.draw(first)
    )
    faults += geometry_faults(label, e_skeleton, inp.e_ref[label])

    sigma, frag_sigmas = engine.sigma_matrix(sampler.plan)
    c0 = np.asarray(c0, dtype=float)
    cost = measure.allocate_and_score(sigma, c0, frag_sigmas).metric
    table = {key: sum(v) for key, v in sampler.shots.items()}
    predicted = math.sqrt(measure.predicted_mse(sigma, c0, table)) if table else 0.0
    errors = np.asarray(energies) - e_skeleton
    rmse = float(np.sqrt(np.mean(errors**2))) if len(errors) else float("nan")
    ratios = cli.tapering_stats(inp.basis, hq, ints.n_elec)
    extras = {
        "sampler_build_s": (t_ready - t_basis, "s"),
        "draws_per_s": (w.draws / (t_end - t_ready), "1/s"),
        "sampled_rmse_mha": (1e3 * rmse, "mHa"),
        "predicted_rmse_mha": (1e3 * predicted, "mHa"),
        "sampled_to_predicted_mse": ((rmse / predicted) ** 2 if predicted else 0.0, "ratio"),
        "cost_metric": (cost, "Ha2.shots"),
        "avg_term_ratio": (ratios["avg_term_ratio"], "ratio"),
        "avg_norm_ratio": (ratios["avg_norm_ratio"], "ratio"),
    }
    error = e_skeleton - inp.e_ref[label]
    return OpResult(watch.wall, watch.norm, w.draws, failed, faults, error, extras)


OPS = {"pt-scan": op_pt_scan, "vo-opt": op_vo_opt, "shot-study": op_shot_study}


# -- layer probes -----------------------------------------------------------


def _instrument_lookups(tr: Tracer) -> None:
    """Effective-operator lookups: one per element evaluation, plus direct xop calls.

    ``SubspaceEngine.element_exact`` reaches its operator through the dense
    or PauliSum caches and calls ``xop`` only on a miss, so an ``xop`` call
    made inside it is not a second lookup.  Every cache miss builds one
    effective Hamiltonian.
    """
    inside = [0]

    def element(f):
        def wrapper(*args, **kwargs):
            tr.counts["solver.element_exact_calls"] += 1
            tr.counts["taper.xop_lookups"] += 1
            inside[0] += 1
            try:
                return f(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapper

    def engine_xop(f):
        def wrapper(*args, **kwargs):
            if not inside[0]:
                tr.counts["taper.xop_lookups"] += 1
            return f(*args, **kwargs)

        return wrapper

    tr.patch(solver.SubspaceEngine, "element_exact", element)
    tr.patch(solver.SubspaceEngine, "xop", engine_xop)
    tr.count(csfbasis.CsfElementEngine, "xop", "taper.xop_lookups")


def _adder(name, measure_result):
    return lambda tr, result, args, kwargs: tr.add(name, measure_result(result))


def _eigh_bytes(tr, result, args, kwargs):
    # FragmentSampler(state, fragment): one dense complex matrix per eigh
    fragment = args[2] if len(args) > 2 else kwargs["fragment"]
    tr.add("simulator.eigh_bytes", 16 * 4**fragment.n_qubits)


def _conjugations(tr, result, args, kwargs):
    hq = args[0] if args else kwargs["hq"]
    tr.add("pauli.conjugations", hq.n_terms)


def _rotation_slots(tr, result, args, kwargs):
    # vo_optimize(basis, hq, n_elec): one amplitude per (rotation group, index);
    # a full coordinate-descent sweep makes one line search per slot
    n_orb = (args[1] if len(args) > 1 else kwargs["hq"]).n_qubits // 2
    slots = {
        (csfbasis.rotation_group_key(b.csf, n_orb), k)
        for b in result[0]
        for k in range(len(b.rotations))
    }
    tr.add("solver.rotation_slots", len(slots))


def instrument(tr: Tracer) -> None:
    span, count = tr.span, tr.count
    span(cli, "run", "cli.run")
    span(cli, "run_geometry", "cli.run_geometry")
    span(cli, "tapering_stats", "cli.tapering_stats")
    span(fermion, "load_fcidump", "fermion.load_fcidump")
    span(
        fermion,
        "jordan_wigner",
        "fermion.jordan_wigner",
        _adder("fermion.hamiltonian_terms", lambda hq: hq.n_terms),
    )
    span(taper, "effective_hamiltonian", "taper.effective_hamiltonian", _conjugations)
    basis_size = _adder("csfbasis.basis_size", len)
    span(csfbasis, "select_basis_vo", "csfbasis.select_basis_vo", basis_size)
    span(csfbasis, "select_basis_pt", "csfbasis.select_basis_pt", basis_size)
    span(csfbasis, "create_csfs", "csfbasis.create_csfs", _adder("csfbasis.csfs_created", len))
    span(
        csfbasis,
        "trim_csfs",
        "csfbasis.trim_csfs",
        _adder("csfbasis.csfs_kept", lambda r: len(r[0])),
    )
    span(
        csfbasis,
        "extension_pairs",
        "csfbasis.extension_pairs",
        _adder("csfbasis.pairs_kept", lambda r: sum(map(len, r))),
    )
    count(csfbasis.CsfElementEngine, "element", "csfbasis.element_calls")
    count(csfbasis, "apply_pair_rotation", "csfbasis.pair_rotations")
    _instrument_lookups(tr)
    span(solver, "vo_optimize", "solver.vo_optimize", _rotation_slots)
    count(solver, "_periodic_line_search", "solver.line_searches")
    span(solver, "build_subspace", "solver.build_subspace")
    span(solver, "fci_oracle", "solver.fci_oracle")
    span(solver, "make_matrix_sampler", "solver.make_matrix_sampler")
    span(
        solver.SubspaceEngine,
        "sampling_plan",
        "solver.sampling_plan",
        _adder("solver.elements_sampled", len),
    )
    span(solver.MatrixSampler, "draw", "solver.draw")
    span(
        measure,
        "sorted_insertion",
        "measure.sorted_insertion",
        _adder("measure.fragments", len),
    )
    span(measure, "fragment_variance", "measure.fragment_variance")
    span(measure, "allocate_and_score", "measure.allocate_and_score")
    span(simulator.FragmentSampler, "__init__", "simulator.fragment_sampler", _eigh_bytes)
    count(simulator.FragmentSampler, "sample", "simulator.sample_calls")
    count(simulator, "rng_for", "simulator.rng_streams")
    count(simulator, "apply_pauli_sum", "simulator.apply_pauli_sum_calls")
    span(resources, "estimate_pair", "resources.estimate_pair")


def traced_modules() -> list:
    """Every module whose name bindings the wrappers must replace."""
    return [m for n, m in sorted(sys.modules.items()) if n.startswith("senqse.")] + [
        sys.modules[__name__]
    ]


def layer_metrics(tr: Tracer, traced_op: OpResult, untraced_op: OpResult) -> dict:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    seconds, calls, selfs, n = tr.span_seconds(), tr.span_calls(), tr.self_seconds(), tr.counts
    lookups = n["taper.xop_lookups"]
    misses = calls["taper.effective_hamiltonian"]
    slots = n["solver.rotation_slots"]

    def extra(key, unit):
        return traced_op.extras.get(key, (0, unit))

    return {
        "fermion.load_fcidump_s": (seconds["fermion.load_fcidump"], "s"),
        "fermion.jordan_wigner_s": (seconds["fermion.jordan_wigner"], "s"),
        "fermion.hamiltonian_terms": (n["fermion.hamiltonian_terms"], "count"),
        "fermion.self_s": (selfs["fermion"], "s"),
        "pauli.conjugations": (n["pauli.conjugations"], "count"),
        "taper.effective_hamiltonian_calls": (misses, "count"),
        "taper.effective_hamiltonian_s": (seconds["taper.effective_hamiltonian"], "s"),
        "taper.cache_hit_ratio": (
            max(lookups - misses, 0.0) / lookups if lookups else 0.0,
            "ratio",
        ),
        "taper.self_s": (selfs["taper"], "s"),
        "csfbasis.select_s": (
            seconds["csfbasis.select_basis_vo"] + seconds["csfbasis.select_basis_pt"],
            "s",
        ),
        "csfbasis.trim_s": (seconds["csfbasis.trim_csfs"], "s"),
        "csfbasis.extension_s": (seconds["csfbasis.extension_pairs"], "s"),
        "csfbasis.element_calls": (n["csfbasis.element_calls"], "count"),
        "csfbasis.csfs_created": (n["csfbasis.csfs_created"], "count"),
        "csfbasis.csfs_kept": (n["csfbasis.csfs_kept"], "count"),
        "csfbasis.pairs_kept": (n["csfbasis.pairs_kept"], "count"),
        "csfbasis.pair_rotations": (n["csfbasis.pair_rotations"], "count"),
        "csfbasis.basis_size": (n["csfbasis.basis_size"], "count"),
        "csfbasis.self_s": (selfs["csfbasis"], "s"),
        "solver.vo_optimize_s": (seconds["solver.vo_optimize"], "s"),
        "solver.line_searches": (n["solver.line_searches"], "count"),
        "solver.sweeps": (n["solver.line_searches"] / slots if slots else 0.0, "count"),
        "solver.element_exact_calls": (n["solver.element_exact_calls"], "count"),
        "solver.build_subspace_s": (seconds["solver.build_subspace"], "s"),
        "solver.fci_oracle_s": (seconds["solver.fci_oracle"], "s"),
        "solver.sampling_plan_s": (seconds["solver.sampling_plan"], "s"),
        "solver.draw_s": (seconds["solver.draw"], "s"),
        "solver.elements_sampled": (n["solver.elements_sampled"], "count"),
        "solver.self_s": (selfs["solver"], "s"),
        "measure.sorted_insertion_s": (seconds["measure.sorted_insertion"], "s"),
        "measure.fragments": (n["measure.fragments"], "count"),
        "measure.fragment_variance_s": (seconds["measure.fragment_variance"], "s"),
        "measure.allocate_s": (seconds["measure.allocate_and_score"], "s"),
        "measure.predicted_rmse_mha": extra("predicted_rmse_mha", "mHa"),
        "measure.self_s": (selfs["measure"], "s"),
        "simulator.fragment_sampler_s": (seconds["simulator.fragment_sampler"], "s"),
        "simulator.fragment_samplers": (calls["simulator.fragment_sampler"], "count"),
        "simulator.eigh_bytes": (n["simulator.eigh_bytes"], "bytes"),
        "simulator.sample_calls": (n["simulator.sample_calls"], "count"),
        "simulator.rng_streams": (n["simulator.rng_streams"], "count"),
        "simulator.apply_pauli_sum_calls": (n["simulator.apply_pauli_sum_calls"], "count"),
        "simulator.self_s": (selfs["simulator"], "s"),
        "resources.estimate_pair_s": (seconds["resources.estimate_pair"], "s"),
        "cli.self_s": (selfs["cli"], "s"),
        "cli.tapering_stats_s": (seconds["cli.tapering_stats"], "s"),
        "cli.output_bytes": extra("output_bytes", "bytes"),
        "trace.overhead_s": (traced_op.norm_seconds - untraced_op.norm_seconds, "s"),
        "trace.spans": (len(tr.spans), "count"),
    }
