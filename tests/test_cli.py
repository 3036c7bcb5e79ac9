import gc
import itertools
import json
import re
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from senqse.cli import (
    ConfigError,
    RunConfig,
    bond_parameter,
    build_parser,
    config_from_args,
    main,
    parse_config_file,
    run,
)
from senqse import cli, csfbasis, measure, resources, simulator, solver, taper
from senqse.csfbasis import CsfElementEngine, parse_basis
from senqse.fermion import jordan_wigner, load_fcidump
from senqse.measure import allocate_and_score
from senqse.solver import (
    MatrixSampler,
    SubspaceEngine,
    build_subspace,
    ground_state,
    make_matrix_sampler,
)

FIXTURES = Path(__file__).parent / "fixtures"
H2_PATHS = [str(FIXTURES / f"h2_{r}.fcidump") for r in ("0.7414", "1.0000", "1.5000")]
H2O_PATH = str(FIXTURES / "h2o_1.0000.fcidump")
TUNED = dict(eps1=1e-5, eps2=1e-6, n_active_occ=5)

# the command-line surface, pinned action by action: (option strings,
# dest, type, choices, default, action class)
PARSER_SURFACE = [
    (["-h", "--help"], "help", None, None, "==SUPPRESS==", "_HelpAction"),
    ([], "fcidump", None, None, None, "_StoreAction"),
    (["--config"], "config", None, None, None, "_StoreAction"),
    (["--method"], "method", None, ("vo", "pt"), None, "_StoreAction"),
    (["--mode"], "mode", None, ("exact", "sampled"), None, "_StoreAction"),
    (["--shots"], "shots", int, None, None, "_StoreAction"),
    (["--seed"], "seed", int, None, None, "_StoreAction"),
    (["--out"], "out_dir", None, None, None, "_StoreAction"),
    (["--eps1"], "eps1", float, None, None, "_StoreAction"),
    (["--eps2"], "eps2", float, None, None, "_StoreAction"),
    (["--root-window"], "root_window", float, None, None, "_StoreAction"),
    (["--active-occ"], "n_active_occ", int, None, None, "_StoreAction"),
    (["--active-virt"], "n_active_virt", int, None, None, "_StoreAction"),
    (["--workers"], "workers", int, None, None, "_StoreAction"),
    (["--no-taper"], "taper", None, None, None, "_StoreFalseAction"),
    (["--no-constant-shift"], "constant_shift", None, None, None, "_StoreFalseAction"),
    (["--relax-orbitals"], "relax_orbitals", None, None, None, "_StoreTrueAction"),
]

# one config-file line per key and the value it parses to
CONFIG_LINES = [
    ("fcidump_paths = a.fcidump, b.fcidump,", "fcidump_paths", ("a.fcidump", "b.fcidump")),
    ("labels = x , y", "labels", ("x", "y")),
    ("method = pt", "method", "pt"),
    ("mode = sampled", "mode", "sampled"),
    ("shots = 250", "shots", 250),
    ("seed = 7", "seed", 7),
    ("Out_Dir = some/dir", "out_dir", "some/dir"),
    ("eps1 = 1e-3", "eps1", 1e-3),
    ("eps2 = 2", "eps2", 2.0),
    ("root_window = 0", "root_window", 0.0),
    ("n_active_occ = 4", "n_active_occ", 4),
    ("n_active_virt = 2", "n_active_virt", 2),
    ("workers = 3", "workers", 3),
    ("taper = No", "taper", False),
    ("constant_shift = TRUE", "constant_shift", True),
    ("relax_orbitals = 1", "relax_orbitals", True),
]


class TestConfig:
    def test_requires_paths(self):
        with pytest.raises(ValueError):
            RunConfig(fcidump_paths=())

    def test_labels_derived_from_filenames(self):
        cfg = RunConfig(fcidump_paths=tuple(H2_PATHS))
        assert cfg.labels == ("h2_0.7414", "h2_1.0000", "h2_1.5000")

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "fcidump_paths = a.fcidump, b.fcidump\n"
            "method = pt\n"
            "shots = 5000  # inline comment\n"
            "eps1 = 1e-5\n"
            "taper = false\n"
        )
        values = parse_config_file(str(path))
        assert values["fcidump_paths"] == ("a.fcidump", "b.fcidump")
        assert values["method"] == "pt"
        assert values["shots"] == 5000
        assert values["eps1"] == 1e-5
        assert values["taper"] is False

    def test_config_file_blank_and_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\n# a comment line\nmethod = pt\n   \n\t\n\nshots = 7\n \n")
        assert parse_config_file(str(path)) == {"method": "pt", "shots": 7}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(path))

    @pytest.mark.parametrize(
        "line, key",
        [
            ("taper = maybe", "taper"),
            ("shots = ten", "shots"),
            ("eps1 = abc", "eps1"),
            ("Workers = 1.5", "workers"),
            ("workers = 0", "workers"),
            ("workers = -3", "workers"),
            ("method = bogus", "method"),
            ("mode = fast", "mode"),
        ],
    )
    def test_bad_value_names_file_line_and_key(self, tmp_path, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"method = pt\n# comment\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: bad value .* for {key}: "):
            parse_config_file(str(path))

    def test_malformed_line_is_a_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("method pt\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: expected KEY=VALUE"):
            parse_config_file(str(path))

    def test_main_reports_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"fcidump_paths = {H2_PATHS[0]}\nshots = ten\n")
        assert main(["--config", str(path)]) == 2
        assert f"{path}:2: bad value 'ten' for shots" in capsys.readouterr().err

    def test_main_rejects_sampled_run_without_shots(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [H2_PATHS[0], "--mode", "sampled", "--shots", "0", "--out", str(out)]
        assert main(argv) == 2
        assert "sampled mode needs shots >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_main_rejects_sampled_run_without_taper(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [H2_PATHS[0], "--no-taper", "--mode", "sampled", "--shots", "1000"]
        assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
        assert "sampled mode needs the tapered representation" in capsys.readouterr().err
        assert not out.exists()

    def test_main_rejects_labels_that_do_not_match_paths(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"fcidump_paths = {', '.join(H2_PATHS[:2])}\nlabels = only\n")
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "labels must match fcidump_paths" in capsys.readouterr().err
        assert not out.exists()

    def test_main_rejects_zero_workers(self, tmp_path, capsys):
        argv = [H2_PATHS[0], "--workers", "0", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "workers must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        # two geometries whose files share a basename would write one set of
        # output files and, with workers, one report record
        other = tmp_path / "h2_0.7414.fcidump"
        shutil.copy(H2_PATHS[2], other)
        paths = (H2_PATHS[0], str(other))
        with pytest.raises(ValueError, match="duplicate geometry label 'h2_0.7414'"):
            RunConfig(fcidump_paths=paths)
        with pytest.raises(ValueError, match="duplicate geometry label 'a'"):
            RunConfig(fcidump_paths=tuple(H2_PATHS[:2]), labels=("a", "a"))
        out = tmp_path / "out"
        assert main([*paths, "--workers", "2", "--out", str(out)]) == 2
        assert "duplicate geometry label 'h2_0.7414'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, flag, value",
        [
            ("eps1", "--eps1", 0.0),
            ("eps1", "--eps1", 2.0),
            ("eps2", "--eps2", 0.0),
            ("eps2", "--eps2", -0.5),
            ("root_window", "--root-window", -0.1),
            ("n_active_occ", "--active-occ", 0),
            ("n_active_virt", "--active-virt", 0),
            ("seed", "--seed", -1),
        ],
    )
    def test_out_of_range_setting_refused_up_front(
        self, tmp_path, capsys, key, flag, value
    ):
        with pytest.raises(ValueError, match=f"^{key} must"):
            RunConfig(fcidump_paths=(H2_PATHS[0],), **{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"fcidump_paths = {H2_PATHS[0]}\n{key} = {value}\n")
        where = f"^{re.escape(str(path))}:2: bad value '{value}' for {key}: {key} must"
        with pytest.raises(ConfigError, match=where):
            parse_config_file(str(path))
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert f"{path}:2: bad value '{value}' for {key}" in capsys.readouterr().err
        assert main([H2_PATHS[0], flag, str(value), "--out", str(out)]) == 2
        assert f"error: {key} must" in capsys.readouterr().err
        assert not out.exists()

    def test_parser_surface_is_pinned(self):
        actions = [
            (a.option_strings, a.dest, a.type, a.choices, a.default, type(a).__name__)
            for a in build_parser()._actions
        ]
        assert actions == PARSER_SURFACE

    @pytest.mark.parametrize("line, key, expected", CONFIG_LINES)
    def test_each_config_key_parses(self, tmp_path, line, key, expected):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        values = parse_config_file(str(path))
        assert values == {key: expected}
        assert type(values[key]) is type(expected)

    def test_cli_overrides_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"fcidump_paths = {H2_PATHS[0]}\nmethod = pt\n")
        args = build_parser().parse_args(["--config", str(path), "--method", "vo"])
        cfg = config_from_args(args)
        assert cfg.method == "vo"

    def test_bond_parameter(self):
        assert bond_parameter("h2o_2.1000", 5) == pytest.approx(2.1)
        assert bond_parameter("nofloat", 5) == 5.0


class TestRun:
    def test_h2_curve(self, tmp_path):
        cfg = RunConfig(
            fcidump_paths=tuple(H2_PATHS), method="vo", out_dir=str(tmp_path / "out")
        )
        report = run(cfg)
        assert not report["failures"]
        rows = (tmp_path / "out" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 geometries
        header = rows[0].split(",")
        for row in rows[1:]:
            rec = dict(zip(header, row.split(",")))
            assert abs(float(rec["error"])) < 1e-8
        for rec in report["geometries"]:
            assert (tmp_path / "out" / f"{rec['label']}.basis.txt").exists()
            assert (tmp_path / "out" / f"{rec['label']}.cost.txt").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_pt_row_reports_metric(self, tmp_path):
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[0],), method="pt", out_dir=str(tmp_path / "out")
        )
        report = run(cfg)
        rec = report["geometries"][0]
        assert rec["n_states"] >= 2
        assert rec["metric"] is not None
        assert abs(rec["error"]) < 1e-8  # two-orbital case is exact

    def test_deterministic_report(self, tmp_path):
        out = tmp_path / "out"
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[0],),
            method="vo",
            mode="sampled",
            shots=2000,
            seed=42,
            out_dir=str(out),
        )
        run(cfg)
        first = (out / "report.json").read_bytes()
        run(cfg)
        second = (out / "report.json").read_bytes()
        assert first == second

    def test_sampled_report_carries_predicted_error(self, tmp_path):
        # a strict trim leaves H2 one state with a rotation, so the diagonal
        # element is sampled
        out = tmp_path / "sampled"
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[2],),
            method="vo",
            mode="sampled",
            shots=2000,
            seed=5,
            eps1=0.5,
            out_dir=str(out),
        )
        run(cfg)
        rec = json.loads((out / "report.json").read_text())["geometries"][0]
        assert rec["n_rotations_max"] == 1
        ints = load_fcidump(H2_PATHS[2])
        basis = parse_basis((out / f"{rec['label']}.basis.txt").read_text())
        engine = SubspaceEngine(basis, jordan_wigner(ints), ints.n_elec)
        sampler = make_matrix_sampler(engine, cfg.shots)
        assert rec["first_order_mse"] == sampler.first_order_mse > 0.0
        assert rec["second_order_bias"] == sampler.second_order_bias
        exact = run(replace(cfg, mode="exact", out_dir=str(tmp_path / "exact")))
        assert "first_order_mse" not in exact["geometries"][0]
        assert "second_order_bias" not in exact["geometries"][0]

    def test_sampled_report_carries_floor_count(self, tmp_path):
        out = tmp_path / "sampled"
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[2],),
            method="vo",
            mode="sampled",
            shots=2000,
            seed=5,
            eps1=0.5,
            out_dir=str(out),
        )
        run(cfg)
        rec = json.loads((out / "report.json").read_text())["geometries"][0]
        ints = load_fcidump(H2_PATHS[2])
        basis = parse_basis((out / f"{rec['label']}.basis.txt").read_text())
        engine = SubspaceEngine(basis, jordan_wigner(ints), ints.n_elec)
        sampler = make_matrix_sampler(engine, cfg.shots)
        # one state: no gap, so no error floor beyond one shot per fragment
        assert rec["elements_at_floor"] == sampler.elements_at_floor == 0
        fragments = sum(len(sigs) for _, sigs in sampler.plan.values() if sum(sigs) > 0)
        assert rec["floor_shots"] == sampler.floor_shots == fragments > 0
        assert rec["shots_total"] == cfg.shots
        exact = run(replace(cfg, mode="exact", out_dir=str(tmp_path / "exact")))
        assert "elements_at_floor" not in exact["geometries"][0]
        assert "floor_shots" not in exact["geometries"][0]

    def test_sampled_cost_report_from_one_plan(self, tmp_path, monkeypatch):
        # the cost report reuses the sampled build's plan and exact skeleton
        plans = []
        sampling_plan = SubspaceEngine.sampling_plan

        def counted(self, exact):
            plans.append(self.size)
            return sampling_plan(self, exact)

        monkeypatch.setattr(SubspaceEngine, "sampling_plan", counted)
        out = tmp_path / "sampled"
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[2],),
            method="vo",
            mode="sampled",
            shots=2000,
            seed=5,
            eps1=0.5,
            out_dir=str(out),
        )
        rec = run(cfg)["geometries"][0]
        assert plans == [1]
        ints = load_fcidump(H2_PATHS[2])
        hq = jordan_wigner(ints)
        basis = parse_basis((out / f"{rec['label']}.basis.txt").read_text())
        report = build_subspace(basis, hq, ints.n_elec, compute_sigma=True).cost
        assert rec["metric"] == report.metric
        text = report.to_text(rec["label"], rec["bond"], "vo")
        assert (out / f"{rec['label']}.cost.txt").read_text() == text
        # the sampled build's report: its sampler's plan, weighted by the
        # exact matrix's ground vector
        problem = build_subspace(
            basis, hq, ints.n_elec, mode="sampled", shots=cfg.shots, seed=cfg.seed
        )
        sampler = problem.sampler
        sigma, fragment_sigmas = SubspaceEngine(basis, hq, ints.n_elec).sigma_matrix(
            sampler.plan
        )
        want = allocate_and_score(sigma, ground_state(sampler.exact)[1], fragment_sigmas)
        assert np.array_equal(problem.cost.sigma, want.sigma)
        assert problem.cost.metric == want.metric
        assert problem.cost.element_proportions == want.element_proportions
        assert problem.cost.fragment_proportions == want.fragment_proportions

    def test_exact_mode_independent_of_seed(self, tmp_path):
        recs = []
        for seed in (1, 99):
            cfg = RunConfig(
                fcidump_paths=(H2_PATHS[0],),
                method="vo",
                seed=seed,
                out_dir=str(tmp_path / f"out{seed}"),
            )
            recs.append(run(cfg)["geometries"][0]["e_min"])
        assert recs[0] == recs[1]

    def test_no_taper_ablation(self, tmp_path):
        cfgs = {
            flag: RunConfig(
                fcidump_paths=(H2_PATHS[0],),
                method="pt",
                taper=flag,
                out_dir=str(tmp_path / f"out_{flag}"),
            )
            for flag in (True, False)
        }
        rec_on = run(cfgs[True])["geometries"][0]
        rec_off = run(cfgs[False])["geometries"][0]
        assert rec_on["e_min"] == pytest.approx(rec_off["e_min"], abs=1e-10)
        assert rec_off["term_stats"]["avg_term_ratio"] == 1.0
        assert rec_on["term_stats"]["avg_term_ratio"] < 1.0

    def test_no_taper_counts_original_terms_like_tapered(self, tmp_path):
        # both count the Hamiltonian's non-identity terms: 14 of H2's 15
        counts = [
            run(
                RunConfig(
                    fcidump_paths=(H2_PATHS[0],),
                    method="pt",
                    taper=flag,
                    out_dir=str(tmp_path / f"out_{flag}"),
                )
            )["geometries"][0]["term_stats"]["original_terms"]
            for flag in (True, False)
        ]
        assert counts == [14, 14]

    def test_failures_logged_and_skipped(self, tmp_path):
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[0], str(tmp_path / "missing.fcidump")),
            out_dir=str(tmp_path / "out"),
        )
        report = run(cfg)
        assert len(report["geometries"]) == 1
        assert len(report["failures"]) == 1

    @pytest.mark.parametrize("taper", [True, False])
    @pytest.mark.parametrize("e_core", [0.0, -0.5], ids=["all-zero", "e_core-only"])
    def test_hamiltonian_of_the_identity_alone_is_refused(self, tmp_path, e_core, taper):
        # zero integrals leave no term, e_core alone only the identity:
        # nothing to measure, refused by name before the tapering ratios
        # divide by zero and before the FCI oracle indexes an empty sum
        records = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 2, 2, 2), (1, 1, 0, 0), (2, 2, 0, 0)]
        lines = [f"0.0 {i} {j} {k} {l}" for i, j, k, l in records] + [f"{e_core} 0 0 0 0"]
        path = tmp_path / "flat.fcidump"
        path.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n" + "\n".join(lines) + "\n")
        cfg = RunConfig(
            fcidump_paths=(str(path),), method="pt", taper=taper, out_dir=str(tmp_path / "out")
        )
        report = run(cfg)
        error = "qubit Hamiltonian has no term but the identity"
        assert report["failures"] == [{"label": "flat", "error": error}]

    @pytest.mark.parametrize("nelec", [6, -2])
    def test_electron_count_outside_register_is_named(self, tmp_path, nelec):
        # refused at parse, not later as an empty active set
        path = tmp_path / "bad.fcidump"
        text = Path(H2_PATHS[2]).read_text()
        path.write_text(text.replace("NELEC=2,", f"NELEC={nelec},"))
        report = run(RunConfig(fcidump_paths=(str(path),), out_dir=str(tmp_path / "out")))
        assert not report["geometries"]
        [failure] = report["failures"]
        assert failure["label"] == "bad"
        assert f"NELEC={nelec} " in failure["error"] and "NORB=2" in failure["error"]

    def test_main_exit_codes(self, tmp_path):
        assert main([H2_PATHS[0], "--out", str(tmp_path / "ok")]) == 0
        assert main([str(tmp_path / "none.fcidump"), "--out", str(tmp_path / "bad")]) == 1

    def test_workers_parallel_matches_serial(self, tmp_path):
        # records and output files are equal but for config.workers
        out = tmp_path / "out"
        runs = []
        for workers in (1, 2):
            report = run(
                RunConfig(
                    fcidump_paths=tuple(H2_PATHS[:2]), workers=workers, out_dir=str(out)
                )
            )
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            saved = json.loads(files.pop("report.json"))
            for summary in (report, saved):
                assert summary["config"].pop("workers") == workers
            runs.append((report, saved, files))
            shutil.rmtree(out)
        assert runs[0] == runs[1]
        assert len(runs[0][0]["geometries"]) == 2 and not runs[0][0]["failures"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failures_listed_in_job_order(self, tmp_path, monkeypatch, workers):
        monkeypatch.setattr(cli, "run_geometry", fail_first_job_last)
        cfg = RunConfig(
            fcidump_paths=tuple(H2_PATHS[:2]),
            labels=("a", "b"),
            workers=workers,
            out_dir=str(tmp_path / "out"),
        )
        report = run(cfg)
        assert [f["label"] for f in report["failures"]] == ["a", "b"]
        assert report["failures"][0]["error"] == "a failed"
        assert report["geometries"] == []


def fail_first_job_last(path, label, bond, config):
    """A geometry run that fails, job 'a' well after job 'b'."""
    time.sleep(0.5 if label == "a" else 0.0)
    raise RuntimeError(f"{label} failed")


def run_one_geometry(path, tmp_path, **options):
    cfg = RunConfig(fcidump_paths=(path,), out_dir=str(tmp_path), **options)
    return cli.run_geometry(path, cfg.labels[0], 1.0, cfg)


def record_tables(monkeypatch) -> list:
    """The Hamiltonian of every SectorHamiltonian built from here on."""
    built = []
    init = taper.SectorHamiltonian.__init__

    def recording(self, hq, *args, **kwargs):
        built.append(hq)
        init(self, hq, *args, **kwargs)

    monkeypatch.setattr(taper.SectorHamiltonian, "__init__", recording)
    return built


class TestResources:
    def test_pair_estimates_match_all_pairs(self, tmp_path, monkeypatch):
        # one estimate per distinct (kind, omega, rotation count) of bra and
        # ket; the means and maxima are the all-pairs ones, bit for bit
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return resources.estimate_pair(*args)

        monkeypatch.setattr(cli, "estimate_pair", counted)
        rec = run_one_geometry(H2O_PATH, tmp_path, method="pt", **TUNED)
        basis = parse_basis(rec["basis_text"])
        costs = [
            resources.estimate_pair(a, b, rec["n_orbitals"], rec["n_electrons"])
            for a, b in itertools.combinations(basis, 2)
        ]
        assert len(costs) == 435 and 0 < calls[0] < len(costs)
        assert rec["cnots_avg"] == float(np.mean([c.cnots for c in costs]))
        assert rec["cnots_max"] == int(max(c.cnots for c in costs))
        assert rec["depth_avg"] == float(np.mean([c.depth for c in costs]))
        assert rec["depth_max"] == int(max(c.depth for c in costs))


class TestElementKernel:
    def test_pt_geometry_applies_each_product_once(self, tmp_path, monkeypatch):
        # H2O 1.0 A PT: 318 distinct (bra config, ket CSF) products in
        # selection and 63 more in the build, all from one sector table
        calls = [0]
        apply_pauli_sum = simulator.apply_pauli_sum

        def counted(*args):
            calls[0] += 1
            return apply_pauli_sum(*args)

        for module in (csfbasis, solver, measure):
            monkeypatch.setattr(module, "apply_pauli_sum", counted)
        tables = record_tables(monkeypatch)
        run_one_geometry(H2O_PATH, tmp_path, method="pt", **TUNED)
        assert 0 < calls[0] <= 381
        assert len(tables) == 1

    @pytest.mark.parametrize(
        "options",
        [
            dict(method="pt"),
            dict(method="vo"),
            dict(method="vo", mode="sampled", shots=2000, seed=5),
            dict(method="vo", relax_orbitals=True),
        ],
        ids=["pt", "vo", "vo-sampled", "vo-relaxed"],
    )
    def test_each_engine_builds_its_exact_matrix_once(self, tmp_path, monkeypatch, options):
        # the constant shift and vo_optimize's returned problem read the
        # matrix their engine already built
        builds = {}
        exact_matrix = SubspaceEngine.exact_matrix

        def counted(self):
            builds[self] = builds.get(self, 0) + 1
            return exact_matrix(self)

        monkeypatch.setattr(SubspaceEngine, "exact_matrix", counted)
        run_one_geometry(H2_PATHS[2], tmp_path, eps1=0.5, **options)
        assert builds and set(builds.values()) == {1}

    def test_vo_geometry_builds_one_table(self, tmp_path, monkeypatch):
        tables = record_tables(monkeypatch)
        run_one_geometry(H2O_PATH, tmp_path, method="vo", **TUNED)
        assert len(tables) == 1

    def test_relaxed_geometry_builds_one_table_per_hamiltonian(
        self, tmp_path, monkeypatch
    ):
        # the run's own two Hamiltonians (before and after relaxation) get
        # one table each; every Hamiltonian the relaxation tries gets one
        tables = record_tables(monkeypatch)
        inside = []
        relax = cli.relax_orbitals

        def marked(*args, **kwargs):
            start = len(tables)
            out = relax(*args, **kwargs)
            inside.extend(tables[start:])
            return out

        monkeypatch.setattr(cli, "relax_orbitals", marked)
        run_one_geometry(H2_PATHS[0], tmp_path, method="vo", relax_orbitals=True)
        assert len(tables) - len(inside) == 2 and inside
        assert len({id(hq) for hq in tables}) == len(tables)

    def test_relaxed_run_reads_only_the_relaxed_kernel(self, tmp_path, monkeypatch):
        # after relaxation every operator and product comes from the kernel
        # of the relaxed Hamiltonian, a distinct object even where the
        # relaxation leaves the orbitals in place
        hqs, phase, reads = [], ["before"], []
        jordan_wigner_ = cli.jordan_wigner
        relax = cli.relax_orbitals

        def recorded_jw(ints):
            hqs.append(jordan_wigner_(ints))
            return hqs[-1]

        def marked(*args, **kwargs):
            phase[0] = "during"
            out = relax(*args, **kwargs)
            phase[0] = "after"
            return out

        def reading(method):
            def wrapper(self, *args):
                reads.append((phase[0], self.hq))
                return method(self, *args)

            return wrapper

        monkeypatch.setattr(cli, "jordan_wigner", recorded_jw)
        monkeypatch.setattr(cli, "relax_orbitals", marked)
        for name in ("block", "xop"):
            method = getattr(CsfElementEngine, name)
            monkeypatch.setattr(CsfElementEngine, name, reading(method))
        rec = run_one_geometry(H2_PATHS[0], tmp_path, method="vo", relax_orbitals=True)
        assert len(hqs) == 2 and hqs[0] is not hqs[1]
        after = [hq for when, hq in reads if when == "after"]
        assert after and all(hq is hqs[1] for hq in after)
        assert rec["e_min"] == rec["relaxation"]["e_min"]

    def test_exact_mode_sigmas_match_sampling_plan(self, tmp_path, monkeypatch):
        # the exact cost report's sigmas are the ones a sampling plan carries
        results = []
        sigma_matrix = SubspaceEngine.sigma_matrix

        def kept(self, plan):
            out = sigma_matrix(self, plan)
            results.append((self, out))
            return out

        monkeypatch.setattr(SubspaceEngine, "sigma_matrix", kept)
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[2],), method="vo", eps1=0.5, out_dir=str(tmp_path)
        )
        rec = run(cfg)["geometries"][0]
        assert rec["metric"] > 0.0
        [(engine, (sigma, fragment_sigmas))] = results
        plan = engine.sampling_plan(engine.exact_matrix())
        plan_sigma, plan_fragments = sigma_matrix(engine, plan)
        assert np.array_equal(sigma, plan_sigma) and fragment_sigmas == plan_fragments

    def test_oracle_runs_with_no_kernel_or_sampler_alive(self, tmp_path, monkeypatch):
        # the oracle's sector matrix is the geometry's largest allocation, so
        # the driver lets the element kernel and the sampler go before it
        def held():
            gc.collect()
            kinds = (CsfElementEngine, MatrixSampler)
            return {id(o): type(o) for o in gc.get_objects() if isinstance(o, kinds)}

        before, alive = held(), []
        fci_oracle = cli.fci_oracle

        def watched(*args):
            alive.append([kind for key, kind in held().items() if key not in before])
            return fci_oracle(*args)

        monkeypatch.setattr(cli, "fci_oracle", watched)
        for mode in ("sampled", "exact"):
            rec = run_one_geometry(
                H2_PATHS[2], tmp_path, method="vo", mode=mode, shots=2000, seed=5, eps1=0.5
            )
            assert rec["metric"] > 0.0
        assert alive == [[], []]
