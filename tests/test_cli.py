import json
import re
import shutil
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
from senqse.csfbasis import parse_basis
from senqse.fermion import jordan_wigner, load_fcidump
from senqse.measure import allocate_and_score
from senqse.solver import SubspaceEngine, build_subspace, make_matrix_sampler

FIXTURES = Path(__file__).parent / "fixtures"
H2_PATHS = [str(FIXTURES / f"h2_{r}.fcidump") for r in ("0.7414", "1.0000", "1.5000")]


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
        # one state: no gap, so no error floor
        assert rec["elements_at_floor"] == sampler.elements_at_floor == 0
        exact = run(replace(cfg, mode="exact", out_dir=str(tmp_path / "exact")))
        assert "elements_at_floor" not in exact["geometries"][0]

    def test_sampled_cost_report_from_one_plan(self, tmp_path, monkeypatch):
        # the cost report reuses the sampled build's plan and exact skeleton
        plans = []
        sampling_plan = SubspaceEngine.sampling_plan

        def counted(self):
            plans.append(self.size)
            return sampling_plan(self)

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
        basis = parse_basis((out / f"{rec['label']}.basis.txt").read_text())
        exact = build_subspace(
            basis, jordan_wigner(ints), ints.n_elec, mode="exact", compute_sigma=True
        )
        report = allocate_and_score(
            exact.sigma,
            np.asarray(exact.c0, dtype=float),
            exact.fragment_sigmas,
            system=rec["label"],
            bond=rec["bond"],
            method="vo",
        )
        assert rec["metric"] == report.metric
        assert (out / f"{rec['label']}.cost.txt").read_text() == report.to_text()

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

    def test_failures_logged_and_skipped(self, tmp_path):
        cfg = RunConfig(
            fcidump_paths=(H2_PATHS[0], str(tmp_path / "missing.fcidump")),
            out_dir=str(tmp_path / "out"),
        )
        report = run(cfg)
        assert len(report["geometries"]) == 1
        assert len(report["failures"]) == 1

    def test_main_exit_codes(self, tmp_path):
        assert main([H2_PATHS[0], "--out", str(tmp_path / "ok")]) == 0
        assert main([str(tmp_path / "none.fcidump"), "--out", str(tmp_path / "bad")]) == 1

    def test_workers_parallel_matches_serial(self, tmp_path):
        serial = run(
            RunConfig(
                fcidump_paths=tuple(H2_PATHS[:2]),
                out_dir=str(tmp_path / "serial"),
            )
        )
        parallel = run(
            RunConfig(
                fcidump_paths=tuple(H2_PATHS[:2]),
                workers=2,
                out_dir=str(tmp_path / "parallel"),
            )
        )
        for a, b in zip(serial["geometries"], parallel["geometries"]):
            assert a["e_min"] == b["e_min"]
