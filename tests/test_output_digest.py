import importlib.util
import sys
from pathlib import Path

import pytest

from senqse import solver

SCRIPT = Path(__file__).parent.parent / "tools" / "output_digest.py"


def load_script(monkeypatch):
    # the script pins BLAS threads and extends sys.path when imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_checks(tmp_path, monkeypatch):
    # PT runs need identical digests; a VO e_min may be lower than the saved
    # one, or higher by at most 1e-9 Ha; e_fci must be the saved one, except
    # in a relaxed run, which may move it by at most 1e-9 Ha
    digest = load_script(monkeypatch)
    saved = tmp_path / "parent.txt"
    saved.write_text(
        "aa  pt-h2/report.json\n"
        "bb  pt-h2/h2.basis.txt\n"
        "e_min  pt-h2/h2  -1.0  e_fci  -1.1\n"
        "cc  vo-h2/report.json\n"
        "e_min  vo-h2/a  -2.0  e_fci  -2.1\n"
        "e_min  vo-h2/b  -3.0  e_fci  -3.1\n"
        "e_min  vo-h2-relaxed/r  -4.0  e_fci  -4.1\n"
    )
    parent = digest.read_output(str(saved))
    assert parent[1] == {
        "pt-h2/h2": (-1.0, -1.1),
        "vo-h2/a": (-2.0, -2.1),
        "vo-h2/b": (-3.0, -3.1),
        "vo-h2-relaxed/r": (-4.0, -4.1),
    }
    pt_lines = [("aa", "pt-h2/report.json"), ("bb", "pt-h2/h2.basis.txt")]
    pt_summary = {"geometries": [{"label": "h2", "e_min": -1.0, "e_fci": -1.1}]}
    assert digest.compare("pt-h2", pt_lines, pt_summary, parent) == []
    changed = [("aa", "pt-h2/report.json"), ("dd", "pt-h2/h2.basis.txt")]
    assert digest.compare("pt-h2", changed, pt_summary, parent) == [
        "pt-h2/h2.basis.txt: digest differs"
    ]
    assert len(digest.compare("pt-h2", pt_lines[:1], pt_summary, parent)) == 1
    moved = {"geometries": [{"label": "h2", "e_min": -1.0, "e_fci": -1.1 + 2e-16}]}
    failures = digest.compare("pt-h2", pt_lines, moved, parent)
    assert len(failures) == 1 and failures[0].startswith("pt-h2/h2: e_fci")

    def vo(e_a, e_b, fci_a=-2.1):
        geometries = [
            {"label": "a", "e_min": e_a, "e_fci": fci_a},
            {"label": "b", "e_min": e_b, "e_fci": -3.1},
        ]
        summary = {"geometries": geometries}
        return digest.compare("vo-h2", [("ee", "vo-h2/report.json")], summary, parent)

    assert vo(-2.0 + 5e-10, -3.5) == []
    failures = vo(-2.0 + 2e-9, -3.0)
    assert len(failures) == 1 and failures[0].startswith("vo-h2/a: e_min")
    failures = vo(-2.0, -3.0, fci_a=-2.1 - 5e-10)
    assert len(failures) == 1 and failures[0].startswith("vo-h2/a: e_fci")

    def relaxed(e_fci):
        summary = {"geometries": [{"label": "r", "e_min": -4.0, "e_fci": e_fci}]}
        return digest.compare("vo-h2-relaxed", [], summary, parent)

    assert relaxed(-4.1 + 5e-10) == []
    assert len(relaxed(-4.1 + 2e-9)) == 1


def test_run_missing_from_saved_output_is_skipped(tmp_path, monkeypatch, capsys):
    # a run that an older saved output lacks is reported and not checked;
    # the runs it has are still checked
    digest = load_script(monkeypatch)
    saved = tmp_path / "parent.txt"
    saved.write_text("aa  pt-h2/report.json\n")
    parent = digest.read_output(str(saved))
    summary = {"geometries": [{"label": "h2", "e_min": -1.0, "e_fci": -1.1}]}
    assert digest.compare("vo-h2-rotation", [], summary, parent) is None
    pt_lines = [("aa", "pt-h2/report.json")]
    assert digest.compare("pt-h2", pt_lines, {"geometries": []}, parent) == []

    outputs = {
        "pt-h2": ([("aa", "pt-h2/report.json")], {"geometries": []}),
        "vo-h2-rotation": ([("bb", "vo-h2-rotation/report.json")], summary),
    }
    monkeypatch.setattr(digest, "RUNS", {name: digest.RUNS[name] for name in outputs})
    monkeypatch.setattr(digest, "digest_run", outputs.get)
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "--against", str(saved)])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        digest.main()
    err = capsys.readouterr().err
    assert stop.value.code == 0
    assert "SKIP  vo-h2-rotation" in err and "0 failed check(s)" in err

    outputs["pt-h2"] = ([("cc", "pt-h2/report.json")], {"geometries": []})
    with pytest.raises(SystemExit) as stop:
        digest.main()
    assert stop.value.code == 1


def test_vo_rotation_run_exercises_the_optimiser(tmp_path, monkeypatch):
    # the one VO run whose basis carries a rotation, so its energy gate
    # checks line searches and not only an eigensolve
    digest = load_script(monkeypatch)
    options = digest.RUNS["vo-h2-rotation"]
    assert options["method"] == "vo" and options.get("mode", "exact") == "exact"
    searches = [0]
    line_search = solver._periodic_line_search

    def counted(*args, **kwargs):
        searches[0] += 1
        return line_search(*args, **kwargs)

    monkeypatch.setattr(solver, "_periodic_line_search", counted)
    monkeypatch.chdir(digest.ROOT)
    lines, summary = digest.digest_run("vo-h2-rotation")
    assert searches[0] > 0
    [rec] = summary["geometries"]
    assert rec["n_rotations_max"] == 1
    assert abs(rec["e_min"] - rec["e_fci"]) < 1e-8
