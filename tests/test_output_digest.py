import importlib.util
import sys
from pathlib import Path

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
    # one, or higher by at most 1e-9 Ha
    digest = load_script(monkeypatch)
    saved = tmp_path / "parent.txt"
    saved.write_text(
        "aa  pt-h2/report.json\n"
        "bb  pt-h2/h2.basis.txt\n"
        "e_min  pt-h2/h2  -1.0  e_fci  -1.1\n"
        "cc  vo-h2/report.json\n"
        "e_min  vo-h2/a  -2.0  e_fci  -2.1\n"
        "e_min  vo-h2/b  -3.0  e_fci  -3.1\n"
    )
    parent = digest.read_output(str(saved))
    assert parent[1] == {"pt-h2/h2": -1.0, "vo-h2/a": -2.0, "vo-h2/b": -3.0}
    pt_lines = [("aa", "pt-h2/report.json"), ("bb", "pt-h2/h2.basis.txt")]
    pt_summary = {"geometries": [{"label": "h2", "e_min": -1.0}]}
    assert digest.compare("pt-h2", pt_lines, pt_summary, parent) == []
    changed = [("aa", "pt-h2/report.json"), ("dd", "pt-h2/h2.basis.txt")]
    assert digest.compare("pt-h2", changed, pt_summary, parent) == [
        "pt-h2/h2.basis.txt: digest differs"
    ]
    assert len(digest.compare("pt-h2", pt_lines[:1], pt_summary, parent)) == 1

    def vo(e_a, e_b):
        geometries = [{"label": "a", "e_min": e_a}, {"label": "b", "e_min": e_b}]
        summary = {"geometries": geometries}
        return digest.compare("vo-h2", [("ee", "vo-h2/report.json")], summary, parent)

    assert vo(-2.0 + 5e-10, -3.5) == []
    failures = vo(-2.0 + 2e-9, -3.0)
    assert len(failures) == 1 and failures[0].startswith("vo-h2/a: e_min")
