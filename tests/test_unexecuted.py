import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "tools" / "unexecuted.py"

SOURCE = '''\
"""Module docstring."""
import functools


@functools.lru_cache
def f(flag):
    """Docstring."""
    if flag:
        return 1
    try:
        value = int(
            "2"
        )
    except ValueError:
        raise RuntimeError("never")
    return value


def g():
    return 3
'''


def load_script():
    spec = importlib.util.spec_from_file_location("unexecuted", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statement_lines_own_headers_and_whole_simple_statements():
    tool = load_script()
    lines = tool.statement_lines(SOURCE)
    # no docstring, no try header; the decorator belongs to its def
    assert sorted(lines) == [2, 5, 8, 9, 11, 15, 16, 19, 20]
    assert lines[5] == {5, 6}
    assert lines[8] == {8}
    assert lines[11] == {11, 12, 13}


def test_unexecuted_lists_what_a_run_did_not_reach(tmp_path, monkeypatch):
    tool = load_script()
    path = tmp_path / "toy.py"
    path.write_text(SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "toy", raising=False)

    def run():
        import toy

        assert toy.f(False) == 2

    sources = tool.read_sources(str(tmp_path))
    assert sources == {str(path): SOURCE}
    hits = tool.traced_run(run, str(tmp_path))
    # an edit after the sources were read does not move the report
    path.write_text("\n\n" + SOURCE)
    assert tool.unexecuted(str(path), sources[str(path)], hits) == [
        (9, "return 1"),
        (15, 'raise RuntimeError("never")'),
        (20, "return 3"),
    ]
