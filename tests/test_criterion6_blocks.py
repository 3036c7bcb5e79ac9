"""tools/criterion6_blocks.py measures the statistic criterion 6 tests."""

import importlib.util
import inspect
import sys
from pathlib import Path

import test_acceptance

SCRIPT = Path(__file__).parent.parent / "tools" / "criterion6_blocks.py"


def load_script(monkeypatch):
    # the script pins BLAS threads and extends sys.path when imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("criterion6_blocks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blocks_use_criterion_6_settings(monkeypatch):
    tool = load_script(monkeypatch)
    assert tool.TUNED is test_acceptance.TUNED
    assert tool.FIXTURES == test_acceptance.FIXTURES
    source = inspect.getsource(test_acceptance.test_criterion_6_first_order_cost_model)
    assert f"total_shots = {tool.TOTAL_SHOTS:_}\n" in source
    assert f"reps = {tool.BLOCK}\n" in source
    assert "for k in range(reps):" in source
    assert f"< {tool.BOUND}\n" in source
