"""Guards on what the package holds and what importing it costs.

The package and its exact paths load NumPy only: SciPy is imported by the
Lanczos oracle (sectors above the dense cutoff) and by orbital relaxation
alone.  The check runs in a fresh interpreter, since pytest and other test
modules import SciPy themselves.  Every definition in the package is
reached by the program, the benchmark or the tools, so code that only the
tests use lives in the tests (``algebra.py``), and no package module
imports from them.  Every refusal raises a named package error, not a
builtin class.  No source file reaches the token count at which CPython's
parser grows its token array.
"""

import ast
import builtins
import collections
import os
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import senqse

FIXTURES = Path(__file__).parent / "fixtures"
PACKAGE = Path(senqse.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import importlib, pkgutil, sys

    import senqse
    for mod in pkgutil.iter_modules(senqse.__path__):
        importlib.import_module(f"senqse.{mod.name}")

    from senqse.csfbasis import default_selection_params, select_basis_pt
    from senqse.fermion import jordan_wigner, load_fcidump
    from senqse.fci import fci_oracle
    from senqse.solver import build_subspace

    ints = load_fcidump(sys.argv[1])
    hq = jordan_wigner(ints)
    fci_oracle(hq, ints.n_elec)
    basis = select_basis_pt(ints, hq, default_selection_params(ints))
    build_subspace(basis, hq, ints.n_elec, mode="exact")
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
)


def run_fresh(script: str, fixture: str, **env) -> str:
    """stdout of ``script`` in a fresh interpreter on the package source,
    given the path of the fixture ``fixture``, with ``env`` added to the
    environment."""
    src = str(PACKAGE.parent)
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script, str(FIXTURES / fixture)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_exact_h2_paths_load_no_scipy():
    assert run_fresh(SCRIPT, "h2_0.7414.fcidump") == "[]"


def definitions(tree):
    """(node, is_method) of each top-level function and class of a module
    and of each non-dunder method of its classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (sub.name[:2] == sub.name[-2:] == "__"):
                    yield sub, True


def occurrences(tree, found):
    """Add to ``found[kind, name]`` the enclosing definitions of each read
    of ``name`` in ``tree``: kind "name" for a name or an imported name,
    "attr" for an attribute or a string constant (``getattr``'s form)."""
    stack = [(tree, ())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside += (node,)
        elif isinstance(node, ast.Name):
            found["name", node.id].append(inside)
        elif isinstance(node, ast.alias):
            found["name", node.name.rpartition(".")[2]].append(inside)
        elif isinstance(node, ast.Attribute):
            found["attr", node.attr].append(inside)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found["attr", node.value].append(inside)
        stack.extend((child, inside) for child in ast.iter_child_nodes(node))


def test_every_definition_is_reachable():
    """Each function, class and non-dunder method of ``src/senqse`` is read
    in ``src/`` outside its own body, or in ``perfbench/`` or ``tools/``
    (a method as an attribute or by name in a string, as the benchmark's
    tracer rebinds it), and no package module imports from the tests."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    found = collections.defaultdict(list)
    for path in [*trees, *(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tools").rglob("*.py")]:
        occurrences(trees.get(path) or ast.parse(path.read_text()), found)
    unreached = []
    for path, tree in trees.items():
        for node, is_method in definitions(tree):
            reads = found["attr", node.name] + ([] if is_method else found["name", node.name])
            if all(node in inside for inside in reads):
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert unreached == []
    test_modules = {"tests", *(p.stem for p in Path(__file__).parent.glob("*.py"))}
    imports = [
        alias.name if isinstance(node, ast.Import) else node.module or ""
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [name for name in imports if name.split(".")[0] in test_modules] == []


def builtin_raises(tree):
    """(enclosing function or None, line, class name) of each ``raise`` of a
    builtin exception class in a module, but for one inside a ``try`` body
    whose handler, in the same function, catches that class and raises."""
    found = []

    def visit(node, func, rewrapped):
        if isinstance(node, ast.FunctionDef):
            func, rewrapped = node.name, frozenset()
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(cls, type) and issubclass(cls, BaseException):
                if exc.id not in rewrapped:
                    found.append((func, node.lineno, exc.id))
        if isinstance(node, ast.Try):
            caught = {
                handler.type.id
                for handler in node.handlers
                if isinstance(handler.type, ast.Name)
                and any(isinstance(sub, ast.Raise) for sub in ast.walk(handler))
            }
            for stmt in node.body:
                visit(stmt, func, rewrapped | caught)
            for part in (*node.handlers, *node.orelse, *node.finalbody):
                visit(part, func, rewrapped)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, func, rewrapped)

    visit(tree, None, frozenset())
    return found


def test_refusals_raise_named_errors():
    """Every ``raise`` of ``src/senqse`` raises a package error class (each a
    subclass of a builtin one, so callers that catch the builtin still do),
    with two exceptions: the config checks of ``cli.py``, whose ValueError
    ``main`` maps to exit status 2 (with the script guard's SystemExit), and
    a raise that its own function's handler rewraps (``parse_basis``)."""
    config_checks = {
        ("cli.py", "_check_value", "ValueError"),
        ("cli.py", "__post_init__", "ValueError"),
        ("cli.py", "_parse_bool", "ValueError"),
        ("cli.py", None, "SystemExit"),
    }
    bare = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for func, line, name in builtin_raises(ast.parse(path.read_text()))
        if (path.name, func, name) not in config_checks
    ]
    assert bare == []


def test_builtin_raise_guard_reads_handlers_and_functions():
    source = textwrap.dedent(
        """
        def rewrapped(text):
            try:
                raise ValueError(text)
            except ValueError as exc:
                raise KeyError(str(exc)) from None

        def swallowed():
            try:
                raise TypeError("kept")
            except TypeError:
                pass
            raise RuntimeError

        class Named(ValueError):
            pass

        raise Named("named")
        """
    )
    found = builtin_raises(ast.parse(source))
    assert found == [
        ("rewrapped", 6, "KeyError"),
        ("swallowed", 10, "TypeError"),
        ("swallowed", 13, "RuntimeError"),
    ]


# CPython's parser doubles its token array when a file reaches this many
# tokens (comments, non-logical newlines and the encoding not counted)
PARSER_TOKEN_ARRAY = 8192


def test_sources_stay_below_the_parser_token_doubling():
    """Every ``src/senqse`` file holds fewer than 8192 parser tokens.

    Running from source compiles every module anew when no bytecode is
    written, and a file past the doubling point keeps more memory after
    the import.  ``solver.py`` at 8479 tokens raised the ``shot-study``
    benchmark's median ``peak_rss_mb`` by 0.16 MB over 5 pairs of runs,
    although that workload never calls the code that was added.
    """
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.name] = sum(
                1 for tok in tokenize.tokenize(fh.readline) if tok.type not in skip
            )
    assert counts and all(n < PARSER_TOKEN_ARRAY for n in counts.values()), counts
