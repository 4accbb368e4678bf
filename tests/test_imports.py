"""Static import hygiene of the package, checked on the source with ``ast``.

Every name a module imports must be used in it (a name listed in the
module's ``__all__`` counts as used), every name in ``__all__`` must be
bound at module level, no module may import a private (single-underscore)
name from another netdp module, every private module-level name must be
read somewhere in the package outside its own definition, and no module may
import scipy: the runtime needs numpy and the standard library alone.  A
subprocess check confirms that no CLI path loads scipy at run time either.
Random generators come from ``core`` alone: no other module calls anything
under ``np.random`` or imports from it, so every stream is keyed by the one
seed hash in ``core``.  Entropy words are built in ``core`` alone too: no
other module calls or imports ``seed_sequence_state``, so stream keys and
derived seeds share one encoding.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netdp"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, mapped to their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]


def module_level_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's top-level statements (not inside functions or classes)."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return bound


def dangling_exports(source: str) -> list[str]:
    """Names listed in ``__all__`` that the module never binds."""
    tree = ast.parse(source)
    return sorted(exported_names(tree) - module_level_names(tree))


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(source: str) -> list[str]:
    """Private names imported from, or read off, another netdp module."""
    tree = ast.parse(source)
    found, package_aliases = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "netdp"
        if not internal:
            continue
        for alias in node.names:
            if is_private(alias.name):
                found.append(f"{alias.name} (line {node.lineno})")
            if node.module is None or node.module == "netdp":  # `from . import accountant as acct`
                package_aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in package_aliases and is_private(node.attr)):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def name_refs(node: ast.AST) -> Counter:
    """How often each name appears as an ``ast.Name`` or ``ast.Attribute`` under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` (file name -> source) that no
    ``ast.Name`` or ``ast.Attribute`` in any of them reads, outside the
    statement that defines the name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = sum((name_refs(tree) for tree in trees.values()), Counter())
    found = []
    for file, tree in trees.items():
        for stmt in tree.body:
            own = name_refs(stmt)
            defined = module_level_names(ast.Module(body=[stmt], type_ignores=[]))
            for name in sorted(filter(is_private, defined)):
                if refs[name] == own[name]:
                    found.append(f"{file}: {name} (line {stmt.lineno})")
    return found


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy or any of its submodules, wherever they appear."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        else:
            continue
        found += [f"{m} (line {node.lineno})" for m in modules if m.split(".")[0] == "scipy"]
    return found


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a chain of attributes on a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def numpy_random_uses(source: str) -> list[str]:
    """Calls of anything under ``np.random`` or ``numpy.random``, and imports
    from ``numpy.random``; annotations such as ``np.random.Generator`` are
    not calls and pass."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name.split(".")[:2] in (["np", "random"], ["numpy", "random"]):
                found.append(f"{name} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
            found += [f"{n} (line {node.lineno})" for n in names if n.startswith("numpy.random")]
        elif isinstance(node, ast.Import):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("numpy.random")]
    return found


def seed_hash_uses(source: str) -> list[str]:
    """Calls of ``seed_sequence_state`` (bare or as an attribute) and
    imports of it, wherever they appear."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name.split(".")[-1] == "seed_sequence_state":
                found.append(f"{name} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{alias.name} (line {node.lineno})" for alias in node.names
                      if alias.name == "seed_sequence_state"]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_bound(path):
    assert dangling_exports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    assert scipy_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "core.py"], ids=lambda p: p.name)
def test_generators_come_from_core(path):
    assert numpy_random_uses(path.read_text()) == []


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "core.py"], ids=lambda p: p.name)
def test_entropy_words_come_from_core(path):
    assert seed_hash_uses(path.read_text()) == []


def test_no_dead_private_names():
    assert dead_private_names({path.name: path.read_text() for path in MODULES}) == []


RUNTIME_PROBE = """
import sys
from pathlib import Path
from netdp import cli

out = Path(sys.argv[1])
sgd = out / "sgd.conf"
sgd.write_text("dataset = synthetic\\nn = 20\\npoints_per_user = 8\\ndim = 5\\n"
               "T = 60\\neps = 10\\ndelta = 1e-6\\ntune_seeds = 1\\n")
calls = [
    ["sigma_search", "--set", "eps=1.0", "--set", "delta=1e-6", "--set", "T_u=10", "--set", "n=500"],
    ["sgd_compare", "--config", str(sgd), "--runs", "2"],
    ["empirical_sweep", "--set", "n_grid=12", "--set", "t_factor=10", "--runs", "2"],
]
for argv in calls:
    if cli.main(["--experiment", *argv, "--out", str(out)]) != 0:
        sys.exit(f"failed: {argv}")
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    # a fresh interpreter: pytest's own process has scipy loaded by other tests
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUNTIME_PROBE, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestCheckers:
    def test_unused_import_is_reported(self):
        src = "import math\nfrom .core import RING, COMPLETE\nx = RING\n"
        assert unused_imports(src) == ["math (line 1)", "COMPLETE (line 2)"]

    def test_all_and_annotations_count_as_uses(self):
        src = ("from __future__ import annotations\nfrom typing import Literal\n"
               "from .core import RING\n__all__ = ['RING']\ndef f(x: Literal['a']): pass\n")
        assert unused_imports(src) == []

    def test_dangling_all_entry_is_reported(self):
        src = ("from .core import RING\nX: int = 1\nY = Z = 2\ndef f(): w = 3\nclass C: pass\n"
               "__all__ = ['RING', 'X', 'Y', 'Z', 'f', 'C', 'cycle_lengths', 'w']\n")
        assert dangling_exports(src) == ["cycle_lengths", "w"]

    def test_private_imports_are_reported(self):
        src = ("from .accountant import _sgm_log_a_int, sigma_search\n"
               "from . import protocols as proto\nfrom . import __version__\n"
               "y = proto._contributions\nz = proto.run_ring_sum\n")
        assert private_imports(src) == ["_sgm_log_a_int (line 1)", "proto._contributions (line 4)"]

    def test_dead_private_names_are_reported(self):
        sources = {
            "a.py": ('def _used(): pass\ndef _recursive(k): return _recursive(k - 1)\n'
                     '_CONST, _LOOSE = 1, 2\nclass _Holder: x = _CONST\ndef _named(): pass\n'
                     'def f():\n    """Calls _named."""\n    return _used()\n__all__ = ["f"]\n'),
            "b.py": "from . import a\ny = a._Holder\n",
        }
        assert dead_private_names(sources) == [
            "a.py: _recursive (line 2)", "a.py: _LOOSE (line 3)", "a.py: _named (line 5)"]

    def test_scipy_imports_are_reported(self):
        src = ("import numpy as np\nimport scipy.special as sp\nfrom scipy import stats\n"
               "from . import scipy_like\ndef f():\n    from scipy.special import expit\n")
        assert scipy_imports(src) == ["scipy.special (line 2)", "scipy (line 3)", "scipy.special (line 6)"]

    def test_numpy_random_uses_are_reported(self):
        src = ("import numpy as np\nimport numpy\nimport numpy.random\nfrom numpy import random\n"
               "from numpy.random import Philox\n"
               "def f(rng: np.random.Generator) -> np.random.Generator:\n"
               "    isinstance(rng, np.random.Generator)\n"
               "    return np.random.Generator(numpy.random.Philox(key=1)), np.random.default_rng()\n")
        assert numpy_random_uses(src) == [
            "numpy.random (line 3)", "numpy.random (line 4)", "numpy.random.Philox (line 5)",
            "np.random.Generator (line 8)", "np.random.default_rng (line 8)", "numpy.random.Philox (line 8)"]

    def test_seed_hash_uses_are_reported(self):
        src = ("from .core import derive_seeds, seed_sequence_state\nfrom . import core\n"
               "def f(words):\n    seed_sequence_state(words, 1)\n    derive_seeds([(1, 2)])\n"
               "    return core.seed_sequence_state(words, 2), core.seed_sequence_state\n")
        assert seed_hash_uses(src) == [
            "seed_sequence_state (line 1)", "seed_sequence_state (line 4)", "core.seed_sequence_state (line 6)"]

    def test_outside_modules_are_not_checked(self):
        assert private_imports("from os import _exit\nimport numpy as np\nnp._x\n") == []
