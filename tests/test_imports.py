"""Every module-level import in the package is used by its module, every
module-level UPPER_CASE constant and every module-level _private function or
class is read somewhere in the package, every name of cqrt.__all__ is read by
a module of the package or named in a README code span, no module reads
numpy's random module (sde's SplitMix64 streams are the one random source),
every np.load call passes allow_pickle=False, so no file is unpickled, only
procs.py imports multiprocessing or mmap or reads os.fork, and importing the
package and its command line loads no scipy module.

`__init__.py` is exempt from the import check because its imports are the
public re-exports, and `from __future__` imports change the compiler, not the
namespace.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cqrt

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cqrt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of source that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os (line 2)"]


def names_read(trees) -> set:
    """The names that the parsed modules trees read, as a name or as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_constants(sources: dict) -> list:
    """Module-level UPPER_CASE names assigned in sources (file name -> text)
    that no source reads, as a name or as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = names_read(trees.values())
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id)
                        and target.id not in read):
                    unread.append(f"{name}: {target.id} (line {node.lineno})")
    return unread


def test_no_unread_constants():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_constants(sources) == []


def test_checker_finds_an_unread_constant():
    sources = {"a.py": "import b\nLIMIT = 1\n_STEP: int = 2\nSCALE = 3\nprint(SCALE)\n",
               "b.py": "x = 1\nWIDTH = 4\n", "c.py": "import b\nprint(b.WIDTH + 1)\n"}
    assert unread_constants(sources) == ["a.py: LIMIT (line 2)", "a.py: _STEP (line 3)"]


def orphaned_helpers(sources: dict) -> list:
    """Module-level _private functions and classes defined in sources (file
    name -> text) that no source reads, as a name or as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = names_read(trees.values())
    return [f"{name}: {node.name} (line {node.lineno})"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_no_orphaned_helpers():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert orphaned_helpers(sources) == []


def test_checker_finds_an_orphaned_helper():
    sources = {"a.py": "import b\ndef _lost():\n    pass\n"
                       "class _Gone:\n    pass\ndef _kept():\n    pass\n"
                       "def __getattr__(name):\n    pass\ndef public():\n    pass\n",
               "b.py": "def _used():\n    pass\nvalue = _used()\n",
               "c.py": "import a\na._kept()\n"}
    assert orphaned_helpers(sources) == ["a.py: _lost (line 2)", "a.py: _Gone (line 4)"]


def unused_exports(exports, sources: dict, readme: str) -> list:
    """The names of exports that no source (file name -> text) reads, as a
    name or as an attribute, and that no inline code span of the readme
    names, fenced blocks excluded."""
    read = names_read(ast.parse(text) for text in sources.values())
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    named = set(re.findall(r"\w+", " ".join(spans)))
    return [name for name in exports if name not in read and name not in named]


def test_every_export_is_used_or_documented():
    sources = {p.name: p.read_text() for p in MODULES}
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    assert unused_exports(cqrt.__all__, sources, readme) == []


def test_checker_finds_an_unused_export():
    sources = {"a.py": "def step():\n    pass\ndef kept():\n    pass\nLIMIT = 1\n",
               "b.py": "import a\na.kept()\nprint(LIMIT)\n"}
    readme = ("Call `documented(x)` or see `cqrt.noted`.\n"
              "```python\nfenced(1)\n```\nProse names step and orphan.\n")
    exports = ["step", "kept", "LIMIT", "documented", "noted", "fenced", "orphan"]
    assert unused_exports(exports, sources, readme) == ["step", "fenced", "orphan"]


def numpy_random_reads(source: str) -> list:
    """Lines of source that read np.random or numpy.random, or import from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            read = (node.attr == "random" and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.ImportFrom):
            read = node.module == "numpy.random" or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        elif isinstance(node, ast.Import):
            read = any(a.name.startswith("numpy.random") for a in node.names)
        else:
            continue
        if read:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_random(path):
    assert numpy_random_reads(path.read_text()) == []


def test_checker_finds_numpy_random():
    source = ("import numpy as np\nimport numpy.random\nfrom numpy import random\n"
              "from numpy.random import PCG64\nrng = np.random.Generator(PCG64(1))\n"
              "x = numpy.random.random(3)\nrandom = 1\nnp.zeros(1).random\n")
    assert numpy_random_reads(source) == [2, 3, 4, 5, 6]


def pickling_loads(source: str) -> list:
    """Lines of source that call np.load or numpy.load without an explicit
    allow_pickle=False."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "load" and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and not any(k.arg == "allow_pickle" and isinstance(k.value, ast.Constant)
                            and k.value.value is False for k in node.keywords)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_np_load_refuses_pickles(path):
    assert pickling_loads(path.read_text()) == []


def test_checker_finds_a_pickling_load():
    source = ("import numpy as np\nimport numpy\nnp.load('a.npy')\n"
              "np.load('b.npy', allow_pickle=True)\nnumpy.load('c.npy', mmap_mode='r')\n"
              "np.load('d.npy', allow_pickle=False)\nnp.load('e.npy', allow_pickle=0)\n"
              "json.load(handle)\n")
    assert pickling_loads(source) == [3, 4, 5, 7]


def forking_reads(source: str) -> list:
    """Lines of source that import multiprocessing or mmap, or read os.fork."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        if any(name.split(".")[0] in ("multiprocessing", "mmap") or name == "os.fork"
               for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "procs.py"],
                         ids=lambda p: p.name)
def test_only_procs_forks(path):
    assert forking_reads(path.read_text()) == []


def test_checker_finds_forking():
    source = ("import os\nimport mmap\nimport multiprocessing.pool\n"
              "from multiprocessing import Pipe\nfrom os import fork\npid = os.fork()\n"
              "hasattr(os, 'fork')\nos.getpid()\nfrom .procs import forked\n"
              "mmap_mode = 'r'\n")
    assert forking_reads(source) == [2, 3, 4, 5, 6]
    # the one module that forks is seen forking
    assert forking_reads((PACKAGE / "procs.py").read_text()) != []


def test_package_and_cli_import_no_scipy():
    # in a fresh interpreter, so no other test's imports count
    code = ("import sys, cqrt, cqrt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # simulate_ensemble and fp_solve import multiprocessing only when they
    # fork, so a command that runs serially pays nothing for it: here a
    # march of 40^2 cells x 16 steps, under fpe.FORK_MIN_CELL_STEPS
    code = ("import sys, cqrt.cli; from cqrt import Eigenstate, FpGrid, fp_solve, fpe; "
            "grid = FpGrid(nx=40, ny=40); "
            "assert fp_solve(Eigenstate(3), grid, 16 * grid.dt_pde).steps == 16; "
            "assert 40 * 40 * 16 < fpe.FORK_MIN_CELL_STEPS; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
