"""Every name the README's inline code spans give as code exists, so a
renamed or deleted function fails here instead of silently breaking the docs.

A span is code when it parses as Python; formulas such as `|psi_n(x)|^2` do
not, and file names such as `points.csv` are skipped.  In a code span, a name
written as a call, `name(`, must be a name of cqrt, of one of its modules, of
builtins or of math, and a dotted name that starts with cqrt, a cqrt module or
a cqrt name (`stats.select_window`, `Ensemble.trajectory`) must resolve
attribute by attribute.  Names of other packages, such as `numpy.random` or
`np.arange`, are not checked.
"""

import ast
import builtins
import importlib
import math
import re
from pathlib import Path

import cqrt

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem: importlib.import_module(f"cqrt.{p.stem}")
           for p in sorted((ROOT / "src" / "cqrt").glob("*.py")) if not p.stem.startswith("__")}
FILE_NAME = re.compile(r"[\w.-]+\.(py|csv|json|md|svg|cfg|toml)")


def code_spans(text: str) -> list:
    """The inline code spans of a markdown text that parse as Python, fenced blocks excluded."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    trees = []
    for span in re.findall(r"`([^`\n]+)`", text):
        if FILE_NAME.fullmatch(span):
            continue
        try:
            trees.append(ast.parse(span))
        except SyntaxError:
            continue
    return trees


def _resolves(parts: list) -> bool:
    """Whether a dotted name resolves from cqrt, whose modules are its attributes."""
    obj = cqrt
    for part in parts[1:] if parts[0] == "cqrt" else parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def unresolved_names(text: str) -> list:
    """The called names and cqrt dotted names of text's code spans that do not exist."""
    spaces = (cqrt, *MODULES.values(), builtins, math)
    missing = []
    for tree in code_spans(text):
        inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if not any(hasattr(space, node.func.id) for space in spaces):
                    missing.append(node.func.id)
            elif isinstance(node, ast.Attribute) and id(node) not in inner:
                parts = []
                while isinstance(node, ast.Attribute):
                    parts.insert(0, node.attr)
                    node = node.value
                if not isinstance(node, ast.Name):
                    continue
                parts.insert(0, node.id)
                if (node.id == "cqrt" or hasattr(cqrt, node.id)) and not _resolves(parts):
                    missing.append(".".join(parts))
    return missing


def test_readme_names_exist():
    assert unresolved_names((ROOT / "README.md").read_text()) == []


def test_checker_finds_a_missing_name():
    text = ("Call `gone_function(x)` or `max(1, 2)`, `sqrt(2)` and `s = derive_seed(7, 1)`; "
            "see `stats.no_such_rule`, `cqrt.sde.gone`, `Ensemble.nope(i)`, "
            "`Ensemble.trajectory(i)`, `cqrt.sde.uniforms` and `stats.select_window`.\n"
            "Prose: `|psi_n(x)|^2`, `sde.py`, `numpy.random`, `np.arange(3)`.\n"
            "```sh\nbogus(1)\n```\n")
    assert unresolved_names(text) == [
        "gone_function", "stats.no_such_rule", "cqrt.sde.gone", "Ensemble.nope"]
