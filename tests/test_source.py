"""The package holds no dead helper, and importing its CLI loads no module it does not use."""

import ast
import subprocess
import sys
from pathlib import Path

import weiltate

SRC = Path(weiltate.__file__).resolve().parent

# name -> why it stays with no caller in src/ and no export
ALLOWED = {
    "gf_is_irreducible": "the checked Ben-Or entry, held to its oracles by the kernel tests",
    "doc_to_report": "reads a classify report back from its document, for round-trip tests",
    "doc_to_end_report": "reads the Honda-Tate report back from its document, likewise",
}


def _names_used(node, own: str) -> set:
    """The names that `node` reads, as variables or attributes, other than `own`."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used - {own}


def test_every_top_level_definition_has_a_caller_or_an_export():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    defined, used = [], set()
    for module, tree in trees.items():
        for node in tree.body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append((module, own))
            used |= _names_used(node, own)
    assert len(ALLOWED) <= 3
    dead = [f"{module}: {name}" for module, name in defined
            if name not in used and name not in exported and name not in ALLOWED]
    assert dead == []
    assert {name for _, name in defined if name not in used and name not in exported} == set(
        ALLOWED
    )


def test_importing_the_cli_loads_no_introspection_or_reference_module():
    """`import weiltate.cli` in a bare interpreter stays clear of what only tools and tests need.

    `dataclasses` would bring `inspect`, `ast`, `dis` and `tokenize`;
    `weiltate.reference` lists groups and is loaded only on demand.
    """
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import weiltate.cli; "
        "print(' '.join(sorted(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "weiltate.cli" in loaded
    unwanted = {"dataclasses", "inspect", "ast", "dis", "tokenize", "weiltate.reference"}
    assert loaded & unwanted == set()
