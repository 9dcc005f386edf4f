"""The package holds only what a command reaches, and importing its CLI loads only what it uses.

A walk of names from `cli.main` must meet every top-level function and
class in `src/weiltate/`, save the short declared API list of the
README, whose entries wait for the ROADMAP items that will call them.
A name is resolved to the module that defines it, through the
`from .x import` lines of the module that reads it.
The code it reaches must read every non-dunder method of those classes.
"""

import argparse
import ast
import re
import subprocess
import sys
from pathlib import Path

import weiltate
from weiltate import cli

SRC = Path(weiltate.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# module -> why it imports from `itertools`: brute force over subsets belongs to the tests
ITERTOOLS_IMPORTS = {
    "cmtypes.py": "`enumerate_cm_types`, in the README's declared API, lists the CM types "
                  "that meet given place counts by per-block `combinations`",
}

# (module, top-level function) -> why it imports `fractions`: slopes and Brauer invariants
# are integers over a denominator everywhere else
FRACTIONS_IMPORTS = {
    ("forge.py", "parse_scenario"): "a scenario file's declared slope line is read as rationals",
}

# every setting a user can give: the environment variables the package names (it reads
# none), and each subcommand's flags, in the order its parser declares them
ENV_KNOBS = set()
FLAGS = {
    "forge": ["--g", "--p", "--l", "--lp", "--seed", "--format"],
    "classify": ["--preset", "--file", "--g", "--gp", "--p", "--weights", "--cap",
                 "--attach-fields", "--format"],
    "verify": ["--presets", "--p", "--format"],
}


def _names_used(node) -> set:
    """The names that `node` reads, as variables or attributes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _attributes_read(node) -> set:
    """The attribute names that `node` reads, `x.name` in a load."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def _bindings(trees) -> dict:
    """(module, name) -> the top-level functions, classes and assignments that bind it there."""
    bound = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.setdefault((module, node.name), []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}:
                    bound.setdefault((module, name), []).append(node)
    return bound


def _imports(tree) -> dict:
    """name -> (module, its name there) per `from .x import`, (module, None) per `from . import x`.

    Only the top-level imports of the package's own modules count.
    """
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    source = (f"{node.module}.py", alias.name)
                else:
                    source = (f"{alias.name}.py", None)
                out[alias.asname or alias.name] = source
    return out


def _resolve(imports, module, name) -> tuple:
    """The (module, name) that defines what `name` stands for in `module`, through its imports."""
    while name in imports[module] and imports[module][name][1] is not None:
        module, name = imports[module][name]
    return module, name


def _reads(node, module, imports) -> set:
    """The (module, name) pairs that `node` in `module` reads: names, and `x.name`, x a module."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add(_resolve(imports, module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            source = imports[module].get(sub.value.id)
            if source is not None and source[1] is None:  # x is a module
                reads.add(_resolve(imports, source[0], sub.attr))
    return reads


def reached_from(trees, roots) -> set:
    """The (module, name) top-level bindings that a walk of names from `roots` meets.

    A reached binding reaches the binding of each name that it reads,
    resolved through the `from .x import` lines of its module, and of
    each `x.name` it reads, x a module bound by `from . import x`.  A
    class reaches all of its body, and an assignment its value; an
    import binds nothing.  A local name that shadows a top-level one
    still reaches it, so the walk can only over-reach.
    """
    bound = _bindings(trees)
    imports = {module: _imports(tree) for module, tree in trees.items()}
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in reached or key not in bound:
            continue
        reached.add(key)
        for node in bound[key]:
            todo.extend(_reads(node, key[0], imports) - reached)
    return reached


def declared_api() -> list:
    """The names listed under the README's "Declared API" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Declared API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`", section, flags=re.M)


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def _roots(trees) -> list:
    """`cli.main` and the declared API, each as the (module, name) that defines it."""
    api = declared_api()
    return [("cli.py", "main")] + [
        (module, node.name) for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in api
    ]


def test_every_top_level_definition_has_a_caller_or_an_export():
    """A caller: `cli.main` reaches the definition.  An export: the README declares it."""
    trees = _trees()
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [node.name for node in trees["cli.py"].body if isinstance(node, ast.FunctionDef)
            ].count("main") == 1
    api = declared_api()
    roots = _roots(trees)
    assert 0 < len(api) <= 4
    assert sorted(api) == sorted(name for _, name in roots[1:])  # each defined once
    # an entry that a command already reaches has its caller and leaves the list
    assert set(roots[1:]) & reached_from(trees, roots[:1]) == set()
    reached = reached_from(trees, roots)
    assert [f"{module}: {name}" for module, name in defined if (module, name) not in reached] == []


def test_every_method_has_a_caller():
    """Each non-dunder method of a class in `src/` is read by the reached code outside its own body.

    The reach is `reached_from`'s, from `cli.main` and the declared API,
    with each reached class split into the statements of its body, so a
    method that only its own body reads has no caller.  A method is
    read as an attribute, `x.name`: a local variable of the same name
    does not count.  Method names are matched alone, whatever `x` is.
    """
    trees = _trees()
    bound = _bindings(trees)
    units = [unit for key in reached_from(trees, _roots(trees)) for node in bound[key]
             for unit in (node.body if isinstance(node, ast.ClassDef) else [node])]
    reads = [(unit, _attributes_read(unit)) for unit in units]
    unread = [
        f"{module}: {cls.name}.{node.name}"
        for module, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not any(node.name in names for unit, names in reads if unit is not node)
    ]
    assert unread == []


def _importers(name) -> set:
    """(module, the top-level function or class, None at module level) of each import of `name`."""
    return {
        (module, getattr(top, "name", None)) for module, tree in _trees().items()
        for top in tree.body for node in ast.walk(top)
        if isinstance(node, ast.ImportFrom) and node.module == name
        or isinstance(node, ast.Import) and any(a.name == name for a in node.names)
    }


def test_only_the_named_modules_import_from_itertools():
    """A subset loop such as `combinations` lives in `tests/oracles.py`, save the named exceptions."""
    assert sorted({module for module, _ in _importers("itertools")}) == sorted(ITERTOOLS_IMPORTS)


def test_only_parse_scenario_imports_fractions():
    """A slope or an invariant is an integer over a denominator, save on a declared slope line."""
    assert sorted(_importers("fractions")) == sorted(FRACTIONS_IMPORTS)


def test_no_source_line_is_longer_than_100_characters():
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


# stdlib modules that no classify or verify run loads: slopes and invariants are integers
# over a denominator (a scenario file's slope line alone is read as rationals), the writer
# takes its one C function from `_json`,
# and `random` is imported where `forge_totally_real` seeds its drawer
UNLOADED = {"fractions", "decimal", "numbers", "json", "copy", "random"}


def _bare_child(code: str) -> str:
    """The stdout of `code` in a bare interpreter (`-I -S`) with `src/` on its path."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n"
         + code], capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_importing_the_cli_loads_no_introspection_or_reference_module():
    """`import weiltate.cli` in a bare interpreter loads the program's modules and no others.

    `dataclasses` would bring `inspect`, `ast`, `dis` and `tokenize`; a
    module that lists groups belongs to the tests (`tests/oracles.py`).
    """
    loaded = set(_bare_child("import weiltate.cli; print(' '.join(sorted(sys.modules)))").split())
    assert {m for m in loaded if m.startswith("weiltate")} == {"weiltate"} | {
        f"weiltate.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__"
    }
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
    assert loaded & UNLOADED == set()


def test_classify_and_verify_load_none_of_the_unloaded_modules_and_forge_only_random():
    """Run through `cli.main` in one bare interpreter, classify and verify load none of
    `UNLOADED`, and forge adds only `random`."""
    code = """
import io
import weiltate.cli
for argv in (["classify", "--preset", "main", "--g", "4"],
             ["classify", "--preset", "split", "--gp", "3", "--format", "json"],
             ["verify", "--format", "json"],
             ["forge", "--g", "6", "--p", "5", "--l", "7", "--lp", "11", "--format", "json"]):
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = weiltate.cli.main(argv)
        written = len(sys.stdout.getvalue())
    finally:
        sys.stdout = out
    print(argv[0], code, written > 0, *sorted(m for m in sys.modules if m in %r))
""" % sorted(UNLOADED)
    rows = [line.split() for line in _bare_child(code).splitlines()]
    assert rows == [["classify", "0", "True"]] * 2 + [["verify", "0", "True"],
                                                     ["forge", "0", "True", "random"]]


def test_every_knob_is_declared():
    """A new environment variable or flag fails here until `ENV_KNOBS` or `FLAGS` names it.

    The package reads no environment at all: no `os.environ` or
    `os.getenv`, by attribute, by name or by import.
    """
    trees = _trees()
    named = {
        name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for name in re.findall(r"WEILTATE_\w+", node.value)
    }
    assert named == ENV_KNOBS
    readers = {"environ", "environb", "getenv", "getenvb"}
    for module, tree in trees.items():
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert (_names_used(tree) | imported) & readers == set(), module
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {
        command: [flag for action in parser._actions for flag in action.option_strings
                  if flag not in ("-h", "--help")]
        for command, parser in commands.items()
    }
    assert flags == FLAGS
