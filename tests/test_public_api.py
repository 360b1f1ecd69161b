"""Every public top-level function and class of the package has a caller in
the package or the benchmark, not only in the tests.

A name counts as referenced when it is loaded, read as an attribute or
imported anywhere in ``src/hetsed/*.py`` or ``bench/*.py`` outside its own
definition.  Names are matched without their module, so a reference to one
module's name also covers another module's name that is spelled the same.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hetsed"

# public names that a ROADMAP open item keeps for the code it will add
KEPT_FOR_ROADMAP = {
    "training.total_loss": 7,  # the library training step combines its losses with it
}


def _referenced(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def _definitions_and_references() -> tuple[dict[str, str], set[str]]:
    """The package's public top-level functions and classes as
    ``{module.name: name}``, and every name referenced outside the
    definition of the same name."""
    defined, referenced = {}, set()
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py")]):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            names = _referenced(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if path.parent == PACKAGE and not node.name.startswith("_"):
                    defined[f"{path.stem}.{node.name}"] = node.name
            referenced |= names
    return defined, referenced


def test_every_public_function_and_class_has_a_caller():
    defined, referenced = _definitions_and_references()
    assert {"domain_gen.freq_mixstyle", "training.compose_batch", "cli.main"} <= set(defined)
    unused = sorted(qualified for qualified, name in defined.items() if name not in referenced)
    assert unused == sorted(KEPT_FOR_ROADMAP), f"public names nothing in src/ or bench/ uses: {unused}"
