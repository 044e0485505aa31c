"""Every public capability of the package has a user besides its unit tests.

Each public top-level function and class of every module of the package,
and each public method of such a class, must be named outside its own
definition: in a module of the package, in the benchmark scripts
(`bench/*.py`) or in the acceptance tests, which check the paper's criteria.
A name counts where it occurs in code (a name, an attribute or an import),
not in a comment or docstring; in the benchmark scripts a string counts
too, because the tracer addresses functions as "layer.name". Code reached
only from its own unit tests fails here. KEEP lists the exceptions, each
with its reason."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubefib"

KEEP = {
    "S_q_character_sum":
        "the character-sum oracle that tests S_pk_extract, the closed form used by local densities",
    "series_lower_bound_certificate":
        "a rigorous lower bound for the singular series; the local densities roadmap item "
        "gives it a caller, a lower_bound section of `local`",
    "LinearChange.apply":
        "the substitution a LinearChange stands for: extract_linear_block, "
        "classify_rank2_bundle and order3_minor_common_factor return one to the caller",
    "LinearChange.inverse":
        "undoes a returned LinearChange, as LinearChange.apply applies it",
}


def _names(tree, strings=False) -> Counter:
    """How often each identifier occurs in the code of the tree (and in its
    string constants, with `strings`)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def _definitions(tree):
    """(qualified name, name, node) of the public top-level functions and
    classes of a module and of the public methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, sub


def _uses(trees) -> Counter:
    """Identifier counts over the package, the benchmark scripts and the
    acceptance tests."""
    uses = sum((_names(tree) for tree in trees.values()), Counter())
    for path in sorted(ROOT.glob("bench/*.py")):
        uses += _names(ast.parse(path.read_text()), strings=True)
    return uses + _names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))


TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
USES = _uses(TREES)


def _unreached():
    for module, tree in TREES.items():
        for qualname, name, node in _definitions(tree):
            # a use inside the definition itself (recursion, a class naming
            # itself in its methods) does not count
            if USES[name] - _names(node)[name] <= 0:
                yield f"{module[:-3]}.{qualname}"


def test_the_package_and_its_users_are_found():
    assert {"cli.py", "lattice.py", "sieve.py"} <= set(TREES)
    assert USES["fibration_count"] and USES["membership"]


@pytest.mark.parametrize("qualname", sorted(KEEP))
def test_kept_names_exist_and_are_unreached(qualname):
    """A kept name that is gone or has gained a user leaves the list."""
    assert any(name.endswith("." + qualname) for name in _unreached()), qualname


def test_every_public_definition_has_a_user():
    orphans = [name for name in _unreached() if name.split(".", 1)[1] not in KEEP]
    assert not orphans, f"reached only from unit tests (delete them or give them a caller): {orphans}"
