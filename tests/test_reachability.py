"""Every public capability of the package has a user besides its unit tests.

Each public top-level function and class of every module of the package,
and each public method of such a class, must be named outside its own
definition: in a module of the package, in the benchmark scripts
(`bench/*.py`) or in the acceptance tests, which check the paper's criteria.
A name counts where it occurs in code, not in a comment or docstring: a
function or class as a name, an attribute or an import, a method only as
an attribute (`x.name`), so that a local variable, a dataclass field or a
word of an error message with the same name hides no orphan. In the
benchmark scripts a string counts too, but only in the dotted form
"layer.name" by which the tracer addresses functions. Code reached only
from its own unit tests fails here. KEEP lists the exceptions, each with
its reason."""

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


def _names(tree, strings=False, attributes_only=False) -> Counter:
    """How often each identifier occurs in the code of the tree, only as an
    attribute with `attributes_only`; with `strings`, also after a dot in
    its string constants."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"(?<=\w\.)[A-Za-z_]\w*", node.value))
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def _definitions(tree):
    """(qualified name, name, node, is a method) of the public top-level
    functions and classes of a module and of the public methods of those
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, sub, True


def _uses(trees, attributes_only=False) -> Counter:
    """Identifier counts over the package, the benchmark scripts and the
    acceptance tests."""
    uses = sum((_names(tree, attributes_only=attributes_only) for tree in trees.values()), Counter())
    for path in sorted(ROOT.glob("bench/*.py")):
        uses += _names(ast.parse(path.read_text()), True, attributes_only)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return uses + _names(acceptance, attributes_only=attributes_only)


TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
USES = _uses(TREES)
ATTRIBUTE_USES = _uses(TREES, attributes_only=True)


def _unreached():
    for module, tree in TREES.items():
        for qualname, name, node, method in _definitions(tree):
            # a method counts only as an attribute; a use inside the
            # definition itself (recursion, a class naming itself in its
            # methods) does not count
            uses = ATTRIBUTE_USES if method else USES
            if uses[name] - _names(node, attributes_only=method)[name] <= 0:
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
