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
its reason.

Each option, a defaulted parameter of such a function or method (or of a
public class's `__init__`, among them the defaulted fields of a public
dataclass, which its generated `__init__` takes in field order), must
likewise be set by some caller there: by keyword, by a positional argument
past the required ones, or through the benchmark's `ctx.call(f, *args,
**kwargs)`. A call inside the definition itself does not count.
OPTION_KEEP lists the exceptions, each with its reason.

Each annotated field of a public dataclass of the package must be read as
an attribute (`obj.field`) in the package, the benchmark scripts or any
test: a unit test that checks a field's value is a reader that can fail.
A field nobody reads is deleted with the code that only fills it.
FIELD_KEEP lists the exceptions, each with its reason."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cubefib"

SERIES_LOWER_BOUND = ("a rigorous lower bound for the singular series; the local densities "
                      "roadmap item gives it a caller, a lower_bound section of `local`")

KEEP = {
    "S_q_character_sum":
        "the character-sum oracle that tests S_pk_extract, the closed form used by local densities",
    "series_lower_bound_certificate": SERIES_LOWER_BOUND,
}

FIELD_KEEP = {f"localdensity.SeriesLowerBound.{name}": SERIES_LOWER_BOUND
              for name in ("bad_factors", "medium_factors", "P_tail")}

OPTION_KEEP = {
    "cli.main(argv=)":
        "the console script calls main() and argparse reads sys.argv; argv runs a command in-process",
    **{f"localdensity.series_lower_bound_certificate({name}=)":
       "the singular-series lower bound waits for its caller, a lower_bound section of `local` "
       "(the local densities roadmap item), to choose its primes and budgets"
       for name in ("medium_primes", "budget", "witness_count_budget", "P_min")},
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


TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}
BENCH = [ast.parse(path.read_text()) for path in sorted(ROOT.glob("bench/*.py"))]
ACCEPTANCE = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
TESTS = [ast.parse(path.read_text()) for path in sorted(ROOT.glob("tests/*.py"))]


def _uses(attributes_only=False) -> Counter:
    """Identifier counts over the package, the benchmark scripts and the
    acceptance tests."""
    uses = sum((_names(tree, attributes_only=attributes_only) for tree in TREES.values()), Counter())
    uses += sum((_names(tree, True, attributes_only) for tree in BENCH), Counter())
    return uses + _names(ACCEPTANCE, attributes_only=attributes_only)


USES = _uses()
ATTRIBUTE_USES = _uses(attributes_only=True)


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


def _is_dataclass(node) -> bool:
    """Whether a class is decorated `@dataclass` or `@dataclass(...)`."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(getattr(d, "id", None) == "dataclass" for d in decorators)


def _annotated_fields(node):
    """The annotated fields (AnnAssign nodes) of a class body, in order."""
    return [sub for sub in node.body
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)]


def _options(tree):
    """(option, callee, parameter, position, node) for each defaulted
    parameter of the public functions, public methods and `__init__` of the
    public classes of a module, the generated `__init__` of a dataclass
    included. A call reaches the definition through the callee name (a
    class name for `__init__`); position is the number of positional
    arguments a call passes before the parameter, None for a keyword-only
    one."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from _defaulted(node.name, node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                for i, sub in enumerate(_annotated_fields(node)):
                    if sub.value is not None:
                        yield (f"{node.name}.__init__({sub.target.id}=)", node.name,
                               sub.target.id, i, sub)
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and (sub.name == "__init__"
                                                         or not sub.name.startswith("_")):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    callee = node.name if sub.name == "__init__" else sub.name
                    yield from _defaulted(f"{node.name}.{sub.name}", callee, sub, 0 if static else 1)


def _defaulted(qualname, callee, node, implicit):
    """The options of one definition whose first `implicit` parameters
    (self) a call does not pass."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield f"{qualname}({arg.arg}=)", callee, arg.arg, i - implicit, node
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualname}({arg.arg}=)", callee, arg.arg, None, node


def _settings(tree) -> Counter:
    """How often the calls of the tree pass each (callee, keyword) and each
    (callee, number of positional arguments); `ctx.call(f, *args, **kwargs)`
    calls f. Positional arguments count up to the first starred one."""
    found = Counter()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and func.attr == "call" and args:
            func, args = args[0], args[1:]
        callee = getattr(func, "id", None) or getattr(func, "attr", None)
        starred = [i for i, arg in enumerate(args) if isinstance(arg, ast.Starred)]
        found[callee, starred[0] if starred else len(args)] += 1
        found.update((callee, kw.arg) for kw in node.keywords if kw.arg)
    return found


def _unset_options(modules, users):
    """The options of the modules, a dict of module name to tree, that no
    call in users, a list of trees, sets."""
    settings = sum(map(_settings, users), Counter())
    for module, tree in modules.items():
        for option, callee, param, position, node in _options(tree):
            found = settings - _settings(node)  # keeps the positive counts only
            by_position = position is not None and any(
                name == callee and isinstance(n, int) and n > position for name, n in found)
            if not (found[callee, param] or by_position):
                yield f"{module}.{option}"


UNSET = sorted(_unset_options({name[:-3]: tree for name, tree in TREES.items()},
                              [*TREES.values(), *BENCH, ACCEPTANCE]))


def test_the_option_guard_flags_unset_and_test_only_options():
    """A fixed package and its users: one option nobody sets, one only a
    unit test sets, one set by position and one through ctx.call; a
    dataclass field nobody sets and one set by position."""
    package = ast.parse(
        "def unset(x, a=1): pass\n"
        "def tested(x, a=1): pass\n"
        "class Box:\n"
        "    def __init__(self, x, a=1): pass\n"
        "    def put(self, x, *, a=1): return self.put(x, a=a)\n"
        "@dataclass\n"
        "class Row:\n"
        "    x: int\n"
        "    placed: int = 0\n"
        "    unset: int = 0\n"
    )
    users = [package, ast.parse("box = Box(0, 2)\nctx.call(box.put, 0, a=3)\nrow = Row(0, 1)\n")]
    unit_test = ast.parse("tested(0, a=2)\n")
    assert list(_unset_options({"m": package}, users)) == [
        "m.unset(a=)", "m.tested(a=)", "m.Row.__init__(unset=)"]
    assert list(_unset_options({"m": package}, users + [unit_test])) == [
        "m.unset(a=)", "m.Row.__init__(unset=)"]
    assert "m.Box.put(a=)" in _unset_options({"m": package}, [package])


@pytest.mark.parametrize("option", sorted(OPTION_KEEP))
def test_kept_options_exist_and_are_unset(option):
    """A kept option that is gone or has gained a caller leaves the list."""
    assert option in UNSET, option


def test_every_option_has_a_caller():
    unset = [option for option in UNSET if option not in OPTION_KEEP]
    assert not unset, ("options set only by unit tests (delete them with their branch, "
                       f"or give them a caller): {unset}")


def _fields(tree):
    """(class, field) for each annotated field of the public dataclasses of
    a module, `@dataclass` or `@dataclass(...)`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
            for sub in _annotated_fields(node):
                yield node.name, sub.target.id


def _unread_fields(modules, readers):
    """The fields of the dataclasses of the modules, a dict of module name
    to tree, that no attribute load (`obj.field`) in readers, a list of
    trees, reads."""
    reads = Counter(node.attr for tree in readers for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    for module, tree in modules.items():
        for cls, name in _fields(tree):
            if not reads[name]:
                yield f"{module}.{cls}.{name}"


UNREAD = sorted(_unread_fields({name[:-3]: tree for name, tree in TREES.items()},
                               [*TREES.values(), *BENCH, *TESTS]))


def test_the_field_guard_flags_unread_fields():
    """A fixed package and its users: a field nobody reads, one only a unit
    test reads, one a function of the package reads, a field that is only
    written and the annotation of a class that is not a dataclass."""
    package = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Result:\n"
        "    read: int\n"
        "    unread: int = 0\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    tested: int\n"
        "    written: int\n"
        "class Plain:\n"
        "    ignored: int\n"
        "def use(r, f):\n"
        "    f.written = r.read\n"
    )
    unit_test = ast.parse("assert Frozen(1, 2).tested == 1\n")
    assert list(_unread_fields({"m": package}, [package])) == [
        "m.Result.unread", "m.Frozen.tested", "m.Frozen.written"]
    assert list(_unread_fields({"m": package}, [package, unit_test])) == [
        "m.Result.unread", "m.Frozen.written"]


@pytest.mark.parametrize("field", sorted(FIELD_KEEP))
def test_kept_fields_exist_and_are_unread(field):
    """A kept field that is gone or has gained a reader leaves the list."""
    assert field in UNREAD, field


def test_every_dataclass_field_is_read():
    unread = [field for field in UNREAD if field not in FIELD_KEEP]
    assert not unread, ("dataclass fields nobody reads (delete them with the code that "
                        f"fills them, or give them a reader): {unread}")
