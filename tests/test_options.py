"""The settable values of the package, pinned, and a census of its members' readers.

Every function parameter with a default and every dataclass field with a
default is a value a caller can set, and each one doubles the configurations
that tests must cover.  The set is pinned here: a new option fails this test
until it is added to ``ALLOWED`` on purpose, and a removed one until it is
taken out.

Every module-level function, class or constant of the package, and every method,
property, class attribute or dataclass field of its classes, needs a reader in
the package or the benchmark; code that only tests read belongs in the tests.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncdomains"

ALLOWED = {
    "cli.main(argv)",
    "colligation.build_isometry(tol)",
    "config.ExperimentConfig.g",
    "config.ExperimentConfig.N",
    "config.ExperimentConfig.tol",
    "config.ExperimentConfig.seed",
    "config.ExperimentConfig.count",
    "config.ExperimentConfig.dims",
    "config.ExperimentConfig.kinds",
    "config.ExperimentConfig.T1",
    "config.ExperimentConfig.T2",
    "config.ExperimentConfig.variety",
    "config.ExperimentConfig.output",
    "config.ExperimentConfig.file_keys",
    "domain.domain_membership(tol)",
    "harness.CommutingPair.kind",
    "harness.CommutingPair.seed",
    "harness.ando_dilation(N)",
    "harness.ando_dilation(variety)",
    "harness.ando_dilation(tol)",
    "harness.verify_inequality(dil_swapped)",
    "report.VerificationReport.checks",
    "report.VerificationReport.environment",
    "report.VerificationReport.extend(prefix)",
    "transfer._row_gram(words)",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values() -> set[str]:
    """module.[Class.]function(param) for each defaulted parameter, at any
    nesting depth, and module.Class.field for each defaulted dataclass field."""
    out = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                out.update(f"{prefix}{child.name}({a.arg})" for a in defaulted)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    out.update(f"{prefix}{child.name}.{st.target.id}" for st in child.body
                               if isinstance(st, ast.AnnAssign) and st.value is not None
                               and isinstance(st.target, ast.Name))
                visit(child, f"{prefix}{child.name}.")

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return out


def test_settable_values_match_the_allowlist():
    found = settable_values()
    assert found - ALLOWED == set(), "new settable values; add them to ALLOWED on purpose"
    assert ALLOWED - found == set(), "removed settable values; take them out of ALLOWED"


BENCH = SRC.parent.parent / "bench"


def _read_names(node: ast.AST) -> set[str]:
    """The names a node reads: loaded names, attributes and ``from ... import`` names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The function, class or constant a module- or class-level statement defines, if any."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each name is read as an attribute, ``x.name``, inside a node."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def unread_members() -> set[str]:
    """module.member for each module-level function, class or constant of the
    package that nothing reads.  A reader is a statement of another module
    (``__init__`` re-exports do not count), another top-level statement of the
    same module, or a whole-word mention in ``bench/*.py``, whose tracer keys
    metrics on members by name.

    module.Class.member for each method, property, class attribute or dataclass
    field of a class (dunder names left out) that nothing reads: a reader is an
    attribute read ``x.member`` outside the member's own statement, anywhere in
    the package, or a whole-word ``.member`` in ``bench/*.py``."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {stem: [(stmt, _read_names(stmt)) for stmt in tree.body]
             for stem, tree in modules.items()}
    bench = " ".join(path.read_text() for path in sorted(BENCH.glob("*.py")))
    unread = set()
    for stem, statements in reads.items():
        elsewhere = set().union(*(names for other, sts in reads.items()
                                  if other not in (stem, "__init__") for _, names in sts))
        for stmt, _ in statements:
            read = elsewhere.union(*(names for st, names in statements if st is not stmt))
            unread.update(f"{stem}.{name}" for name in _defined_names(stmt)
                          if name not in read
                          and not re.search(rf"\b{re.escape(name)}\b", bench))
    package = sum((_attribute_reads(tree) for tree in modules.values()), Counter())
    for stem, tree in modules.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for stmt in cls.body:
                own = _attribute_reads(stmt)
                unread.update(f"{stem}.{cls.name}.{name}" for name in _defined_names(stmt)
                              if not (name.startswith("__") and name.endswith("__"))
                              and package[name] == own[name]
                              and not re.search(rf"\.{re.escape(name)}\b", bench))
    return unread


def test_every_member_has_a_reader():
    assert unread_members() == set(), "members no package module or benchmark reads"
