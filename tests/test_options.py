"""The settable values of the package, pinned.

Every function parameter with a default and every dataclass field with a
default is a value a caller can set, and each one doubles the configurations
that tests must cover.  The set is pinned here: a new option fails this test
until it is added to ``ALLOWED`` on purpose, and a removed one until it is
taken out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncdomains"

ALLOWED = {
    "cli.main(argv)",
    "colligation.build_isometry(tol)",
    "colligation.Colligation.fallback_padding",
    "colligation.Colligation.triple",
    "colligation.Colligation.partial",
    "config.parse_operator_tuple(base)",
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
    "config.ExperimentConfig.from_json(base)",
    "domain.WeightedShift.dense(inner)",
    "domain.weighted_creation(side)",
    "domain.apply_phi(X)",
    "domain.domain_membership(tol)",
    "harness.CommutingPair.kind",
    "harness.CommutingPair.seed",
    "harness.ando_dilation(N)",
    "harness.ando_dilation(variety)",
    "harness.ando_dilation(tol)",
    "harness.verify_inequality(dil_swapped)",
    "report.CheckRecord.kind",
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
