"""Structural checks on the package's modules: each reaches another only
through its public names, only the basis and the operator's assembly know
the Laguerre J matrix's bands and its Cholesky factor, and every public
name is used in the package outside `__init__.py` or kept for a stated
reason."""

import ast
import re
from pathlib import Path

import chargeplane

PACKAGE = Path(chargeplane.__file__).parent


def _modules() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_no_module_imports_a_private_name():
    found = {
        name: [
            alias.name
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "chargeplane")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        for name, text in _modules().items()
    }
    assert found and not any(found.values()), found


# J's bands and its bidiagonal Cholesky factor: `basis` makes them and
# `hamiltonian` builds D, S and the reduced pencil from them.
_J_BANDS = re.compile(r"\bj_(?:factor|matrix)_bands\b")


def test_only_the_basis_and_the_operator_know_the_j_bands():
    found = {
        name: _J_BANDS.findall(text)
        for name, text in _modules().items()
        if name not in ("basis.py", "hamiltonian.py")
    }
    assert found and not any(found.values()), found


# Public names that no module of the package uses, each with its one reason.
_UNUSED_PUBLIC = {
    "eigen_decompose": "the eigensolver contract of acceptance criterion 8",
    "eigenvalue_derivative": "criterion 8's analytic dZ/dE, a continuation predictor's slope",
    "GAUSSIAN_WELL_POTENTIAL": "the potential of acceptance criterion 3",
}


def test_every_public_name_has_a_production_caller():
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for name, text in _modules().items()
        if name != "__init__.py"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    public = set(chargeplane.__all__)
    unused = sorted(public - loaded - set(_UNUSED_PUBLIC))
    assert not unused, unused
    # an entry whose name gained a caller, or left __all__, has no reason left
    stale = sorted(set(_UNUSED_PUBLIC) - (public - loaded))
    assert not stale, stale
