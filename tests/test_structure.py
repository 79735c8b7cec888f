"""Structural checks on the package's modules: each reaches another only
through its public names, and only the basis and the operator's assembly
know the Laguerre J matrix's bands and its Cholesky factor."""

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
