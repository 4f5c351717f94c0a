"""The tableaux route must not borrow the engine's solver or twist kernel,
nor import anything from the engine module."""

import ast
from pathlib import Path

import qtchar
from qtchar import tableaux_a, tableaux_d

ENGINE_KERNELS = {
    "v_profile",
    "pairing_d",
    "_twist_exponent",
    "_block",
    "_rank_one_factor",
    "e_expansion",
    "_fold",
    "twisted_product",
    "fundamental_character",
    "_fundamental_terms",
    "_closure",
    "standard_character",
}


def _tableaux_sources():
    sources = sorted(Path(qtchar.__file__).parent.glob("tableaux_*.py"))
    assert [p.name for p in sources] == ["tableaux_a.py", "tableaux_d.py"]
    return sources


def test_tableaux_modules_import_no_engine_kernel():
    for path in _tableaux_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            else:
                continue
            assert not names & ENGINE_KERNELS, (path.name, node.lineno, names & ENGINE_KERNELS)


def test_tableaux_modules_import_nothing_from_engine():
    for path in _tableaux_sources():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = node.module or ""
                modules = [base] + [f"{base}.{a.name}".lstrip(".") for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            hits = [m for m in modules if m in ("engine", "qtchar.engine")]
            assert not hits, (path.name, node.lineno, hits)


def test_one_column_model():
    """Each column kind carries its box rule; one column monomial and one pool
    builder serve type A, vector and spin columns."""
    assert tableaux_a.AColumn.box is tableaux_a.box_monomial
    assert tableaux_d.DColumn.box is tableaux_d.box_monomial
    assert tableaux_d.SpinColumn.box is tableaux_d.half_box_monomial
    assert tableaux_d.column_monomial is tableaux_a.column_monomial
    assert tableaux_d._pool is tableaux_a._pool
