"""Structure checks on the package source, by its syntax tree (stdlib only)."""

import ast
from pathlib import Path

import stdpairs

MODULES = sorted(Path(stdpairs.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_only_the_solver_and_the_monoid_build_systems():
    """``[A_F | -A_G]`` is laid out in ``monoid.py`` alone (and the matrix
    type in ``diophantine.py``): no other module stacks or negates a matrix."""
    assert len(MODULES) >= 10
    for path in MODULES:
        if path.name in ("diophantine.py", "monoid.py"):
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in ("hstack", "neg"), f"{path.name}:{node.lineno}"


def _used_names(tree: ast.Module) -> set:
    """Every name the module reads, also inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [a.annotation for a in (args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def test_no_unused_imports():
    """Every name a module imports is used in it (``__init__`` re-exports)."""
    for path in MODULES:
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        unused = sorted(set(imported) - _used_names(tree))
        assert unused == [], f"{path.name}: {unused}"


def test_the_package_exports_resolve_and_leave_out_the_unused_routes():
    """Every name in ``stdpairs.__all__`` resolves on the package, once; the
    refinement route and the kernel Hilbert basis, which no pipeline runs,
    are not exported (each still resolves in its module, as the tracer's
    contract test checks)."""
    assert len(set(stdpairs.__all__)) == len(stdpairs.__all__)
    for name in stdpairs.__all__:
        assert hasattr(stdpairs, name), name
    dropped = {"LoopCapExceeded", "cone_to_ctwo", "cover_to_standard", "czero_to_cone", "minimal_holes", "hilbert_kernel"}
    assert dropped.isdisjoint(stdpairs.__all__)
