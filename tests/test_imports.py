"""Every name a module under src/ imports is used in it or re-exported by __all__,
every function, class and method defined under src/ is used there, every
__all__ entry is bound in its module, no module under src/ imports random
or starts processes, only stability.py imports fractions, only cohom.py and
monad.py import section_matrix (beside polycore's re-export), the certify path
loads no numpy, zeta loads charpoly before numpy, and every exception subclass
is caught by name somewhere."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    rel = path.relative_to(SRC)
    return [f"{rel}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports_under_src():
    found = [u for path in sorted(SRC.rglob("*.py")) for u in unused_imports(path)]
    assert found == []


def test_every_definition_under_src_is_used_in_src():
    # a module-level function or class, or a non-dunder method, that no code
    # under src/ loads by name or attribute is dead; the brute-force oracle
    # is kept for the tests and the benchmark's tests, which import it
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.rglob("*.py"))]
    loaded = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []
    for path, tree in trees:
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((path, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path, item.name) for item in node.body if isinstance(item, functions)
                            and not (item.name.startswith("__") and item.name.endswith("__"))]
    dead = [f"{path.relative_to(SRC)} {name}" for path, name in defined if name not in loaded]
    assert dead == ["bundlecert/zeta/count.py count_points_bruteforce"]


def imported_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_under_src_imports_random():
    # a verdict is a proof, never a sample; the stdlib loads random on the
    # certify path anyway, so sys.modules cannot tell
    found = [f"{path.relative_to(SRC)} {name}" for path in sorted(SRC.rglob("*.py"))
             for name in imported_modules(path) if name.split(".")[0] == "random"]
    assert found == []


def test_no_module_under_src_starts_processes():
    # a count runs in the process that asked for it; a worker pool only
    # doubled the wall time of picard-bound on two cores
    found = [f"{path.relative_to(SRC)} {name}" for path in sorted(SRC.rglob("*.py"))
             for name in imported_modules(path)
             if name.split(".")[0] in ("concurrent", "multiprocessing")]
    assert found == []


def test_only_stability_imports_fractions():
    # coefficients, matrix cells and kernel vectors are ints; a slope is the
    # one rational value, and its str is in every certificate
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             for name in imported_modules(path) if name.split(".")[0] == "fractions"]
    assert found == ["bundlecert/stability.py"]


def test_only_cohom_and_monad_import_section_matrix():
    # every h^0 goes through cohom (the quartic's too, as a kernel monad on P3);
    # monad builds the one matrix of its exactness test
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and any(alias.name == "section_matrix" for alias in node.names)]
    assert found == ["bundlecert/cohom.py", "bundlecert/monad.py",
                     "bundlecert/polycore/__init__.py"]


def test_every_error_subclass_is_caught_by_name():
    # a failure nothing catches by name raises BundleCertError itself; the
    # message says what went wrong
    errors = ast.parse((SRC / "bundlecert" / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert sorted(defined - caught - {"BundleCertError"}) == []


def test_only_errors_py_defines_exceptions():
    found = [f"{path.relative_to(SRC)} {node.name}" for path in sorted(SRC.rglob("*.py"))
             if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id.endswith(("Error", "Exception"))
                     for b in node.bases)]
    assert found == []


def test_every_all_entry_is_bound():
    stale = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        stale += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", [])
                  if not hasattr(module, name)]
    assert stale == []


def test_certify_path_does_not_import_numpy():
    # numpy would add about 0.1 s to the start of every certify and verify
    code = (
        "import sys, bundlecert.cli, bundlecert.stability, bundlecert.k3lat; "
        "print('numpy' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


def test_zeta_compiles_charpoly_before_numpy():
    # with no .pyc (PYTHONDONTWRITEBYTECODE=1) a module compiled after numpy is
    # loaded adds its compile-time peak to numpy's memory: the charpoly
    # workload, which builds no field, read 34.75 MB of peak RSS against 34.12
    zeta = SRC / "bundlecert" / "zeta"
    charpoly = ast.parse((zeta / "charpoly.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(charpoly):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported |= {base} if node.module else {base + alias.name for alias in node.names}
    assert imported & {"numpy", ".field", ".count"} == set()
    init = ast.parse((zeta / "__init__.py").read_text(encoding="utf-8"))
    first = next(node for node in init.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__")
    assert isinstance(first, ast.ImportFrom) and (first.level, first.module) == (1, "charpoly")
