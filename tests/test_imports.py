"""Every name a module under src/ imports is used in it or re-exported by __all__,
every function, class and method defined under src/ is used there, every
function but the brute-force oracle is entered by a profiled run of
the commands, every __all__ entry is bound in its module, no module under src/ imports random
or dataclasses or starts processes, only stability.py imports fractions, only cohom.py and
monad.py import section_matrix (beside polycore's re-export), the certify path
loads no numpy, no command loads dataclasses, zeta loads charpoly before numpy,
every exception subclass is caught by name somewhere, no module under src/
raises ValueError or KeyError, and `cli.main` catches only BundleCertError
from a command."""
import ast
import importlib
import json
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


# Runs a fixed command set in a fresh interpreter, so no cache starts warm,
# and prints every function under src/ that no call entered: every shipped
# input through its commands and verify, and a monad whose exactness needs
# stage 2 (no leading monomial of x0*x1 + x2^2, x0^2, x1^2 is a power of x2).
# Run as: python -c PROFILED_RUN SRC TMPDIR
PROFILED_RUN = r"""
import contextlib, inspect, io, json, sys, types
from pathlib import Path

src, tmp = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from bundlecert import cli

inputs = src.parent / "inputs"
stage2 = tmp / "stage2.monad"
stage2.write_text(json.dumps({"ambient": {"type": "projective", "dim": 2}, "middle": [0, 0, 0],
                              "target": [2], "map_b": [["x0*x1 + x2^2", "x0^2", "x1^2"]]}))
commands = []
for name, polarization in [("euler", "1"), ("ks2", "1"), ("k_rank3", "1,1"),
                           ("k_rank3_n2", "1,1"), ("e_rank2", "1,1"), ("stage2", "1")]:
    monad = stage2 if name == "stage2" else inputs / f"{name}.monad"
    cert = tmp / f"{name}.json"
    commands += [["certify", "--monad", monad, "--polarization", polarization, "--out", cert],
                 ["verify", cert]]
commands += [
    ["h0", "--monad", inputs / "k_rank3.monad", "--twist", "1,1", "--exterior", "2"],
    ["chern", "--monad", inputs / "e_rank2.monad", "--cover", "double"],
    ["quartic-run", "--surface", inputs / "quartic.json", "--out", tmp / "quartic.json"],
    ["verify", tmp / "quartic.json"],
    ["count-points", "--surface", inputs / "b44.poly", "--prime", "3", "--max-n", "2"],
    ["picard-bound", "--surface", inputs / "b44.poly", "--prime", "3", "--out", tmp / "b44.json"],
    ["verify", tmp / "b44.json"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE), argv
sys.setprofile(None)

entered = {(Path(c.co_filename).resolve(), c.co_firstlineno, c.co_name) for c in entered}


def functions(code, prefix):
    for k in code.co_consts:
        if isinstance(k, types.CodeType) and not k.co_name.startswith("<"):
            name = prefix + k.co_name
            if k.co_flags & inspect.CO_OPTIMIZED:
                yield k, name
                yield from functions(k, name + ".<locals>.")
            else:  # a class body
                yield from functions(k, name + ".")


never = []
for path in sorted(src.rglob("*.py")):
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    never += [f"{path.relative_to(src).as_posix()} {name}" for k, name in functions(code, "")
              if (path.resolve(), k.co_firstlineno, k.co_name) not in entered]
print(json.dumps(never))
"""


def test_every_function_under_src_is_entered_by_the_commands(tmp_path):
    # the static guard above matches names only, so a method whose name is
    # loaded elsewhere under src/ passes it unused; this run sees calls
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PROFILED_RUN, str(SRC), str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    assert json.loads(out.stdout) == [
        "bundlecert/zeta/count.py count_points_bruteforce",
        "bundlecert/zeta/count.py count_points_bruteforce.<locals>.add",
        "bundlecert/zeta/count.py count_points_bruteforce.<locals>.monomials",
    ]


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


def test_no_module_under_src_imports_dataclasses():
    # importing dataclasses loads inspect, ast, dis and tokenize, and each
    # decorator generates and compiles its methods: most of the import time
    # of every command
    found = [f"{path.relative_to(SRC)} {name}" for path in sorted(SRC.rglob("*.py"))
             for name in imported_modules(path) if name.split(".")[0] == "dataclasses"]
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


def test_no_module_under_src_raises_value_error_or_key_error():
    # a refusal is a BundleCertError, raised once by the owner of its
    # precondition; a builtin error means a bug, and main lets it show
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "KeyError"):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno} {exc.id}")
    assert found == []


def test_main_catches_only_bundlecert_error_from_a_command():
    tree = ast.parse((SRC / "bundlecert" / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "main")
    (command_try,) = [node for node in ast.walk(main) if isinstance(node, ast.Try)
                      and any(isinstance(n, ast.Attribute) and n.attr == "fn"
                              for stmt in node.body for n in ast.walk(stmt))]
    caught = [ast.unparse(handler.type) for handler in command_try.handlers]
    assert caught == ["BundleCertError"] and not command_try.finalbody


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


def test_no_command_loads_dataclasses():
    # the guard above reads the source; this reads sys.modules, so a
    # dependency that loads dataclasses shows too (numpy loads inspect, but
    # not dataclasses)
    code = (
        "import sys, bundlecert.cli, bundlecert.stability, bundlecert.k3lat, bundlecert.zeta; "
        "print('dataclasses' in sys.modules)"
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
