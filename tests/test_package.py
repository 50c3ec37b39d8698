import ast
from pathlib import Path

import markovmirror
from markovmirror import chain, errors, estimators, geometry, problems, solvers, validation

MODULES = (chain, errors, estimators, geometry, problems, solvers, validation)


def test_package_all_is_the_union_of_the_module_alls():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert markovmirror.__all__ == ["__version__", *names]
    for module in MODULES:
        for name in module.__all__:
            # one object in both places: perfbench's tracer rebinds it wherever it finds it
            assert getattr(markovmirror, name) is getattr(module, name)



ROOT = Path(__file__).resolve().parent.parent

# public names that nothing outside their module uses, kept on purpose
KEPT_UNUSED = {
    "NormPair": "the type of Geometry.norm_pair",
    "Geometry": "the base class of the three geometries",
    "Estimate": "the return type of mlmc_geometric",
    "RunRecord": "the return type of the solvers",
    "ChainDiagnostics": "the return type of diagnose",
    "ScalingReport": "the return type of deviation_scaling",
    "BiasReport": "the return type of batch_bias_profile",
    "PairingReport": "the return type of unbiasedness_check",
    "RateFit": "the return type of rate_fit and bootstrap_rate_ci",
}


def identifiers(path):
    """The names a file's code refers to: `Name` and `Attribute` nodes and import aliases.

    Strings, comments and docstrings do not count, so a name that only a
    string mentions counts as unused.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_public_name_is_used_outside_its_module():
    # the experiments (the library itself, the demos, the benchmark and the
    # acceptance suite) must use each public name; a name only its own
    # tests call does not belong in the public surface
    home = {name: Path(module.__file__).resolve() for module in MODULES for name in module.__all__}
    home["__version__"] = Path(markovmirror.__file__).resolve()
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = {path.resolve(): identifiers(path) for path in files}
    unused = sorted(name for name in markovmirror.__all__
                    if not any(path != home[name] and name in names
                               for path, names in used.items()))
    assert unused == sorted(KEPT_UNUSED)


def test_no_function_body_imports():
    # every import sits at module level, so an import cycle between modules fails at
    # import time instead of hiding in a function body
    inner = sorted(
        f"{path.name}:{node.lineno}"
        for path in Path(markovmirror.__file__).parent.rglob("*.py")
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert inner == []
