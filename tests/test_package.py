import ast
import inspect
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


# the experiments: the library itself, the demos, the benchmark and the acceptance suite
EXPERIMENTS = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def test_every_public_name_is_used_outside_its_module():
    # the experiments must use each public name; a name only its own
    # tests call does not belong in the public surface
    home = {name: Path(module.__file__).resolve() for module in MODULES for name in module.__all__}
    home["__version__"] = Path(markovmirror.__file__).resolve()
    used = {path.resolve(): identifiers(path) for path in EXPERIMENTS}
    unused = sorted(name for name in markovmirror.__all__
                    if not any(path != home[name] and name in names
                               for path, names in used.items()))
    assert unused == sorted(KEPT_UNUSED)


def defaulted_parameters():
    """(callable, parameter, position) of each defaulted parameter of a public function,
    constructor or public method; the position counts the arguments a call passes, so a
    method's self is not one."""
    out = set()
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                # a constructor is the class's __init__ where the package defines one
                sites = [(name, obj.__init__)] + [
                    (attr, fn) for attr, fn in vars(obj).items() if not attr.startswith("_")]
                sites = [(site, fn) for site, fn in sites if inspect.isfunction(fn)]
                skip = 1  # self
            else:
                sites, skip = ([(name, obj)] if inspect.isfunction(obj) else []), 0
            for site, fn in sites:
                params = list(inspect.signature(fn).parameters.values())[skip:]
                out |= {(site, param.name, i) for i, param in enumerate(params)
                        if param.default is not param.empty}
    return out


def calls(path):
    """(callee name or None, keywords, positional count, star) of each call in a file.

    The callee is the called name or attribute, None for a call through
    `getattr(...)(...)`; star is whether a `*` or `**` argument passes more.
    """
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        elif (isinstance(func, ast.Call) and isinstance(func.func, ast.Name)
              and func.func.id == "getattr"):
            callee = None
        else:
            continue
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        star = (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords))
        positional = sum(not isinstance(a, ast.Starred) for a in node.args)
        out.append((callee, keywords, positional, star))
    return out


def test_every_defaulted_parameter_is_passed_by_an_experiment():
    # a default that no experiment overrides is a constant with an option's cost: each
    # such option doubles the configurations the tests must cover.  Keywords in a call
    # through getattr count for every callable, and a * or ** argument passes everything
    found = [call for path in EXPERIMENTS for call in calls(path)]
    anywhere = {k for callee, keywords, _, _ in found if callee is None for k in keywords}

    def passed(site, param, position):
        return param in anywhere or any(
            callee == site and (star or param in keywords or positional > position)
            for callee, keywords, positional, star in found)

    unpassed = sorted(f"{site}({param}=)" for site, param, position in defaulted_parameters()
                      if not passed(site, param, position))
    assert unpassed == []


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
