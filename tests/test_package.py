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

