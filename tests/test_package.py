import re
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
    "weak_vi_gap": "the only gap metric for the paper's monotone VIs that are not skew",
    "NormPair": "the type of Geometry.norm_pair",
    "ChainDiagnostics": "the return type of diagnose",
    "ScalingReport": "the return type of deviation_scaling",
    "BiasReport": "the return type of batch_bias_profile",
    "MomentReport": "the return type of estimator_moments",
    "PairingReport": "the return type of unbiasedness_check",
    "RateFit": "the return type of rate_fit and bootstrap_rate_ci",
}


def test_every_public_name_is_used_outside_its_module():
    # the experiments (the library itself, the demos, the benchmark and the
    # acceptance suite) must use each public name; a name only its own
    # tests call does not belong in the public surface
    home = {name: Path(module.__file__).resolve() for module in MODULES for name in module.__all__}
    home["__version__"] = Path(markovmirror.__file__).resolve()
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    texts = {path.resolve(): path.read_text(encoding="utf-8") for path in files}
    unused = sorted(name for name in markovmirror.__all__
                    if not any(path != home[name] and re.search(rf"\b{re.escape(name)}\b", text)
                               for path, text in texts.items()))
    assert unused == sorted(KEPT_UNUSED)
