"""What ``import pastedlogic`` loads, and what the package exports.

Each check runs in a fresh interpreter, so no earlier test has loaded a
submodule for it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# The public names of the package namespace when ``__init__`` imported
# every submodule eagerly: 88 classes and functions, and the public
# submodules that those imports bound as attributes on the way.
EAGER_NAMES = {
    "bounds", "empirical", "errors", "numeric", "softmax", "states", "structures", "weights",
    "CycleBounds", "RegionReport", "classify_weight", "cycle_bounds", "path_thresholds",
    "AnalysisReport", "CountData", "FrequencyEstimates", "ReconstructedWeight",
    "SingleValuednessReport", "analyze", "estimate_frequencies", "ingest_counts",
    "project_affine", "reconstruct_weight", "sample_counts", "single_valuedness_test",
    "AlphaOutOfRangeError", "DegenerateScoresError", "DuplicateAtomError",
    "DuplicateContextError", "EmptyContextError", "EmptyContextSampleError",
    "EnumerationLimitError", "InvalidCycleLengthError", "MissingAtomValueError",
    "NegativeCountError", "NegativePathParameterError", "NoTwoValuedStatesError",
    "NotACycleStructureError", "NotAComponentError", "NotAdmissibleError", "NotGluedError",
    "NotStrictlyPositiveError", "PastedLogicError", "SchemaError", "ScoreOutOfDomainError",
    "SingularSystemError", "TargetOutOfRangeError", "UnknownAtomError", "ValidationError",
    "ContextDistributionFamily", "ExponentialLink", "GlobalScores", "GluingReport",
    "IdentityLink", "LinkFunction", "MultiplicativeLinkReport", "PerContextScores",
    "PowerLink", "boundary_path", "check_multiplicative_link", "context_softmax",
    "gauge_shift", "gluing_check", "glue_to_weight", "link_from_json_dict",
    "maxent_softmax", "represent_weight", "scores_from_json_dict",
    "MembershipResult", "StateSpace", "TwoValuedState", "classical_membership",
    "enumerate_two_valued_states", "max_cyclic_value",
    "CycleForm", "EventStructure", "IncidenceIndex", "build_event_structure",
    "connected_components", "cycle_form", "cycle_logic", "incidence",
    "structure_from_json", "structure_from_json_dict",
    "AdmissibilityReport", "Weight", "check_admissible", "cyclic_sum", "half_weight",
    "make_weight", "path_weight", "support", "to_float", "to_rational",
    "weight_from_json", "weight_from_json_dict",
}

LOADED = "sorted(m[len('pastedlogic.'):] for m in sys.modules if m.startswith('pastedlogic.'))"


def probe(code: str):
    """Run ``code`` in a fresh interpreter and read the JSON it prints."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_the_names_are_the_eager_ones():
    assert len(EAGER_NAMES) == 96
    code = "import json, pastedlogic as pl; print(json.dumps([pl.__all__, dir(pl)]))"
    exported, listed = probe(code)
    assert len(exported) == len(EAGER_NAMES) and set(exported) == EAGER_NAMES
    assert EAGER_NAMES | {"__version__"} <= set(listed)


def test_importing_the_package_loads_no_submodule():
    assert probe(f"import json, sys, pastedlogic; print(json.dumps({LOADED}))") == []


def test_loading_a_structure_loads_only_its_layer():
    path = ROOT / "tests" / "data" / "pentagon.json"
    code = (
        "import json, sys, pastedlogic\n"
        f"pastedlogic.structure_from_json(open({str(path)!r}).read())\n"
        f"print(json.dumps({LOADED}))\n"
    )
    assert probe(code) == ["_linalg", "errors", "numeric", "structures"]


def test_the_cli_loads_every_traced_layer(monkeypatch):
    """The benchmark's tracer looks each of its layers up in
    ``sys.modules`` once ``pastedlogic.cli`` is imported."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    loaded = probe(f"import json, sys, pastedlogic.cli; print(json.dumps({LOADED}))")
    assert sorted(set(tracer.LAYER_FUNCTIONS) - set(loaded)) == []


def test_every_name_is_the_object_its_module_defines():
    """A name resolves, on first use and after, to the object of the
    submodule that ``_EXPORTS`` lists it under, which is the submodule
    that defines it, and a submodule name to the submodule.  The package
    holds the submodules and none of the other names."""
    code = (
        "import importlib, json, sys, types, pastedlogic as pl\n"
        f"names = {sorted(EAGER_NAMES)!r}\n"
        "listed = {n: 'pastedlogic.' + m for m, ns in pl._EXPORTS.items() for n in ns}\n"
        "wrong = []\n"
        "for name in names:\n"
        "    first = getattr(pl, name)\n"
        "    if isinstance(first, types.ModuleType):\n"
        "        home = importlib.import_module('pastedlogic.' + name)\n"
        "        held = vars(pl)[name] is home\n"
        "    else:\n"
        "        home = getattr(sys.modules[listed[name]], name)\n"
        "        held = name not in vars(pl) and first.__module__ == listed[name]\n"
        "    if not (held and first is home and getattr(pl, name) is home):\n"
        "        wrong.append(name)\n"
        "print(json.dumps(wrong))\n"
    )
    assert probe(code) == []


def test_a_name_first_used_under_a_tracer_is_the_original_after_it():
    """``perfbench/tracer.py`` wraps the submodules' functions and puts
    them back on ``uninstall``; a package name read while it is
    installed is its wrapper, and the original again after, so a later
    tracer sees the calls made through the package."""
    code = (
        "import importlib.util, json, sys\n"
        "sys.dont_write_bytecode = True  # leave perfbench/ untouched\n"
        "import pastedlogic as pl, pastedlogic.cli\n"
        f"spec = importlib.util.spec_from_file_location('_tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "originals = {n: getattr(sys.modules['pastedlogic.' + layer], n)\n"
        "             for layer, ns in tracer.LAYER_FUNCTIONS.items() for n in ns if n in pl.__all__}\n"
        "names = sorted(originals)\n"
        "wrong = []\n"
        "for _ in range(2):\n"
        "    t = tracer.Tracer()\n"
        "    t.install()\n"
        "    wrong += [n for n in names if getattr(pl, n) is originals[n]]\n"
        "    t.uninstall()\n"
        "    wrong += [n for n in names if getattr(pl, n) is not originals[n]]\n"
        "print(json.dumps([len(names), wrong]))\n"
    )
    assert probe(code) == [39, []]


def test_a_star_import_binds_every_name():
    code = (
        "import json\n"
        "namespace = {}\n"
        "exec('from pastedlogic import *', namespace)\n"
        "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))\n"
    )
    assert set(probe(code)) == EAGER_NAMES


def test_an_unknown_name_is_an_attribute_error():
    import pastedlogic as pl

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pl.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        from pastedlogic import no_such_name  # noqa: F401
