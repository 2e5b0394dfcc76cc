"""Mutated input files never make the command line raise.

Every file-reading subcommand runs on copies of the tests/data pentagon
files (and small weight and score files for the same pentagon) with one
file mutated, either as a JSON tree or as raw bytes.  Each run must end
in a documented exit code; exit 2 must come with one ``error:`` line.

A documented code can still be a silent acceptance, so one mutation is
held to exit 2: a table keyed by the structure's atoms or contexts that
gains a name the structure lacks, with a valid value.  The link flags
``--beta``, ``--k`` and ``--alpha`` take extreme literals too.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pastedlogic import cli

DATA = Path(__file__).parent / "data"
ATOMS = [f"a{i}" for i in range(1, 6)] + [f"x{i}" for i in range(1, 6)]
EXIT_CODES = {0, 2, 3, 4, 5, 6}

FILES = {
    "pentagon.json": (DATA / "pentagon.json").read_bytes(),
    # its "structure" field names pentagon.json beside it
    "counts.json": (DATA / "counts_beyond.json").read_bytes(),
    "counts.csv": (DATA / "counts_beyond.csv").read_bytes(),
    "gate.json": (DATA / "counts_gate_fail.json").read_bytes(),
    "weight.json": json.dumps(
        {"mode": "rational", "values": {a: "1/3" for a in ATOMS}}
    ).encode(),
    "scores.json": json.dumps(
        {"scope": "global", "link": {"kind": "power", "k": 3},
         "values": {a: "1/3" for a in ATOMS}}
    ).encode(),
    "maxent.json": json.dumps({"w": 0, "l": 1}).encode(),
    "per-context.json": json.dumps(
        {"scope": "per-context", "link": {"kind": "power", "k": 3},
         "values": {c["name"]: {a: "1/3" for a in c["atoms"]}
                    for c in json.loads((DATA / "pentagon.json").read_text())["contexts"]}}
    ).encode(),
}

# argv with file names standing for their copies, and the exit code on
# the unmutated files
COMMANDS = [
    (["check", "--structure", "pentagon.json", "--weight", "weight.json"], 0),
    (["enumerate", "--structure", "pentagon.json"], 0),
    (["classify", "--structure", "pentagon.json", "--weight", "weight.json"], 0),
    (["represent", "--structure", "pentagon.json", "--weight", "weight.json",
      "--link", "identity"], 0),
    (["glue-check", "--structure", "pentagon.json", "--scores", "scores.json"], 0),
    (["glue-check", "--structure", "pentagon.json", "--scores", "per-context.json"], 0),
    (["maxent", "--scores", "maxent.json", "--target", "0.5"], 0),
    (["analyze", "--data", "counts.json"], 4),
    (["analyze", "--data", "gate.json"], 6),
    (["analyze", "--data", "counts.csv", "--structure", "pentagon.json"], 4),
]
IDS = [" ".join(a for a in argv if not a.startswith("--")) for argv, _ in COMMANDS]

KEYS = st.sampled_from(
    ["atoms", "contexts", "name", "mode", "values", "scope", "link", "kind",
     "beta", "k", "structure", "counts", "C1", "a1", "x1"]
) | st.text(max_size=4)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400), 1000, -1, 0])
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/3", "1/0", "-1", "1e400", "x", "pentagon.json",
                       "exponential", "power", "identity", "global",
                       "per-context", "rational", "float"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(KEYS, kids, max_size=3),
    max_leaves=6,
)


def paths(doc, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from paths(child, prefix + (key,))


def mutate_tree(data, raw: bytes) -> bytes:
    doc = json.loads(raw)
    path = data.draw(st.sampled_from(list(paths(doc))))
    op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    if not path:
        return json.dumps(data.draw(JSON_VALUES)).encode()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "replace":
        parent[path[-1]] = data.draw(JSON_VALUES)
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(KEYS)] = data.draw(JSON_VALUES)
    else:
        parent.insert(path[-1], data.draw(JSON_VALUES))
    return json.dumps(doc).encode()


def mutate_bytes(data, raw: bytes) -> bytes:
    start = data.draw(st.integers(0, len(raw)))
    stop = data.draw(st.integers(start, min(len(raw), start + 8)))
    filler = data.draw(st.binary(max_size=4) | st.text(max_size=4).map(str.encode))
    return raw[:start] + filler + raw[stop:]


def run(argv, tmp_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(tmp_path / a) if a in FILES else a for a in argv])
        except SystemExit as exc:  # argparse's own usage error
            assert exc.code == 2
            return 2, None
    return code, err.getvalue()


@pytest.mark.parametrize("argv,expected", COMMANDS, ids=IDS)
def test_unmutated_files_give_their_exit_code(argv, expected, tmp_path):
    for name, raw in FILES.items():
        (tmp_path / name).write_bytes(raw)
    assert run(argv, tmp_path) == (expected, "")


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=IDS)
@settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_input_exits_with_a_documented_code(argv, tmp_path, data):
    for name, raw in FILES.items():
        (tmp_path / name).write_bytes(raw)
    targets = [a for a in argv if a in FILES]
    if "counts.json" in argv:
        targets.append("pentagon.json")
    target = data.draw(st.sampled_from(targets))
    raw = FILES[target]
    as_tree = target.endswith(".json") and data.draw(st.booleans())
    (tmp_path / target).write_bytes(
        mutate_tree(data, raw) if as_tree else mutate_bytes(data, raw)
    )
    code, err = run(argv, tmp_path)
    assert code in EXIT_CODES
    if code == 2 and err is not None:
        assert err.startswith("error:") and err.count("\n") == 1, err


# A name-keyed table in each file: the argv that reads it, and the keys
# down to it ("*" picks one context's table).
NAME_TABLES = [
    (argv, target, path)
    for argv, _ in COMMANDS
    for target, path in [
        ("weight.json", ("values",)),
        ("scores.json", ("values",)),
        ("per-context.json", ("values",)),
        ("per-context.json", ("values", "*")),
        ("counts.json", ("counts",)),
        ("counts.json", ("counts", "*")),
        ("gate.json", ("counts",)),
        ("gate.json", ("counts", "*")),
        ("counts.csv", ()),
    ]
    if target in argv
]
EXTRA_NAMES = st.text(alphabet="abcxyz019", max_size=3).map(lambda s: "zz" + s)


@pytest.mark.parametrize(
    "argv, target, path", NAME_TABLES,
    ids=[f"{argv[0]} {target} {'.'.join(path) or 'rows'}" for argv, target, path in NAME_TABLES],
)
@settings(
    derandomize=True,
    database=None,
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_a_name_outside_the_structure_exits_2(argv, target, path, tmp_path, data):
    for name, raw in FILES.items():
        (tmp_path / name).write_bytes(raw)
    extra = data.draw(EXTRA_NAMES)
    if target.endswith(".csv"):
        # a copy of one row, with its context or its atom renamed
        text = FILES[target].decode()
        row = data.draw(st.sampled_from(text.splitlines()[1:])).split(",")
        row[data.draw(st.sampled_from([0, 1]))] = extra
        mutated = (text + ",".join(row) + "\n").encode()
    else:
        doc = json.loads(FILES[target])
        table = doc
        for key in path:
            table = table[data.draw(st.sampled_from(sorted(table)))] if key == "*" else table[key]
        table[extra] = copy.deepcopy(table[data.draw(st.sampled_from(sorted(table)))])
        mutated = json.dumps(doc).encode()
    (tmp_path / target).write_bytes(mutated)
    code, err = run(argv, tmp_path)
    assert code == 2 and err is not None, (code, err)
    assert err.startswith("error:") and err.count("\n") == 1 and extra in err, err


# argv ending in a link flag, and the literals that flag is given
LINK_FLAGS = [
    ["represent", "--structure", "pentagon.json", "--weight", "weight.json", "--beta"],
    ["represent", "--structure", "pentagon.json", "--weight", "weight.json",
     "--link", "power", "--k"],
    *(["represent", "--structure", "pentagon.json", "--weight", "weight.json",
       "--link", kind, "--alpha"] for kind in ("exponential", "identity", "power")),
    ["glue-check", "--structure", "pentagon.json", "--scores", "scores.json", "--beta"],
    ["glue-check", "--structure", "pentagon.json", "--scores", "scores.json",
     "--link", "power", "--k"],
]
EXTREME_LITERALS = ["0", "1e-400", "1e400", "-1", "nan", "5e-324", "1e-300", "1e300"]


@pytest.mark.parametrize("literal", EXTREME_LITERALS)
@pytest.mark.parametrize("argv", LINK_FLAGS, ids=[" ".join(argv[-3:]) for argv in LINK_FLAGS])
def test_link_flags_take_extreme_literals(argv, literal, tmp_path):
    for name, raw in FILES.items():
        (tmp_path / name).write_bytes(raw)
    code, err = run([*argv, literal], tmp_path)
    assert code in {0, 2, 3}
    if code == 2 and err is not None:
        assert err.startswith("error:") and err.count("\n") == 1, err
    else:
        assert not err, err
