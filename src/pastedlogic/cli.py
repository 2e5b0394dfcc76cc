"""Command line front end.

Every subcommand reads/writes the JSON formats of the library and exits
with a uniform code: 0 success (classical / admissible / glued), 2
validation problem, 3 admissible but nonclassical (or not glued), 4
beyond the theta bound, 5 not admissible, 6 classification withheld by
the empirical gates.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import (
    LABEL_BEYOND_THETA,
    LABEL_CLASSICAL,
    LABEL_NONCLASSICAL,
    LABEL_NOT_ADMISSIBLE,
    classify_weight,
    cycle_bounds,
    path_thresholds,
)
from .empirical import analyze, ingest_counts
from .errors import PastedLogicError, ValidationError
from .numeric import DEFAULT_TOL, FLOAT, RATIONAL, dumps, numeric_to_json
from .softmax import (
    ExponentialLink,
    IdentityLink,
    PowerLink,
    context_softmax,
    gluing_check,
    link_from_json_dict,
    maxent_softmax,
    represent_weight,
    scores_from_json_dict,
)
from .states import enumerate_two_valued_states
from .structures import cycle_logic, structure_from_json_dict
from .weights import (
    check_admissible,
    cyclic_sum,
    path_weight,
    to_float,
    to_rational,
    weight_from_json_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCLASSICAL = 3
EXIT_BEYOND_THETA = 4
EXIT_NOT_ADMISSIBLE = 5
EXIT_WITHHELD = 6

_LABEL_EXIT = {
    LABEL_CLASSICAL: EXIT_OK,
    LABEL_NONCLASSICAL: EXIT_NONCLASSICAL,
    LABEL_BEYOND_THETA: EXIT_BEYOND_THETA,
    LABEL_NOT_ADMISSIBLE: EXIT_NOT_ADMISSIBLE,
}


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def _load_structure(path: str):
    return structure_from_json_dict(_load_json(path))


def _load_weight(path: str, structure, mode: str | None):
    w = weight_from_json_dict(_load_json(path), structure)
    if mode == RATIONAL:
        return to_rational(w)
    if mode == FLOAT:
        return to_float(w)
    return w


def _make_link(args) -> ExponentialLink | IdentityLink | PowerLink:
    if args.link in (None, "exponential"):
        return ExponentialLink(args.beta)
    if args.link == "identity":
        return IdentityLink()
    return PowerLink(args.k)


def _emit(args, payload) -> None:
    text = dumps(payload) if not isinstance(payload, str) else payload
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def cmd_gen_cycle(args) -> int:
    structure = cycle_logic(args.n)
    _emit(args, structure.to_json_dict())
    return EXIT_OK


def cmd_table1(args) -> int:
    """The pentagon three-regime table along the path family."""
    structure = cycle_logic(5)
    columns = [a for i in range(1, 6) for a in (f"a{i}", f"x{i}")]
    uniform = path_weight(structure, Fraction(1))
    half = path_weight(structure, Fraction(0))
    midpoint = {f"a{i}": Fraction(0) for i in range(1, 6)}
    midpoint.update({f"x{i}": Fraction(1) for i in range(1, 6)})
    proxy = path_weight(structure, Fraction(10**12))
    payload = {
        "columns": columns,
        "rows": [
            {
                "regime": "midpoint",
                "r": "limit",
                "annotation": (
                    "limit r -> infinity, not attained; at r = 10^12 the "
                    "cyclic atoms sit within 1e-12 of 0"
                ),
                "values": {a: numeric_to_json(midpoint[a]) for a in columns},
                "proxy_max_gap": numeric_to_json(
                    max(float(abs(proxy[a] - midpoint[a])) for a in columns)
                ),
            },
            {
                "regime": "uniform",
                "r": "1",
                "values": {a: numeric_to_json(uniform[a]) for a in columns},
            },
            {
                "regime": "half-weight",
                "r": "0",
                "values": {a: numeric_to_json(half[a]) for a in columns},
            },
        ],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_check(args) -> int:
    structure = _load_structure(args.structure)
    weight = _load_weight(args.weight, structure, args.mode)
    report = check_admissible(weight, args.tol)
    _emit(args, report.to_json_dict())
    return EXIT_OK if report.admissible else EXIT_NOT_ADMISSIBLE


def cmd_enumerate(args) -> int:
    structure = _load_structure(args.structure)
    states = enumerate_two_valued_states(structure, args.limit)
    _emit(
        args,
        {"count": len(states), "states": [s.to_json_dict() for s in states]},
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    structure = _load_structure(args.structure)
    weight = _load_weight(args.weight, structure, args.mode)
    report = classify_weight(structure, weight, args.tol)
    _emit(args, report.to_json_dict())
    return _LABEL_EXIT[report.label]


def cmd_represent(args) -> int:
    structure = _load_structure(args.structure)
    weight = _load_weight(args.weight, structure, args.mode)
    link = _make_link(args)
    alpha = Fraction(args.alpha) if args.alpha else None
    scores = represent_weight(structure, weight, link, alpha)
    payload = scores.to_json_dict()
    payload["link"] = link.to_json_dict()
    _emit(args, payload)
    return EXIT_OK


def cmd_glue_check(args) -> int:
    structure = _load_structure(args.structure)
    doc = _load_json(args.scores)
    embedded = None
    if isinstance(doc, dict) and "link" in doc:
        # representation output embeds the link it was built with
        doc = dict(doc)
        embedded = link_from_json_dict(doc.pop("link"))
    scores = scores_from_json_dict(doc)
    link = embedded if args.link is None and embedded is not None else _make_link(args)
    family = context_softmax(structure, scores, link)
    report = gluing_check(family, args.tol)
    _emit(args, report.to_json_dict())
    return EXIT_OK if report.glued else EXIT_NONCLASSICAL


def cmd_sweep(args) -> int:
    """CSV sweep of the path family against both bounds."""
    bounds = cycle_bounds(args.n)
    structure = cycle_logic(args.n)
    r_classical, r_theta = path_thresholds(args.n)
    lo = Fraction(args.r_min)
    hi = Fraction(args.r_max)
    if not hi > lo >= 0:
        raise ValidationError("need 0 <= r-min < r-max")
    lines = ["r,cyclic_sum,exceeds_classical,exceeds_theta"]
    for i in range(1, args.points + 1):
        r = lo + (hi - lo) * Fraction(i, args.points + 1)
        s = cyclic_sum(structure, path_weight(structure, r))
        above_classical = int(s > bounds.classical_bound)
        above_theta = (
            int(float(s) > bounds.theta) if bounds.theta_applicable else ""
        )
        lines.append(f"{r},{s},{above_classical},{above_theta}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_maxent(args) -> int:
    doc = _load_json(args.scores)
    if not isinstance(doc, dict) or not doc:
        raise ValidationError("scores file must be a non-empty JSON object")
    scores = {str(k): float(v) for k, v in doc.items()}
    beta, distribution = maxent_softmax(scores, args.target, args.tol)
    _emit(
        args,
        {
            "beta": numeric_to_json(beta),
            "distribution": {k: numeric_to_json(v) for k, v in distribution.items()},
        },
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    data = ingest_counts(
        args.data,
        structure=_load_structure(args.structure) if args.structure else None,
    )
    report = analyze(data, args.z_threshold, args.tol)
    _emit(args, report.to_json_dict())
    if report.classification is None:
        return EXIT_WITHHELD
    return _LABEL_EXIT[report.classification.label]


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pastedlogic",
        description=(
            "Admissible weights on pasted event structures: softmax gluing, "
            "two-valued states, exact classical membership, cycle bounds, and "
            "an empirical pipeline."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--mode",
        choices=[RATIONAL, FLOAT],
        default=None,
        help="coerce input weights to one numeric mode (default: keep as given)",
    )
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help="float-mode tolerance"
    )
    common.add_argument("--out", default=None, help="write output here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-cycle", parents=[common], help="emit the n-cycle structure")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_gen_cycle)

    p = sub.add_parser(
        "table1", parents=[common], help="pentagon three-regime table (midpoint/uniform/half)"
    )
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("check", parents=[common], help="admissibility report for a weight")
    p.add_argument("--structure", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", parents=[common], help="list all two-valued states")
    p.add_argument("--structure", required=True)
    p.add_argument("--limit", type=int, default=10**6)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "classify", parents=[common], help="region classification with certificates"
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_classify)

    link_parent = argparse.ArgumentParser(add_help=False)
    link_parent.add_argument(
        "--link",
        choices=["exponential", "identity", "power"],
        default=None,
        help="default: exponential, or the link embedded in a scores file",
    )
    link_parent.add_argument("--beta", type=float, default=1.0)
    link_parent.add_argument("--k", type=float, default=2.0)

    p = sub.add_parser(
        "represent",
        parents=[common, link_parent],
        help="global scores reproducing a strictly positive weight",
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--alpha", default=None, help="scale (rational literal); default auto")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser(
        "glue-check",
        parents=[common, link_parent],
        help="do per-context softmax distributions glue?",
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--scores", required=True)
    p.set_defaults(func=cmd_glue_check)

    p = sub.add_parser(
        "sweep", parents=[common], help="CSV sweep of the path family against the bounds"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-min", default="0")
    p.add_argument("--r-max", default="1")
    p.add_argument("--points", type=int, default=1000)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "maxent", parents=[common], help="softmax matching a mean-score constraint"
    )
    p.add_argument("--scores", required=True, help="JSON file: outcome -> score")
    p.add_argument("--target", type=float, required=True)
    p.set_defaults(func=cmd_maxent)

    p = sub.add_parser(
        "analyze", parents=[common], help="counts -> gate -> reconstruct -> classify"
    )
    p.add_argument("--data", required=True, help="JSON count document or CSV file")
    p.add_argument("--structure", default=None, help="structure file (required for CSV)")
    p.add_argument("--z-threshold", type=float, default=1.96)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PastedLogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
