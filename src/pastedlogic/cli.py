"""Command line front end.

Every subcommand reads/writes the JSON formats of the library and exits
with a uniform code: 0 success (classical / admissible / glued), 2
validation problem, 3 admissible but nonclassical (or not glued), 4
beyond the theta bound, 5 not admissible, 6 classification withheld by
the empirical gates.
"""

from __future__ import annotations

import argparse
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
)
from .empirical import DEFAULT_Z_THRESHOLD, analyze, ingest_counts
from .errors import PastedLogicError, ValidationError
from .numeric import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    as_float,
    dumps,
    load_json,
    numeric_from_json,
    values_from_json,
)
from .softmax import (
    LINK_KINDS,
    LinkFunction,
    context_softmax,
    gluing_check,
    link_from_json_dict,
    maxent_softmax,
    represent_weight,
    scores_from_json_dict,
)
from .states import DEFAULT_ENUMERATION_LIMIT, enumerate_two_valued_states
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


def _load_structure(path: str):
    return structure_from_json_dict(load_json(path))


def _load_weight(path: str, structure, mode: str | None):
    w = weight_from_json_dict(load_json(path), structure)
    if mode == RATIONAL:
        return to_rational(w)
    if mode == FLOAT:
        return to_float(w)
    return w


def _link(args, embedded=None) -> LinkFunction:
    """The link --link/--beta/--k describe when any is given, else the
    one a scores file embeds, else exponential."""
    given = {p: getattr(args, p) for p in ("beta", "k") if getattr(args, p) is not None}
    if embedded is None or args.link is not None or given:
        embedded = {"kind": args.link or "exponential", **given}
    return link_from_json_dict(embedded)


def _emit(args, payload) -> None:
    text = dumps(payload) if not isinstance(payload, str) else payload
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise PastedLogicError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def cmd_gen_cycle(args) -> int:
    structure = cycle_logic(args.n)
    _emit(args, structure)
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
                "values": {a: midpoint[a] for a in columns},
                "proxy_max_gap": max(float(abs(proxy[a] - midpoint[a])) for a in columns),
            },
            {
                "regime": "uniform",
                "r": "1",
                "values": {a: uniform[a] for a in columns},
            },
            {
                "regime": "half-weight",
                "r": "0",
                "values": {a: half[a] for a in columns},
            },
        ],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_check(args) -> int:
    structure = _load_structure(args.structure)
    weight = _load_weight(args.weight, structure, args.mode)
    report = check_admissible(weight, args.tol)
    _emit(args, report)
    return EXIT_OK if report.admissible else EXIT_NOT_ADMISSIBLE


def cmd_enumerate(args) -> int:
    structure = _load_structure(args.structure)
    states = enumerate_two_valued_states(structure, args.limit)
    _emit(args, {"count": len(states), "states": states})
    return EXIT_OK


def cmd_classify(args) -> int:
    structure = _load_structure(args.structure)
    weight = _load_weight(args.weight, structure, args.mode)
    report = classify_weight(structure, weight, args.tol)
    _emit(args, report)
    return _LABEL_EXIT[report.label]


def cmd_represent(args) -> int:
    structure = _load_structure(args.structure)
    weight = _load_weight(args.weight, structure, args.mode)
    link = _link(args)
    alpha = None if args.alpha is None else numeric_from_json(args.alpha)
    scores = represent_weight(structure, weight, link, alpha)
    _emit(args, {**scores.to_json_dict(), "link": link})
    return EXIT_OK


def cmd_glue_check(args) -> int:
    structure = _load_structure(args.structure)
    doc = load_json(args.scores)
    embedded = None
    if isinstance(doc, dict) and "link" in doc:
        # representation output embeds the link it was built with
        doc = dict(doc)
        embedded = doc.pop("link")
    scores = scores_from_json_dict(doc)
    link = _link(args, embedded)
    family = context_softmax(structure, scores, link)
    report = gluing_check(family, args.tol)
    _emit(args, report)
    return EXIT_OK if report.glued else EXIT_NONCLASSICAL


def cmd_sweep(args) -> int:
    """CSV sweep of the path family against both bounds."""
    bounds = cycle_bounds(args.n)
    structure = cycle_logic(args.n)
    lo = numeric_from_json(args.r_min)
    hi = numeric_from_json(args.r_max)
    if not hi > lo >= 0:
        raise ValidationError("need 0 <= r-min < r-max")
    if args.points < 1:
        raise ValidationError("--points must be at least 1")
    lines = ["r,cyclic_sum,exceeds_classical,exceeds_theta"]
    for i in range(1, args.points + 1):
        r = lo + (hi - lo) * Fraction(i, args.points + 1)
        s = cyclic_sum(structure, path_weight(structure, r))
        above_classical = int(s > bounds.classical_bound)
        above_theta = int(bounds.exceeds_theta(s)) if bounds.theta_applicable else ""
        lines.append(f"{r},{s},{above_classical},{above_theta}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_maxent(args) -> int:
    scores = values_from_json(load_json(args.scores), "scores file")
    beta, distribution = maxent_softmax(scores, args.target, args.tol)
    _emit(args, {"beta": beta, "distribution": distribution})
    return EXIT_OK


def cmd_analyze(args) -> int:
    data = ingest_counts(
        args.data,
        structure=_load_structure(args.structure) if args.structure else None,
    )
    report = analyze(data, args.z_threshold)
    _emit(args, report)
    if report.classification is None:
        return EXIT_WITHHELD
    return _LABEL_EXIT[report.classification.label]


# ------------------------------------------------------------------ parser


def _finite_float(text: str) -> float:
    """A float flag read like a number in a file: NaN and infinities are usage errors."""
    try:
        return as_float(numeric_from_json(text))
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerance(text: str) -> float:
    """A float flag that is a tolerance or a threshold: finite and >= 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors leave by the same one ``error:`` line and exit code
    as every other validation problem; subparsers inherit this."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pastedlogic",
        description=(
            "Admissible weights on pasted event structures: softmax gluing, "
            "two-valued states, exact classical membership, cycle bounds, and "
            "an empirical pipeline."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write output here instead of stdout")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument(
        "--mode",
        choices=[RATIONAL, FLOAT],
        default=None,
        help="coerce input weights to one numeric mode (default: keep as given)",
    )
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="float-mode tolerance")
    link = argparse.ArgumentParser(add_help=False)
    link.add_argument(
        "--link",
        choices=list(LINK_KINDS),
        default=None,
        help="default: exponential, or the link embedded in a scores file",
    )
    link.add_argument("--beta", default=None, help="exponential link: beta > 0")
    link.add_argument("--k", default=None, help="power link: exponent k > 0")

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, parents=[*parents, out], help=help)
        p.set_defaults(func=func)
        return p

    p = command("gen-cycle", cmd_gen_cycle, "emit the n-cycle structure")
    p.add_argument("--n", type=int, required=True)

    command("table1", cmd_table1, "pentagon three-regime table (midpoint/uniform/half)")

    p = command("check", cmd_check, "admissibility report for a weight", mode, tol)
    p.add_argument("--structure", required=True)
    p.add_argument("--weight", required=True)

    p = command("enumerate", cmd_enumerate, "list all two-valued states")
    p.add_argument("--structure", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)

    p = command(
        "classify", cmd_classify, "region classification with certificates", mode, tol
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--weight", required=True)

    p = command(
        "represent", cmd_represent, "global scores reproducing a strictly positive weight",
        mode, link,
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--alpha", default=None, help="scale (rational literal); default auto")

    p = command(
        "glue-check", cmd_glue_check, "do per-context softmax distributions glue?", tol, link
    )
    p.add_argument("--structure", required=True)
    p.add_argument("--scores", required=True)

    p = command("sweep", cmd_sweep, "CSV sweep of the path family against the bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-min", default="0")
    p.add_argument("--r-max", default="1")
    p.add_argument("--points", type=int, default=1000)

    p = command("maxent", cmd_maxent, "softmax matching a mean-score constraint", tol)
    p.add_argument("--scores", required=True, help="JSON file: outcome -> score")
    p.add_argument("--target", type=_finite_float, required=True)

    p = command("analyze", cmd_analyze, "counts -> gate -> reconstruct -> classify")
    p.add_argument("--data", required=True, help="JSON count document or CSV file")
    p.add_argument("--structure", default=None, help="structure file (required for CSV)")
    p.add_argument("--z-threshold", type=_tolerance, default=DEFAULT_Z_THRESHOLD)

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
