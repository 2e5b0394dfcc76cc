"""Command line front end.

Every subcommand reads the JSON formats of the library and returns its
report with an exit code; ``main`` alone writes the report, to stdout or
``--out``.  The codes are uniform: 0 success (classical / admissible /
glued), 2 validation problem (a report that cannot be written included),
3 admissible but nonclassical (or not glued), 4 beyond the theta bound,
5 not admissible, 6 classification withheld by the empirical gates.
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


def _load_weight(args):
    """The ``--structure`` and the ``--weight`` on it, in ``--mode`` if given."""
    structure = _load_structure(args.structure)
    w = weight_from_json_dict(load_json(args.weight), structure)
    convert = {RATIONAL: to_rational, FLOAT: to_float}.get(args.mode)
    return structure, convert(w) if convert else w


def _link(args, embedded=None) -> LinkFunction:
    """The link --link/--beta/--k describe when any is given, else the
    one a scores file embeds, else exponential."""
    given = {p: getattr(args, p) for p in ("beta", "k") if getattr(args, p) is not None}
    if embedded is None or args.link is not None or given:
        embedded = {"kind": args.link or "exponential", **given}
    return link_from_json_dict(embedded)


def _emit(out: str | None, payload) -> None:
    text = dumps(payload) if not isinstance(payload, str) else payload
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise PastedLogicError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# ------------------------------------------------------------- subcommands


def cmd_gen_cycle(args) -> tuple[object, int]:
    return cycle_logic(args.n), EXIT_OK


def cmd_table1(args) -> tuple[object, int]:
    """The pentagon three-regime table along the path family."""
    structure = cycle_logic(5)
    columns = [a for i in range(1, 6) for a in (f"a{i}", f"x{i}")]
    midpoint = {a: Fraction(1 if a[0] == "x" else 0) for a in columns}
    proxy = path_weight(structure, Fraction(10**12))
    rows = [
        {
            "regime": "midpoint",
            "r": "limit",
            "annotation": (
                "limit r -> infinity, not attained; at r = 10^12 the "
                "cyclic atoms sit within 1e-12 of 0"
            ),
            "values": midpoint,
            "proxy_max_gap": max(float(abs(proxy[a] - midpoint[a])) for a in columns),
        }
    ]
    for regime, r in (("uniform", 1), ("half-weight", 0)):
        weight = path_weight(structure, Fraction(r))
        rows.append({"regime": regime, "r": str(r), "values": {a: weight[a] for a in columns}})
    return {"columns": columns, "rows": rows}, EXIT_OK


def cmd_check(args) -> tuple[object, int]:
    report = check_admissible(_load_weight(args)[1], args.tol)
    return report, EXIT_OK if report.admissible else EXIT_NOT_ADMISSIBLE


def cmd_enumerate(args) -> tuple[object, int]:
    states = enumerate_two_valued_states(_load_structure(args.structure), args.limit)
    return {"count": len(states), "states": states}, EXIT_OK


def cmd_classify(args) -> tuple[object, int]:
    report = classify_weight(*_load_weight(args), args.tol)
    return report, _LABEL_EXIT[report.label]


def cmd_represent(args) -> tuple[object, int]:
    structure, weight = _load_weight(args)
    link = _link(args)
    alpha = None if args.alpha is None else numeric_from_json(args.alpha)
    scores = represent_weight(structure, weight, link, alpha)
    return {**scores.to_json_dict(), "link": link}, EXIT_OK


def cmd_glue_check(args) -> tuple[object, int]:
    structure = _load_structure(args.structure)
    doc = load_json(args.scores)
    embedded = None
    if isinstance(doc, dict) and "link" in doc:
        # representation output embeds the link it was built with
        doc = dict(doc)
        embedded = doc.pop("link")
    scores = scores_from_json_dict(doc)
    family = context_softmax(structure, scores, _link(args, embedded))
    report = gluing_check(family, args.tol)
    return report, EXIT_OK if report.glued else EXIT_NONCLASSICAL


def cmd_sweep(args) -> tuple[object, int]:
    """CSV sweep of the path family against both bounds: its cyclic sum is n/(2+r)."""
    bounds = cycle_bounds(args.n)
    lo = numeric_from_json(args.r_min)
    hi = numeric_from_json(args.r_max)
    if not hi > lo >= 0:
        raise ValidationError("need 0 <= r-min < r-max")
    if args.points < 1:
        raise ValidationError("--points must be at least 1")
    lines = ["r,cyclic_sum,exceeds_classical,exceeds_theta"]
    for i in range(1, args.points + 1):
        r = lo + (hi - lo) * Fraction(i, args.points + 1)
        s = args.n / (2 + r)
        above_classical = int(s > bounds.classical_bound)
        above_theta = int(bounds.exceeds_theta(s)) if bounds.theta_applicable else ""
        lines.append(f"{r},{s},{above_classical},{above_theta}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_maxent(args) -> tuple[object, int]:
    scores = values_from_json(load_json(args.scores), "scores file")
    beta, distribution = maxent_softmax(scores, args.target, args.tol)
    return {"beta": beta, "distribution": distribution}, EXIT_OK


def cmd_analyze(args) -> tuple[object, int]:
    structure = _load_structure(args.structure) if args.structure else None
    report = analyze(ingest_counts(args.data, structure=structure), args.z_threshold)
    if report.classification is None:
        return report, EXIT_WITHHELD
    return report, _LABEL_EXIT[report.classification.label]


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
    weight_files = argparse.ArgumentParser(add_help=False)
    weight_files.add_argument("--structure", required=True)
    weight_files.add_argument("--weight", required=True)

    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents, weight=False):
        """The options of ``parents``, then --out, then --structure and
        --weight if ``weight``: the order --help prints them in."""
        tail = [out, weight_files] if weight else [out]
        p = sub.add_parser(name, parents=[*parents, *tail], help=help)
        p.set_defaults(func=func)
        return p

    p = command("gen-cycle", cmd_gen_cycle, "emit the n-cycle structure")
    p.add_argument("--n", type=int, required=True)

    command("table1", cmd_table1, "pentagon three-regime table (midpoint/uniform/half)")

    command("check", cmd_check, "admissibility report for a weight", mode, tol, weight=True)

    p = command("enumerate", cmd_enumerate, "list all two-valued states")
    p.add_argument("--structure", required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT)

    command(
        "classify", cmd_classify, "region classification with certificates", mode, tol,
        weight=True,
    )

    p = command(
        "represent", cmd_represent, "global scores reproducing a strictly positive weight",
        mode, link, weight=True,
    )
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
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        _emit(args.out, payload)
    except PastedLogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
