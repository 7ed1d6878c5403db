"""Command-line front end.

Subcommands mirror the library workflows:

    specqual classify   --filter tikhonov --order "alpha"
    specqual srho       --filter ex3 --order "exp(-1/alpha)" --lambda 0.01,0.1,1
    specqual classical  --filter ex8 --param k=1
    specqual mp-check   --filter showalter --order "exp(-1/sqrt(alpha))"
    specqual construct  --filter showalter
    specqual converge   --filter tikhonov --model "diag:j^-2" --dim 200 --source "lambda"

Exit codes: 0 success; 1 a requested certification failed; 2 input
error; 3 numerical instability (an estimate did not stabilize).
Identical configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .expressions import ExprError
from .filters import (
    ALPHA_GRID_MIN,
    FilterError,
    UnknownFilterError,
    _check_alpha,
    _check_lambda,
    _decades,
    default_alpha_grid,
    default_lambda_grid,
    get_filter,
    list_filters,
)
from .limits import sat_exp_array
from .operators import (
    OperatorError,
    load_matrix_csv,
    make_model,
    make_source_element,
    svd_decompose,
)
from .qualification import (
    HypothesisViolation,
    QualificationError,
    check_mp_qualification,
    classify,
    construct_weak_qualification,
    csv_text,
    estimate_classical_order,
    jsonable,
    srho_table,
)
from .experiments import ExperimentError, fit_order, run_convergence
from .rates import certify_order_fn, certify_source_fn

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_UNSTABLE = 3

LEVEL_RANK = {"none": 0, "weak": 1, "strong": 2, "optimal": 3}


class InputError(ValueError):
    pass


# cap on --per-decade and the geo: PERDECADE, checked before any grid is
# built: 8x the oscillatory default of 512 points per decade
MAX_PER_DECADE = 4096

# classify and srho reject a lambda below this multiple of the alpha grid's
# small end: the s_rho limit lives where alpha << lambda, and the tail the
# estimator reads (the small-alpha half of the grid in log scale) must reach
# it.  On the default grid the floor is 1e-5.
LAMBDA_FLOOR_FACTOR = 100.0


class _Parser(argparse.ArgumentParser):
    """Raises InputError instead of exiting and accepts no abbreviated flags.

    ``value_flags`` lists the flags that take one value; ``commands`` maps
    each subcommand name to its parser.
    """

    def __init__(self, **kwargs):
        self.value_flags: list[str] = []
        self.commands: dict[str, _Parser] = {}
        super().__init__(allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:
            self.value_flags += action.option_strings
        return action

    def error(self, message):  # argparse would sys.exit(2) with usage text
        raise InputError(message)


def build_parser() -> _Parser:
    """The specqual parser; each subcommand registers only the flags it reads."""
    p = _Parser(prog="specqual",
                description="Qualification analysis for spectral regularization filters")
    p.add_argument("--version", action="version", version=f"specqual {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help_text, grid=True, lam=False, fmt=True):
        p.commands[name] = c = sub.add_parser(name, help=help_text)
        c.add_argument("--filter", required=True, help="catalog filter id")
        c.add_argument("--param", action="append", default=[], metavar="K=V",
                       help="filter parameter (repeatable), e.g. k=1 or mu=0.5")
        if grid:
            c.add_argument("--alpha-min", type=float,
                           help="small end of the alpha grid")
            c.add_argument("--alpha-max", type=float,
                           help="large end of the alpha grid")
            c.add_argument("--per-decade", type=int,
                           help=f"alpha grid density (8..{MAX_PER_DECADE})")
        if lam:
            c.add_argument("--lambda", dest="lambda_spec",
                           help="comma list '0.01,0.1,1' or 'geo:MIN:MAX:PERDECADE'")
        c.add_argument("--config", help="JSON object of flag values; flags override it")
        c.add_argument("--out", help="output path (stdout when omitted)")
        if fmt:
            c.add_argument("--format", choices=("json", "csv"), default="json")
        return c

    c = command("classify", "classify an order function", lam=True, fmt=False)
    c.add_argument("--order", required=True, help="order expression in alpha")
    c.add_argument("--require", choices=("weak", "strong", "optimal"),
                   help="exit 1 unless this level is reached")

    c = command("srho", "estimate the induced source function", lam=True)
    c.add_argument("--order", required=True)

    command("classical", "bracket the classical qualification order", grid=False)

    c = command("mp-check", "check the increasing-weight inequality", grid=False, fmt=False)
    c.add_argument("--order", required=True)
    c.add_argument("--a", type=float, default=1.0, help="right end of the interval (0, a]")

    command("construct", "build the (h, rho*) weak-qualification pair")

    c = command("converge", "run a convergence study on a spectral model", grid=False)
    c.add_argument("--order", default="alpha")
    c.add_argument("--source", required=True, help="source expression in lambda")
    c.add_argument("--model", default="diag:j^-2",
                   help="'diag:RULE' (j^-2, j^-4, exp) or a CSV matrix path")
    c.add_argument("--dim", type=int, default=200)
    c.add_argument("--generator", default="j^-0.6",
                   help="generator decay 'j^-Q' for w_j = j^-Q")
    c.add_argument("--fit-window", metavar="LO:HI", help="alpha window for the slope fit")
    return p


def _merge_flag_values(argv: list[str], value_flags) -> list[str]:
    """``--flag VALUE`` as ``--flag=VALUE``, so that values with a leading
    minus (e.g. -1/ln(alpha)) are not read as flags."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in value_flags else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def _config_flags(path: str, command: str, value_flags) -> list[str]:
    """A JSON config object as flags: key K is --K, a list is a comma list,
    and each entry of a ``param`` object is one --param=K=V."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("config file must hold a JSON object")
    keys = [flag[2:] for flag in value_flags if flag != "--config"]
    out = []
    for key, value in doc.items():
        if key not in keys:
            raise InputError(f"unknown config key '{key}' for {command}; "
                             f"keys are flag names: {', '.join(keys)}")
        if key == "param" and isinstance(value, dict):
            out += [f"--param={k}={v}" for k, v in value.items()]
        elif isinstance(value, list):
            out.append(f"--{key}={','.join(map(str, value))}")
        else:
            out.append(f"--{key}={value}")
    return out


def _argv_with_config(parser: _Parser, argv: list[str]) -> list[str]:
    """The argument list the parser reads: the config file's values go in as
    flags ahead of the command line's own, so that the last one wins gives
    defaults < config < flags."""
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # --version, --help or a bad subcommand: argparse reports it
        return argv
    flags = _merge_flag_values(argv[1:], command.value_flags)
    paths = [tok.split("=", 1)[1] for tok in flags if tok.startswith("--config=")]
    config = _config_flags(paths[-1], argv[0], command.value_flags) if paths else []
    return [argv[0], *config, *flags]


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise InputError(f"--param expects K=V, got '{item}'")
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise InputError(f"--param value for '{key}' is not a number: '{val}'") from exc
    return out


def _get_filter(args):
    try:
        return get_filter(args.filter, **_parse_params(args.param))
    except UnknownFilterError as exc:
        raise InputError(f"{exc}; available: {', '.join(list_filters())}") from exc
    except TypeError as exc:
        raise InputError(f"bad parameters for filter '{args.filter}': {exc}") from exc


def _alpha_grid(args, filt):
    lo = ALPHA_GRID_MIN if args.alpha_min is None else args.alpha_min
    hi = filt.alpha_max / 2.0 if args.alpha_max is None else args.alpha_max
    _check_alpha(filt, [lo, hi])
    if not lo < hi:
        raise InputError(f"--alpha-min {lo} must be below --alpha-max {hi}")
    if args.per_decade is not None and not 8 <= args.per_decade <= MAX_PER_DECADE:
        raise InputError(f"--per-decade must be in 8..{MAX_PER_DECADE}")
    return default_alpha_grid(filt, lo, hi, args.per_decade)


def _lambda_grid(args, filt, alpha_grid):
    """The sampled lambdas, none below LAMBDA_FLOOR_FACTOR x min(alpha_grid)."""
    lams = _lambda_values(args, filt)
    floor = LAMBDA_FLOOR_FACTOR * float(np.min(alpha_grid))
    if np.min(lams) < floor:
        raise InputError(
            f"lambda {float(np.min(lams)):.6g} is below the floor {floor:.6g} "
            f"({LAMBDA_FLOOR_FACTOR:g} x the alpha grid's small end); "
            "raise lambda or lower --alpha-min")
    return lams


def _lambda_values(args, filt):
    spec = args.lambda_spec
    if spec is None:
        return default_lambda_grid(filt)
    if spec.startswith("geo:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise InputError("--lambda geo spec is 'geo:MIN:MAX:PERDECADE'")
        try:
            lo, hi, per = float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise InputError(f"bad --lambda spec '{spec}'") from exc
        if not (0 < lo < hi < math.inf) or not 1 <= per <= MAX_PER_DECADE:
            raise InputError("--lambda geo spec needs 0 < MIN < MAX < inf and "
                             f"PERDECADE in 1..{MAX_PER_DECADE}")
        _check_lambda(filt, [lo, hi])
        n = max(int(per * _decades(lo, hi)) + 1, 2)
        return np.geomspace(lo, hi, n)
    try:
        vals = np.array([float(tok) for tok in spec.split(",") if tok.strip()])
    except ValueError as exc:
        raise InputError(f"bad --lambda list '{spec}'") from exc
    if vals.size == 0 or not np.all((vals > 0) & np.isfinite(vals)):
        raise InputError("--lambda values must be positive and finite")
    _check_lambda(filt, vals)
    return np.sort(vals)


def _certified(args, kind: str, grid=None):
    """The certified --order or --source function; InputError (exit 2) if not."""
    text = getattr(args, kind)
    try:
        fn = (certify_order_fn if kind == "order" else certify_source_fn)(text, grid)
    except ExprError as exc:
        raise InputError(f"bad --{kind} expression: {exc}") from exc
    if not fn.certified:
        rules = " (must be positive, nondecreasing, vanishing at 0)" if kind == "order" else ""
        raise InputError(f"--{kind} '{text}' is not an admissible {kind} function{rules}")
    return fn


def _emit(args, text: str):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write --out {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _dump_json(doc) -> str:
    return json.dumps(jsonable(doc), indent=2) + "\n"


def _emit_doc(args, doc, rows):
    """The JSON document, or with --format csv its table rows."""
    _emit(args, csv_text(rows) if args.format == "csv" else _dump_json(doc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    filt = _get_filter(args)
    agrid = _alpha_grid(args, filt)
    rho = _certified(args, "order", agrid)
    report = classify(filt, rho, _lambda_grid(args, filt, agrid), agrid)
    _emit(args, _dump_json(report.to_json_dict()))
    if args.require and LEVEL_RANK[report.level] < LEVEL_RANK[args.require]:
        return EXIT_VERDICT
    return EXIT_OK


def cmd_srho(args) -> int:
    filt = _get_filter(args)
    agrid = _alpha_grid(args, filt)
    rho = _certified(args, "order", agrid)
    lams = _lambda_grid(args, filt, agrid)
    table = srho_table(filt, rho, lams, agrid)
    # one row per requested lambda, so a repeated lambda prints twice
    rows = [{"lambda": lam, "estimate": table[lam].value,
             "stabilized": table[lam].stabilized} for lam in lams.tolist()]
    _emit_doc(args, {"filter": filt.id, "order": rho.label, "table": rows}, rows)
    unstable = not all(est.stabilized for est in table.values())
    return EXIT_UNSTABLE if unstable else EXIT_OK


def cmd_classical(args) -> int:
    filt = _get_filter(args)
    row = estimate_classical_order(filt).to_json_dict()
    _emit_doc(args, {"filter": filt.id, **row}, [row])
    return EXIT_OK


def cmd_mp_check(args) -> int:
    filt = _get_filter(args)
    rho = _certified(args, "order", default_alpha_grid(filt))
    verdict = check_mp_qualification(filt, rho, a=args.a)
    _emit(args, _dump_json({"filter": filt.id, "order": rho.label,
                            **verdict.to_json_dict()}))
    return EXIT_OK if verdict.passes else EXIT_VERDICT


def cmd_construct(args) -> int:
    filt = _get_filter(args)
    agrid = _alpha_grid(args, filt)
    try:
        res = construct_weak_qualification(filt, alpha_grid=agrid)
    except HypothesisViolation as exc:
        _emit(args, _dump_json({"error": "hypothesis-violation", "message": str(exc)}))
        return EXIT_VERDICT
    alphas = res.rho_star.alphas
    rows = [{"alpha": a, "h": h, "rho_star": r} for a, h, r in zip(
        alphas, np.exp(res.h.log_at(alphas)), sat_exp_array(res.rho_star.log_values))]
    _emit_doc(args, {"filter": filt.id, "certificate": res.certificate.to_json_dict(),
                     "table": rows}, rows)
    return EXIT_OK if res.certificate.holds else EXIT_VERDICT


def cmd_converge(args) -> int:
    filt = _get_filter(args)
    model = _load_model(args)
    source = _certified(args, "source")
    rho = _certified(args, "order", default_alpha_grid(filt))

    if not args.generator.startswith("j^"):
        raise InputError("--generator must look like 'j^-0.6'")
    try:
        q = float(args.generator[2:])
    except ValueError as exc:
        raise InputError(f"bad --generator '{args.generator}'") from exc
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.arange(1, model.dim + 1, dtype=float) ** q
    if not (math.isfinite(q) and np.all(np.isfinite(w))):
        raise InputError(f"--generator '{args.generator}' needs a finite Q and a finite "
                         f"w_j = j^Q for every j <= {model.dim}")

    elem = make_source_element(model, source, w)
    study_grid = np.geomspace(max(1e-5, float(model.eigenvalues[-1]) / 10.0),
                              filt.alpha_max / 2.0, 150)
    study = run_convergence(model, filt, elem, rho, study_grid)
    window = _fit_window(args)
    try:
        fit = fit_order(study, window)
        fit_doc = fit.to_json_dict()
    except ExperimentError as exc:
        fit_doc = {"error": str(exc)}
    doc = {"study": study.to_json_dict(), "fit": fit_doc}
    _emit_doc(args, doc, doc["study"]["records"])
    if args.format == "csv":
        sys.stderr.write(_dump_json({"fit": fit_doc}))
    return EXIT_OK


def _fit_window(args):
    if args.fit_window is None:
        return None
    parts = args.fit_window.split(":")
    if len(parts) != 2:
        raise InputError("--fit-window is 'LO:HI'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise InputError(f"bad --fit-window '{args.fit_window}'") from exc
    if not 0 < lo < hi:
        raise InputError("--fit-window needs 0 < LO < HI")
    return (lo, hi)


def _load_model(args):
    spec = args.model
    if spec.startswith("diag:"):
        rule = spec.split(":", 1)[1]
        try:
            return make_model(rule, args.dim)
        except OperatorError as exc:
            raise InputError(str(exc)) from exc
    try:
        matrix = load_matrix_csv(spec)
    except OSError as exc:
        raise InputError(f"cannot read model matrix '{spec}': {exc}") from exc
    except OperatorError as exc:
        raise InputError(str(exc)) from exc
    model, _, _, _ = svd_decompose(matrix)
    return model


def _structured_error(message: str, code: str = "input-error"):
    sys.stderr.write(_dump_json({"error": code, "message": message}))


_COMMANDS = {
    "classify": cmd_classify,
    "srho": cmd_srho,
    "classical": cmd_classical,
    "mp-check": cmd_mp_check,
    "construct": cmd_construct,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_argv_with_config(parser, argv))
        return _COMMANDS[args.command](args)
    except InputError as exc:
        _structured_error(str(exc))
        return EXIT_INPUT
    except (ExprError, FilterError, QualificationError, OperatorError,
            ExperimentError) as exc:
        _structured_error(str(exc), code=type(exc).__name__)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
