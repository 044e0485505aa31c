"""Command-line interface: analyze, local, lattice-count, density, count,
fit-exponent. JSON to stdout unless --out is given.

The fibration mode, quadric (pi) or linear (pi_prime) fibres, is the one the
form's split declares. No command draws random input: analyze decides ranks
and common factors exactly, at deterministic points, and its dimension
probes count points at fixed primes.

Errors print one line on stderr, with no traceback. Exit codes: 1 a bad
argument value, 2 an argparse usage error, 3 an invalid form document
(`FormValidationError`), 4 an enumeration over its point budget
(`BudgetExceeded`), 5 a file that cannot be read or written (`OSError`).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from math import gcd

from . import __version__
from .driver import (
    CountSeries,
    FormValidationError,
    brute_force_N,
    build_report,
    compare_fit,
    fibration_count,
    fit_exponent,
    parse_form_document,
    report_to_json,
)
from .gridcount import BudgetExceeded


def _load_form(path: str):
    with open(path) as f:
        return parse_form_document(f.read())


def _load_split_form(path: str, command: str):
    doc = _load_form(path)
    if doc.split is None:
        raise SystemExit(f"{command} requires a form with a declared split")
    return doc


def _write(args, text: str):
    """Write text to the --out file, or to stdout without --out. The file is
    replaced atomically: text goes to a temporary file beside it, which then
    takes its name, so a failed write leaves the target as it was and
    removes the temporary file. Errors name the target."""
    if not args.out:
        sys.stdout.write(text)
        return
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as f:
            f.write(text)
        os.replace(tmp, args.out)
    except OSError as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise OSError(e.errno, e.strerror, args.out) from None


def _emit(args, report: dict):
    _write(args, report_to_json(report))


def _int_list(text: str, flag: str, least: int | None = None) -> list:
    """The comma-separated integers in text, each at least `least` if given."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise SystemExit(f"{flag} must be comma-separated integers, got {text!r}")
    if least is not None and min(values) < least:
        raise SystemExit(f"{flag} values must be at least {least}, got {text!r}")
    return values


def _options(sub, form=True):
    """--out on every subcommand; --form (required) and --budget on those
    that read a form."""
    if form:
        sub.add_argument("--form", required=True, help="path to a form document (JSON)")
        sub.add_argument("--budget", type=int, default=None)
    sub.add_argument("--out", default=None)


def cmd_analyze(args):
    from .fibration import (
        build_fibration,
        detect_common_linear_factor_Qi,
        detect_hypothesis_h1,
        order3_minor_common_factor,
    )

    doc = _load_split_form(args.form, "analyze")
    config = {"command": "analyze", "form": doc.name, "mode": doc.mode}
    sections = {}
    if doc.mode == "pi":
        fd = build_fibration(doc.poly, doc.split)
        sections["fibration"] = fd.to_report()
        sections["linear_block_size"] = fd.m - fd.rank
        h1 = detect_hypothesis_h1(fd)
        sections["hypothesis_h1"] = {
            "holds": h1.holds,
            "reason": h1.reason,
            "signature": h1.signature,
            "l": h1.l.to_text() if h1.l is not None else None,
        }
        if fd.rank >= 3:
            o3 = order3_minor_common_factor(fd, budget=args.budget)
            sections["order3_common_factor"] = {
                "status": o3.status,
                "factor": o3.factor.to_text() if o3.factor else None,
                "nonzero_minors": o3.nonzero_minors,
                "codim_probe": o3.codim_probe,
            }
    else:
        from .fibration import classify_rank2_bundle, split_cubic

        res = detect_common_linear_factor_Qi(doc.poly, doc.split)
        sections["common_linear_factor"] = (
            None
            if res is None
            else {"factor": res.factor.to_text(), "verified": res.verified}
        )
        _, q_list, _ = split_cubic(doc.poly, doc.split)
        shape = classify_rank2_bundle(q_list)
        sections["bundle_shape"] = {
            "shape": shape.shape,
            "rank_over_K": shape.rank_over_K,
            "kappa": shape.kappa,
            "notes": shape.notes,
        }
    if args.budget is not None and "order3_common_factor" not in sections:  # its search alone reads it
        raise SystemExit("analyze: --budget applies to a pi split of rank at least 3 only")
    _emit(args, build_report(config, sections))


def cmd_local(args):
    from .fibration import fibre_polynomial, split_cubic
    from .linalg import QuadraticPolynomial
    from .localdensity import singular_series

    if args.pmax < 2:
        raise SystemExit(f"--pmax must be at least 2, got {args.pmax}")
    doc = _load_split_form(args.form, "local")
    yvals = _int_list(args.y, "--y")
    h = len(doc.split.y_indices)
    if len(yvals) != h:
        raise SystemExit(f"local: --y has {len(yvals)} coordinates, the split has h = {h}")
    if not any(yvals):
        raise SystemExit("local: --y is zero, and the fibre over y = 0 is the zero form")
    F_list, q_list, R = split_cubic(doc.poly, doc.split)
    fibre = QuadraticPolynomial.from_polynomial(fibre_polynomial(F_list, q_list, R, yvals))
    est = singular_series(fibre, args.pmax, budget=args.budget)
    config = {"command": "local", "form": doc.name, "y": yvals, "pmax": args.pmax}
    sections = {
        "locals": [e.report_record() for e in est.locals_],
        "product": est.product,
        "certified": est.certified,
        "tail_lower": est.tail_lower,
    }
    _emit(args, build_report(config, sections))


def cmd_lattice_count(args):
    from .lattice import hyperplane_count_asymptotic, hyperplane_count_exact

    a = _int_list(args.a, "--a")
    if gcd(*a) != 1:
        raise SystemExit(f"--a must be a primitive vector, got {args.a!r}")
    config = {"command": "lattice-count", "a": a, "b": args.b, "B": args.B, "g": args.g}
    try:
        res = hyperplane_count_exact(a, args.b, args.B, g=args.g)
    except ValueError as e:
        raise SystemExit(f"lattice-count: {e}")
    sections = {"exact": res.exact}
    try:
        asy = hyperplane_count_asymptotic(a, args.b, args.B)
        sections.update(
            {
                "main": asy.main,
                "err_eta": asy.err_eta,
                "err_lambda": asy.err_lambda,
                "lambda1_sq": asy.lambda1_sq,
            }
        )
    except ValueError as e:
        sections["asymptotic_error"] = str(e)
    _emit(args, build_report(config, sections))


def cmd_density(args):
    from .sieve import (
        AdmissibleSetSpec,
        admissible_points_lines,
        build_conditions,
        density_estimate,
        enumerate_admissible,
    )

    if args.points and args.csv:
        raise SystemExit("density: --csv does not apply to --points")
    doc = _load_split_form(args.form, "density")
    Ys = _int_list(args.Y, "--Y", least=1)
    if args.points and len(Ys) > 1:
        raise SystemExit(f"density: --points takes a single --Y, got {args.Y!r}")
    try:
        cond = build_conditions(doc.poly, doc.split, doc.mode, budget=args.budget)
    except ValueError as e:
        raise SystemExit(f"density: {e}")
    k = len(doc.split.y_indices)
    box = [(Fraction(-1), Fraction(1))] * k
    spec = AdmissibleSetSpec(k, box, cond)
    if args.points:
        points = enumerate_admissible(spec, Ys[0], args.budget)
        _write(args, admissible_points_lines(points) + "\n")
        return
    est = density_estimate(spec, Ys, budget=args.budget)
    config = {"command": "density", "form": doc.name, "mode": doc.mode, "Y": Ys}
    if args.csv:
        _write(args, est.to_csv() + "\n")
        return
    sections = {"rows": est.rows}
    _emit(args, build_report(config, sections))


def cmd_count(args):
    if args.method == "fibration":
        doc = _load_split_form(args.form, "count --method fibration")
    else:
        doc = _load_form(args.form)
    Bs = _int_list(args.B, "--B", least=0)
    config = {
        "command": "count",
        "form": doc.name,
        "B": Bs,
        "method": args.method,
    }
    if args.method == "brute":
        series = brute_force_N(doc.poly, Bs, budget=args.budget)
        sections = {"series": series.rows, "predicate": series.predicate}
    else:
        try:
            res = fibration_count(doc.poly, doc.split, doc.mode, Bs, budget=args.budget)
        except ValueError as e:
            raise SystemExit(f"count: {e}")
        sections = {
            "series": res.series.rows,
            "predicate": res.series.predicate,
            "label": res.label,
            "Y": res.Y_values,
            "fibres": res.series.per_B_fibres,
        }
    if args.csv:
        series = CountSeries(sections["series"], sections["predicate"])
        _write(args, series.to_csv() + "\n")
        return
    _emit(args, build_report(config, sections))


def cmd_fit_exponent(args):
    if args.slack is not None and args.predicted is None:
        raise SystemExit("fit-exponent: --slack applies to --predicted only")
    if args.slack is not None and args.slack < 0:
        raise SystemExit(f"--slack must be at least 0, got {args.slack}")
    rows = []
    with open(args.csv_path) as f:
        if f.readline().strip().split(",")[:2] != ["B", "count"]:
            raise SystemExit(f"fit-exponent: {args.csv_path} does not start with "
                             "the header B,count")
        for line in f:
            if not line.strip():
                continue
            parts = line.strip().split(",")
            try:
                rows.append((int(parts[0]), int(parts[1])))
            except (IndexError, ValueError):
                raise SystemExit(f"fit-exponent: B and count must be integers, "
                                 f"got {line.strip()!r}")
    try:
        fit = fit_exponent(CountSeries(rows, "loaded"))
    except ValueError as e:
        raise SystemExit(f"fit-exponent: {e}")
    sections = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "points_used": fit.points_used,
    }
    if args.predicted is not None:
        slack = 0.5 if args.slack is None else args.slack
        verdict = compare_fit(fit, args.predicted, slack)
        sections["verdict"] = "PASS" if verdict.passed else "FAIL"
        sections["predicted"] = args.predicted
        sections["slack"] = slack
    config = {"command": "fit-exponent", "csv": args.csv_path, "predicted": args.predicted}
    _emit(args, build_report(config, sections))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cubefib",
        description="exact-arithmetic experiments on cubic hypersurface fibrations",
    )
    parser.add_argument("--version", action="version", version=f"cubefib {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="fibration structure and shape detectors")
    _options(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("local", help="local densities of a fibre quadric")
    _options(p)
    p.add_argument("--y", required=True, help="comma-separated fibre point")
    p.add_argument("--pmax", type=int, default=31)
    p.set_defaults(func=cmd_local)

    p = subs.add_parser("lattice-count", help="hyperplane point counts in a ball")
    _options(p, form=False)
    p.add_argument("--a", required=True, help="comma-separated primitive vector")
    p.add_argument("--b", type=int, default=0)
    p.add_argument("-B", type=int, required=True)
    p.add_argument("--g", type=int, default=None)
    p.set_defaults(func=cmd_lattice_count)

    p = subs.add_parser("density", help="admissible-set density estimates")
    _options(p)
    p.add_argument("--Y", required=True, help="comma-separated Y values")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--points", action="store_true",
                   help="emit the admissible set as line-delimited tuples")
    p.set_defaults(func=cmd_density)

    p = subs.add_parser("count", help="point-count series")
    _options(p)
    p.add_argument("--B", required=True, help="comma-separated height bounds")
    p.add_argument("--method", choices=["brute", "fibration"], default="brute")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_count)

    p = subs.add_parser("fit-exponent", help="OLS slope of a count series")
    _options(p, form=False)
    p.add_argument("csv_path", help="CSV with B,count columns")
    p.add_argument("--predicted", type=float, default=None)
    p.add_argument("--slack", type=float, default=None,
                   help="allowed shortfall of the slope below --predicted (default 0.5)")
    p.set_defaults(func=cmd_fit_exponent)

    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is not None and args.budget < 0:
        raise SystemExit(f"--budget must be at least 0, got {args.budget}")
    try:
        args.func(args)
    except FormValidationError as e:
        message, code = f"invalid form: {e}", 3
    except BudgetExceeded as e:
        message, code = f"budget exceeded: {e}", 4
    except OSError as e:
        message, code = (f"{e.filename}: {e.strerror}" if e.filename else str(e)), 5
    else:
        return 0
    print(f"cubefib: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
