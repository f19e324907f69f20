"""Command-line surface: expand algebra objects, verify identity suites.

Exit codes: 0 all requested checks passed (documented deviations count
as passed and are listed), 1 at least one check failed, 2 usage error,
3 internal error (an uncaught exception, reported on one stderr line).
JSON output is byte-deterministic for a fixed configuration.
"""

import argparse
import json
import os
import sys

from .algebra import MAX_DEGREE, Context, GL, SL
from . import drinfeld, hopf, render, rtt
from .suites import SUITES, default_order, run_suite

CURRENT_TARGETS = {
    "delta-e": ("delta", "e"), "delta-f": ("delta", "f"),
    "delta-h": ("delta", "h"),
    "s-e": ("antipode", "e"), "s-f": ("antipode", "f"),
    "s-h": ("antipode", "h"),
    "phi-e": ("image", "e"), "phi-f": ("image", "f"),
    "phi-h": ("image", "h"),
}

MATRIX_TARGETS = ("qdet", "minor", "gauss")

# the largest --order: the drinfeld suite works one degree above it, and
# every context's degree bound must encode
MAX_ORDER = MAX_DEGREE - 1

EXPAND_TARGETS = sorted(CURRENT_TARGETS) + list(MATRIX_TARGETS)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="yangian",
        description="Exact truncated-Yangian expansions and identity "
                    "verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=2,
                       help="matrix size (2..6, default 2)")
        p.add_argument("--order", type=int, default=None,
                       help="truncation order (default: 4 for n=2, 3 for "
                            "n=3, 2 otherwise)")
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text", dest="fmt")

    ex = sub.add_parser("expand", help="print one expanded object")
    ex.add_argument("target", choices=EXPAND_TARGETS)
    common(ex)
    ex.add_argument("--mode", choices=("gl", "sl"), default=None,
                    help="quotient mode (default: sl for current targets, "
                         "gl for matrix targets)")
    ex.add_argument("--i", type=int, default=1,
                    help="current index (1..n-1, default 1)")
    ex.add_argument("--rows", default=None,
                    help="comma-separated minor rows, e.g. 1,2")
    ex.add_argument("--cols", default=None,
                    help="comma-separated minor columns")

    ve = sub.add_parser("verify", help="run a named identity suite")
    ve.add_argument("suite", choices=sorted(SUITES) + ["all"])
    common(ve)
    ve.add_argument("--seed", type=int, default=0,
                    help="seed for randomized sweeps (default 0)")
    return parser


def _parse_index_list(parser, text, n, what):
    try:
        vals = tuple(int(part) for part in text.split(","))
    except ValueError:
        parser.error("%s must be comma-separated integers" % what)
    if not vals or len(set(vals)) != len(vals):
        parser.error("%s must be distinct and nonempty" % what)
    if any(v < 1 or v > n for v in vals):
        parser.error("%s entries must lie in 1..%d" % (what, n))
    return vals


def _validate_common(parser, args):
    if not 2 <= args.n <= 6:
        parser.error("--n must be between 2 and 6")
    if args.order is None:
        args.order = default_order(args.n)
    if not 1 <= args.order <= MAX_ORDER:
        parser.error("--order must be between 1 and %d" % MAX_ORDER)


def _expand_object(parser, args):
    """Build the requested object plus its parameter echo."""
    n, order = args.n, args.order
    params = {"n": n, "order": order}
    if args.target in CURRENT_TARGETS:
        what, kind = CURRENT_TARGETS[args.target]
        mode = SL if args.mode in (None, "sl") else GL
        if not 1 <= args.i <= n - 1:
            parser.error("--i must be between 1 and %d" % (n - 1))
        params.update(mode=mode, i=args.i)
        ctx = Context(n, order, mode)
        cur = drinfeld.current(ctx, kind, args.i)
        if what == "delta":
            return hopf.delta_series(cur), params
        if what == "antipode":
            return hopf.antipode_series(cur), params
        return cur, params

    mode = GL if args.mode in (None, "gl") else SL
    params["mode"] = mode
    ctx = Context(n, order, mode)
    if args.target == "qdet":
        return rtt.qdet(ctx), params
    if args.target == "minor":
        if args.rows is None or args.cols is None:
            parser.error("minor needs --rows and --cols")
        rows = _parse_index_list(parser, args.rows, n, "--rows")
        cols = _parse_index_list(parser, args.cols, n, "--cols")
        if len(rows) != len(cols):
            parser.error("--rows and --cols must have the same length")
        params.update(rows=rows, cols=cols)
        return rtt.quantum_minor(ctx, rows, cols), params
    # gauss: both triangular factorizations, keyed by factor
    factors = {}
    for variant in ("lower-diag-upper", "upper-diag-lower"):
        comp = rtt.gauss_components(ctx, variant)
        factors[variant] = {
            "k": {str(i): comp["k"][i] for i in sorted(comp["k"])},
            "e": {"%d,%d" % ij: comp["e"][ij] for ij in sorted(comp["e"])},
            "f": {"%d,%d" % ij: comp["f"][ij] for ij in sorted(comp["f"])},
        }
    return factors, params


# one formatter per --format, applied to every series `expand` prints
_SHOW = {"json": render.payload, "text": render.plain,
         "latex": lambda series: [render.latex(series)]}


def _render_expand(args, obj, params):
    show = _SHOW[args.fmt]
    params = render.params_payload(params)
    factors = isinstance(obj, dict)
    if factors:
        body = {variant: {name: {key: show(series)
                                 for key, series in group.items()}
                          for name, group in groups.items()}
                for variant, groups in obj.items()}
    else:
        body = show(obj)
    if args.fmt == "json":
        doc = {"target": args.target, "params": params,
               "factors" if factors else "series": body}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    lines = ["%s %s" % (args.target, " ".join(
        "%s=%s" % kv for kv in sorted(params.items())))]
    if not factors:
        lines.extend("  " + b for b in body)
        return "\n".join(lines)
    for variant in sorted(body):
        lines.append("[%s]" % variant)
        for name in ("k", "e", "f"):
            for key in sorted(body[variant][name]):
                lines.append("  %s[%s]:" % (name, key))
                lines.extend("    " + b for b in body[variant][name][key])
    return "\n".join(lines)


def _render_verify(args, reports):
    failed = [r for r in reports if r.status == "fail"]
    if args.fmt == "json":
        doc = {
            "suite": args.suite,
            "params": {"n": args.n, "order": args.order, "seed": args.seed},
            "status": "fail" if failed else "pass",
            "counts": {
                "pass": sum(r.status == "pass" for r in reports),
                "documented": sum(r.status == "documented" for r in reports),
                "fail": len(failed),
            },
            "reports": [r.as_dict() for r in reports],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    lines = []
    for r in reports:
        lines.append(r.summary_line())
        for note in r.notes:
            lines.append("    note: %s" % note)
        for label, _ in r.documented:
            lines.append("    documented deviation at %s" % label)
        for label, _ in r.residuals:
            lines.append("    RESIDUAL at %s" % label)
    lines.append("suite %s: %d reports, %d failed%s" % (
        args.suite, len(reports), len(failed),
        "" if not failed else " (use --format json for exact residuals)"))
    return "\n".join(lines)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_common(parser, args)
    try:
        return _run(parser, args)
    except Exception as exc:
        # exit 1 means "an identity failed"; a crash must not look like one
        message = " ".join(str(exc).split())
        print("yangian: internal error: %s: %s"
              % (type(exc).__name__, message), file=sys.stderr)
        return 3


def _emit(text):
    """Print the output.  A reader that closes the pipe early (`| head`)
    does not turn the run into a crash: the rest is dropped, and stdout
    points at the null device so the flush at exit does not fail again."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")


def _run(parser, args):
    if args.command == "expand":
        obj, params = _expand_object(parser, args)
        _emit(_render_expand(args, obj, params))
        return 0

    if args.fmt == "latex":
        parser.error("latex output applies to expand only")
    reports = run_suite(args.suite, n=args.n, order=args.order,
                        seed=args.seed)
    _emit(_render_verify(args, reports))
    return 1 if any(r.status == "fail" for r in reports) else 0


if __name__ == "__main__":
    raise SystemExit(main())
