"""Command-line interface: gen, run, audit, compare.

Exit codes: 0 ok, 1 usage error, 2 data/config error, 3 strict-audit
violation. Flags are long-form only.
"""

import argparse
import functools
import math
import sys

from .data import GeneratorSpec, generate, rescale_dataset, write_svmlight
from .harness import (
    CHOICES,
    LEARNERS,
    ExperimentConfig,
    audit_stored,
    report_violations,
    run_compare,
    run_experiment,
    with_first_nonfinite,
    write_summary,
    write_trace,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite(text):
    """argparse type for the float flags: nan, inf, -inf and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _factors(text):
    """argparse type for --rescale: comma-separated finite numbers, each one checked by _finite."""
    return [_finite(c) for c in text.split(",")]


def _parse_gen_spec(text, seed):
    """'kind:key=val,key=val' into a GeneratorSpec dict."""
    if ":" in text:
        kind, rest = text.split(":", 1)
        params = {}
        for kv in rest.split(","):
            if not kv:
                continue
            try:
                k, v = kv.split("=")
                params[k] = float(v)
            except ValueError:
                raise ValueError(f"generator spec {text!r}: expected key=number, "
                                 f"got {kv!r}") from None
    else:
        kind, params = text, {}
    return GeneratorSpec(kind=kind, seed=seed, params=params)


def _data_config(args):
    if args.gen is not None:
        spec = _parse_gen_spec(args.gen, args.seed).to_dict()
        if args.rescale is not None:
            spec = {"kind": "rescaled", "seed": args.seed, "params": {},
                    "base": spec, "factors": args.rescale}
        return {"kind": "generator", "spec": spec}
    cfg = {"kind": "file", "path": args.data, "format": args.format}
    if args.dim is not None:
        cfg["dim"] = args.dim
    if args.format == "csv":
        cfg["label_column"] = args.label_column
        cfg["remap01"] = args.remap01
    return cfg


# every param some learner reads; the string-valued ones take the CHOICES
_LEARNER_FLAGS = sorted({k for _factory, defaults in LEARNERS.values() for k in defaults})
# data-source flags and their defaults; on `audit` they only feed the --learner override
_DATA_FLAGS = {"gen": None, "data": None, "format": "svmlight", "label_column": "label",
               "remap01": False, "dim": None, "seed": 0, "rescale": None}
# the data-source flags each source reads; `compare` reads only --gen
_SOURCE_READS = {"gen": {"gen", "seed", "rescale"},
                 "data": {"data", "format", "label_column", "remap01", "dim"}}


def _flags(keys):
    return ", ".join("--" + k.replace("_", "-") for k in keys)


def _learner_params(args):
    return {k: getattr(args, k) for k in _LEARNER_FLAGS if getattr(args, k) is not None}


def _add_run_flags(sp, need_learner=True):
    sp.add_argument("--learner", required=need_learner, choices=sorted(LEARNERS))
    sp.add_argument("--gen", help="generator spec, e.g. separable_margin:gamma=0.5,d=10,T=200")
    sp.add_argument("--data", help="dataset file path")
    sp.add_argument("--format", choices=["svmlight", "csv"])
    sp.add_argument("--label-column", dest="label_column")
    sp.add_argument("--remap01", action="store_true", default=None)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--rescale", type=_factors, help="comma-separated per-coordinate factors")
    for key in _LEARNER_FLAGS:
        sp.add_argument(_flags([key]), dest=key, choices=CHOICES.get(key),
                        type=None if key in CHOICES else _finite)


def _check_flags(parser, args):
    """Usage errors for flags that nothing would read; then fill in the data defaults."""
    given = sorted(k for k in (*_LEARNER_FLAGS, *_DATA_FLAGS) if getattr(args, k) is not None)
    if args.learner is None and given:
        parser.error(f"audit reads {_flags(given)} only with --learner")
    unread = [k for k in given if k in _LEARNER_FLAGS and k not in LEARNERS[args.learner][1]]
    if unread:
        parser.error(f"learner {args.learner} does not read {_flags(unread)}")
    # the refinement needs the generator's u_star, and compare audits nothing
    if args.rare_s is not None and (args.command == "compare" or args.variant != "diagonal"
                                    or args.gen is None):
        parser.error("--rare-s is read only by run and audit with --variant diagonal and --gen")
    # a negative s makes the refinement's hypothesis unsatisfiable, and its bound vacuous
    if args.rare_s is not None and args.rare_s < 0:
        parser.error(f"argument --rare-s: {args.rare_s!r} is negative; need s >= 0")
    if args.command == "compare" and args.gen is None:
        parser.error("compare needs --gen; it does not read --data")
    if args.command == "compare" and args.rescale is None:
        parser.error("compare needs --rescale")
    source = "gen" if args.gen is not None else "data" if args.data is not None else None
    if source is None and args.learner is not None:
        parser.error(f"{args.command} --learner needs a data source: --gen or --data")
    if source:
        unread = [k for k in given if k in _DATA_FLAGS and k not in _SOURCE_READS[source]]
        if unread:
            parser.error(f"--{source} does not read {_flags(unread)}")
    if args.dim is not None and args.dim < 0:
        parser.error(f"argument --dim: {args.dim} is negative; need --dim >= 0")
    csv_only = [k for k in ("label_column", "remap01") if getattr(args, k) is not None]
    if csv_only and args.format != "csv":
        parser.error(f"{_flags(csv_only)} only with --format csv")
    if args.command == "compare" and (args.tol is not None) != args.strict:
        parser.error("compare takes --tol and --strict-audit only together")
    for key, default in _DATA_FLAGS.items():
        if getattr(args, key) is None:
            setattr(args, key, default)


@functools.cache
def _parser():
    """The omdkit argument parser, built once per process; parse_args leaves it as it was."""
    parser = _Parser(prog="omdkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="materialize a generator to svmlight")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rescale", type=_factors)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("run", help="run a learner, write trace/summary, audit bounds")
    _add_run_flags(sp)
    sp.add_argument("--comparator", action="append", default=None,
                    help="zero | star | batch | grid:R=2,n=41 | vec:v1,v2,...")
    sp.add_argument("--trace")
    sp.add_argument("--summary")
    sp.add_argument("--no-audit", action="store_false", dest="audit")
    sp.add_argument("--strict-audit", action="store_true", dest="strict")

    sp = sub.add_parser("audit", help="re-audit a stored trace")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--strict-audit", action="store_true", dest="strict")
    sp.add_argument("--summary")
    _add_run_flags(sp, need_learner=False)

    sp = sub.add_parser("compare", help="prediction-invariance replay under rescaling")
    _add_run_flags(sp)
    sp.add_argument("--tol", type=_finite)
    sp.add_argument("--strict-audit", action="store_true", dest="strict")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command != "gen":
        _check_flags(parser, args)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # extreme but finite settings (--r 1e-300, --lipschitz 1e300) overflow Python floats
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 2


def _report(args, payload, reports):
    """Write the payload to --summary or stdout; 3 on a strict-audit violation, else 0.

    A non-finite record value is named on stderr, and it is a strict-audit violation.
    """
    text = write_summary(args.summary, payload)
    if not args.summary:
        print(text, end="")
    bad = report_violations(reports) if args.strict else []
    for name, slack, tol in bad:
        print(f"strict-audit violation: {name} slack {slack} not >= -{tol}", file=sys.stderr)
    nonfinite = payload.get("first_nonfinite")
    if nonfinite:
        print(f"non-finite {nonfinite['field']} at round {nonfinite['t']}", file=sys.stderr)
    return 3 if args.strict and (bad or nonfinite) else 0


def _dispatch(args):
    if args.command == "gen":
        spec = _parse_gen_spec(args.gen, args.seed)
        ds = generate(spec)
        if args.rescale is not None:
            ds = rescale_dataset(ds, args.rescale)
        write_svmlight(ds, args.out)
        print(f"wrote {len(ds)} examples (dim {ds.dim}) to {args.out}")
        return 0

    if args.command == "run":
        config = ExperimentConfig(
            args.learner, _learner_params(args), _data_config(args),
            args.comparator or ["zero"], audit=args.audit)
        trace, summary, reports = run_experiment(config)
        if args.trace:
            write_trace(args.trace, config, trace)
        return _report(args, summary, reports)

    if args.command == "audit":
        override = None
        if args.learner:
            override = ExperimentConfig(args.learner, _learner_params(args),
                                        _data_config(args))
        reports, trace = audit_stored(args.trace, config_override=override)
        payload = with_first_nonfinite({"reports": [r.to_dict() for r in reports]},
                                       trace.records)
        return _report(args, payload, reports)

    if args.command == "compare":
        spec = _parse_gen_spec(args.gen, args.seed).to_dict()
        config = ExperimentConfig(args.learner, _learner_params(args),
                                  {"kind": "generator", "spec": spec}, audit=False)
        result = run_compare(config, args.rescale)
        print(write_summary(None, result), end="")
        if args.strict and result["max_relative_deviation"] > args.tol:
            print(f"strict-audit violation: deviation {result['max_relative_deviation']} "
                  f"> {args.tol}", file=sys.stderr)
            return 3
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
