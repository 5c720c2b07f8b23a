"""Command-line interface: gen, run, audit, compare.

Exit codes: 0 ok, 1 usage error, 2 data/config error, 3 strict-audit
violation. Flags are long-form only.
"""

import argparse
import sys

from .data import GeneratorSpec, generate, rescale_dataset, write_svmlight
from .harness import (
    ExperimentConfig,
    audit_stored,
    report_violations,
    run_compare,
    run_experiment,
    write_summary,
    write_trace,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_gen_spec(text, seed):
    """'kind:key=val,key=val' into a GeneratorSpec dict."""
    if ":" in text:
        kind, rest = text.split(":", 1)
        params = {}
        for kv in rest.split(","):
            if not kv:
                continue
            k, v = kv.split("=")
            params[k] = float(v)
    else:
        kind, params = text, {}
    return GeneratorSpec(kind=kind, seed=seed, params=params)


def _data_config(args):
    if getattr(args, "gen", None):
        spec = _parse_gen_spec(args.gen, args.seed).to_dict()
        if getattr(args, "rescale", None):
            factors = [float(c) for c in args.rescale.split(",")]
            spec = {"kind": "rescaled", "seed": args.seed, "params": {},
                    "base": spec, "factors": factors}
        return {"kind": "generator", "spec": spec}
    if getattr(args, "data", None):
        cfg = {"kind": "file", "path": args.data, "format": args.format}
        if args.dim is not None:
            cfg["dim"] = args.dim
        if args.format == "csv":
            cfg["label_column"] = args.label_column
            cfg["remap01"] = args.remap01
        return cfg
    raise ValueError("either --gen or --data is required")


def _learner_params(args):
    params = {}
    for key in ("eta", "r", "a", "p", "lam", "ridge", "quad", "lipschitz",
                "fixed_eta", "rare_s"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            params[key] = val
    for key in ("variant", "trigger", "schedule", "loss"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return params


def _add_run_flags(sp, need_learner=True):
    sp.add_argument("--learner", required=need_learner,
                    choices=["ogd", "composite", "pnorm_perceptron", "pa",
                             "fixed_margin", "second_order", "vaw",
                             "adaptive_filter", "scaleinv_pnorm", "scaleinv_diag"])
    sp.add_argument("--gen", help="generator spec, e.g. separable_margin:gamma=0.5,d=10,T=200")
    sp.add_argument("--data", help="dataset file path")
    sp.add_argument("--format", default="svmlight", choices=["svmlight", "csv"])
    sp.add_argument("--label-column", default="label", dest="label_column")
    sp.add_argument("--remap01", action="store_true")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rescale", help="comma-separated per-coordinate factors")
    sp.add_argument("--eta", type=float)
    sp.add_argument("--r", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--lam", type=float)
    sp.add_argument("--ridge", type=float)
    sp.add_argument("--quad", type=float)
    sp.add_argument("--lipschitz", type=float)
    sp.add_argument("--fixed-eta", type=float, dest="fixed_eta")
    sp.add_argument("--rare-s", type=float, dest="rare_s")
    sp.add_argument("--variant", choices=["full", "diagonal"])
    sp.add_argument("--trigger", choices=["omd", "arow", "mistake"])
    sp.add_argument("--schedule", choices=["constant", "sqrt", "linear"])
    sp.add_argument("--loss", choices=["hinge", "square", "absolute"])
    sp.add_argument("--comparator", action="append", default=None,
                    help="zero | star | batch | grid:R=2,n=41 | vec:v1,v2,...")


def main(argv=None):
    parser = _Parser(prog="omdkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="materialize a generator to svmlight")
    sp.add_argument("--gen", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--rescale")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("run", help="run a learner, write trace/summary, audit bounds")
    _add_run_flags(sp)
    sp.add_argument("--trace")
    sp.add_argument("--summary")
    sp.add_argument("--audit", action="store_true", default=True)
    sp.add_argument("--no-audit", action="store_false", dest="audit")
    sp.add_argument("--strict-audit", action="store_true", dest="strict")

    sp = sub.add_parser("audit", help="re-audit a stored trace")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--strict-audit", action="store_true", dest="strict")
    sp.add_argument("--summary")
    _add_run_flags(sp, need_learner=False)

    sp = sub.add_parser("compare", help="prediction-invariance replay under rescaling")
    _add_run_flags(sp)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--strict-audit", action="store_true", dest="strict")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _report(args, payload, reports):
    """Write the payload to --summary or stdout; 3 on a strict-audit violation, else 0."""
    text = write_summary(args.summary, payload)
    if not args.summary:
        print(text, end="")
    bad = report_violations(reports) if args.strict else []
    for name, slack, tol in bad:
        print(f"strict-audit violation: {name} slack {slack} not >= -{tol}", file=sys.stderr)
    return 3 if bad else 0


def _dispatch(args):
    if args.command == "gen":
        spec = _parse_gen_spec(args.gen, args.seed)
        ds = generate(spec)
        if args.rescale:
            ds = rescale_dataset(ds, [float(c) for c in args.rescale.split(",")])
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
                                        _data_config(args), args.comparator or ["zero"])
        reports, _config = audit_stored(args.trace, config_override=override)
        return _report(args, {"reports": [r.to_dict() for r in reports]}, reports)

    if args.command == "compare":
        if not args.rescale:
            raise ValueError("compare requires --rescale")
        config = ExperimentConfig(args.learner, _learner_params(args),
                                  {"kind": "generator",
                                   "spec": _parse_gen_spec(args.gen, args.seed).to_dict()}
                                  if args.gen else _data_config(args),
                                  args.comparator or ["zero"], audit=False)
        result = run_compare(config, [float(c) for c in args.rescale.split(",")])
        print(write_summary(None, result), end="")
        if args.tol is not None and args.strict and \
                result["max_relative_deviation"] > args.tol:
            print(f"strict-audit violation: deviation {result['max_relative_deviation']} "
                  f"> {args.tol}", file=sys.stderr)
            return 3
        return 0

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
