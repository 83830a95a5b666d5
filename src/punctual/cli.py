"""Command line front end.

Every verb reads typed flags, runs one computation, and emits canonical
structured text (or JSON with --format json); identical invocations give
byte-identical output.  A verb returns its JSON object and its text as
zero-argument callables, and main builds only the one --format asks for.
_VERBS is the one flag table.  A well-formed argv is read straight off it;
argparse is imported, and its parser built, only for help and usage errors,
and json only where JSON is read or written.
Exit status: 0 on success and passing checks, 1 when a verification fails
(a failing verify, or the two vertical-series paths disagreeing), 2 on bad
input or an output that cannot be written.
"""

import random
import sys
from functools import lru_cache, partial
from types import SimpleNamespace

from .axioms import run_axiom_suite
from .combinat import _desc_vectors
from .genfun import (IDENTITY_NAMES, _PathsDisagreeError, curve_series,
                     gamma_integral_series, nonsep_vertical_series,
                     verify_identity, vertical_series)
from .hopf import (_GENS, _factor_pretty, element_from_obj, element_pretty,
                   element_to_obj, tensor_pretty, tensor_to_obj)
from .rational import format_rational, parse_rational
from .symfunc import parse_chern_arg
from .theories import _unit_class, eval_theory, theory_from_spec


def _load_json_arg(text):
    """Inline JSON, @path, or - for stdin."""
    import json
    if text == "-":
        return json.load(sys.stdin)
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def parse_theory_string(text):
    """Parse a theory argument: "builtin:ck,k=2", "mult_class:1,1,1/2",
    inline JSON, or @file with the JSON form."""
    if text.startswith("@") or text.startswith("{"):
        return _load_json_arg(text)
    head, _, rest = text.partition(":")
    if head == "builtin":
        parts = [p.strip() for p in rest.split(",") if p.strip()]
        if not parts:
            raise ValueError("builtin theory needs a name")
        spec = {"builtin": parts[0]}
        for p in parts[1:]:
            key, eq, v = p.partition("=")
            if not eq:
                raise ValueError("malformed theory option %r" % p)
            try:
                v = int(v)
            except ValueError:  # left for theory_from_spec to refuse
                v = v.strip()
            spec[key.strip()] = v
        return spec
    if head == "mult_class":
        return {"mult_class": [c.strip() for c in rest.split(",")]}
    raise ValueError("unrecognized theory string %r" % text)


def _element_caps(x):
    rows = [_GENS[g] for mon in x._nums for g in mon]
    return (max([1] + [n for n, _ in rows]),
            max([0] + [e for _, m in rows for e in m]))


def _build_theory(args, d, n_cap, m_cap, variant="sep"):
    return theory_from_spec(parse_theory_string(args.theory), d, n_cap, m_cap,
                            variant=variant)


def _at_least(flag, value, low):
    """Refuse a flag's value below low, naming the flag."""
    if value < low:
        raise ValueError("%s must be >= %d, got %d" % (flag, low, value))


def _need(args, name, flag):
    if getattr(args, name) is None:
        raise ValueError("this verb needs %s" % flag)
    return getattr(args, name)


# -- verbs -----------------------------------------------------------------

def _run_table(args):
    _at_least("--d", args.d, 0)
    if args.variant == "sep":
        _at_least("--max-n", args.max_n, 1)
    _at_least("--max-m", args.max_m, 0)
    e = _build_theory(args, args.d, args.max_n, args.max_m,
                      variant=args.variant)
    if args.variant == "sep":
        cells = [((n, m), {"n": n, "m": list(m)}, e.value(n, m))
                 for n in range(1, args.max_n + 1)
                 for m in _desc_vectors(args.d, args.max_m)]
    else:
        cells = [((1, lam), {"lambda": list(lam)}, e.nonsep_value(lam))
                 for lam in _desc_vectors(args.d, args.max_m)]
    return (lambda: {"d": args.d, "variant": args.variant, "theory": e.label,
                     "values": [dict(index, value=format_rational(v))
                                for _, index, v in cells]},
            lambda: "\n".join("%s: %s" % (_factor_pretty(g, args.variant, "q"),
                                          format_rational(v))
                              for g, _, v in cells), 0)


def _run_eval(args):
    x = element_from_obj(_load_json_arg(args.element))
    if args.d is not None and args.d != x.d:
        raise ValueError("--d %d does not match element d=%d" % (args.d, x.d))
    n_cap, m_cap = _element_caps(x)
    e = _build_theory(args, x.d, n_cap, m_cap, variant=x.variant)
    v = format_rational(eval_theory(e, x))
    return (lambda: {"value": v}), (lambda: v), 0


def _run_element(args):
    """to-p, to-q, antipode and coproduct: the element method of that name."""
    x = element_from_obj(_load_json_arg(args.element))
    y = getattr(x, args.verb.replace("-", "_"))()
    if args.verb == "coproduct":
        return partial(tensor_to_obj, y), partial(tensor_pretty, y), 0
    return partial(element_to_obj, y), partial(element_pretty, y), 0


def _run_vertical(args):
    _at_least("--d", args.d, 1)
    _at_least("--order", args.order, 0)
    chern = parse_chern_arg(args.d, args.chern)
    if args.variant == "nonsep":
        e = _build_theory(args, args.d, args.order, args.d, variant="nonsep")
        s = nonsep_vertical_series(e, chern, args.order)
    else:
        e = _build_theory(args, args.d, args.order, args.order - 1 + args.d)
        s = vertical_series(e, chern, args.order, path=args.path)
    return s.to_obj, s.pretty, 0


def _run_curve(args):
    _at_least("--order", args.order, 0)
    e = _build_theory(args, 1, args.order, args.order)
    s = curve_series(e, parse_rational(args.chi), args.order)
    return s.to_obj, s.pretty, 0


def _run_gamma(args):
    _at_least("--d", args.d, 1)
    _at_least("--order", args.order, 0)
    chern = parse_chern_arg(args.d, args.chern)
    e = _build_theory(args, args.d, args.order, args.order - 1 + args.d)
    series, report = gamma_integral_series(e, chern, args.order)
    return (lambda: {"series": series.to_obj(), "report": report.to_obj()},
            lambda: series.pretty() + "\n" + report.pretty(), 0)


def _run_verify(args):
    name = args.name
    _at_least("--order", args.order, 0)
    n_max = args.order
    params = {"n_max": n_max}
    if name == "curve-vertical":
        _need(args, "theory", "--theory")
        e = _build_theory(args, 1, n_max, n_max)
        params.update(theory=e, chi=parse_rational(_need(args, "chi", "--chi")))
    elif name == "inertial-power":
        d = _need(args, "d", "--d")
        _at_least("--d", d, 1)
        P = _unit_class([parse_rational(c) for c in
                         _need(args, "unit_class", "--class").split(",")])
        params.update(P=P, chern=parse_chern_arg(d, _need(args, "chern",
                                                          "--chern")))
    elif name == "dt-degree-zero":
        params.update(chern=parse_chern_arg(3, _need(args, "chern",
                                                     "--chern")))
    elif name == "ck-bivariate":
        m_max = args.m_max if args.m_max is not None else n_max
        _at_least("--m-max", m_max, 0)
        params.update(k=_need(args, "k", "--k"), m_max=m_max)
    elif name == "gamma-vertical":
        d = _need(args, "d", "--d")
        _at_least("--d", d, 1)
        _need(args, "theory", "--theory")
        e = _build_theory(args, d, n_max, n_max - 1 + d)
        params.update(theory=e,
                      chern=parse_chern_arg(d, _need(args, "chern",
                                                     "--chern")))
    report = verify_identity(name, **params)
    return report.to_obj, report.pretty, 0 if report.passed else 1


def _run_axioms(args):
    _at_least("--count", args.count, 1)
    _at_least("--max-cycle-degree", args.max_cycle_degree, 0)
    if args.d is not None:
        _at_least("--d", args.d, 0)
    dims = (args.d,) if args.d is not None else (1, 2, 3)
    variants = (("sep", "nonsep") if args.variant == "both"
                else (args.variant,))
    rng = random.Random(args.seed)
    try:
        counts = run_axiom_suite(rng, dims=dims, variants=variants,
                                 count=args.count,
                                 max_cycle_degree=args.max_cycle_degree)
    except AssertionError as exc:
        detail = str(exc)  # the except clause unbinds exc on exit
        return (lambda: {"passed": False, "detail": detail},
                lambda: "passed: false\n" + detail, 1)
    lines = ["passed: true"] + ["%s: %d" % kv for kv in counts.items()]
    return (lambda: {"passed": True, "checks": counts},
            lambda: "\n".join(lines), 0)


# -- wiring ----------------------------------------------------------------

_VARIANT = ("--variant", dict(choices=("sep", "nonsep"), default="sep"))
_SHARED = (("--format", dict(choices=("text", "json"), default="text")),
           ("--output", dict(help="write to this path instead of stdout")))

# verb -> (run function, help line, the flags after --format and --output)
_VERBS = {
    "table": (_run_table, "generator values of a theory", (
        ("--theory", dict(required=True)),
        ("--d", dict(type=int, required=True)),
        ("--max-n", dict(type=int, required=True)),
        ("--max-m", dict(type=int, required=True)), _VARIANT)),
    "eval": (_run_eval, "pair a theory with an element", (
        ("--theory", dict(required=True)),
        ("--element", dict(required=True,
                           help="inline JSON, @file, or - for stdin")),
        ("--d", dict(type=int)))),
    **{verb: (_run_element, blurb, (("--element", dict(required=True)),))
       for verb, blurb in (("to-p", "rewrite in the p basis"),
                           ("to-q", "rewrite in the q basis"),
                           ("antipode", "apply the antipode"),
                           ("coproduct", "coproduct of a q-basis element"))},
    "vertical": (_run_vertical, "invariant series of the symmetric-power "
                                "classes", (
        ("--theory", dict(required=True)),
        ("--d", dict(type=int, required=True)),
        ("--chern", dict(required=True,
                         help='e.g. "c3=4,c1c2=24" or "m21=12,m111=4"')),
        ("--order", dict(type=int, required=True)),
        ("--path", dict(choices=("both", "pair", "exp"), default="both")),
        _VARIANT)),
    "curve": (_run_curve, "curve-count series (d = 1)", (
        ("--theory", dict(required=True)),
        ("--chi", dict(required=True)),
        ("--order", dict(type=int, required=True)))),
    "gamma-integral": (_run_gamma, "log of the vertical series via the "
                                   "gamma integral", (
        ("--theory", dict(required=True)),
        ("--d", dict(type=int, required=True)),
        ("--chern", dict(required=True)),
        ("--order", dict(type=int, required=True)))),
    "verify": (_run_verify, "check a named series identity", (
        ("--name", dict(required=True, choices=IDENTITY_NAMES)),
        ("--order", dict(type=int, required=True)),
        ("--theory", {}), ("--chi", {}), ("--chern", {}),
        ("--d", dict(type=int)), ("--k", dict(type=int)),
        ("--m-max", dict(type=int)),
        ("--class", dict(dest="unit_class",
                         help="unit class coefficients, e.g. 1,2,1/3")))),
    "axioms": (_run_axioms, "run the Hopf axiom suite", (
        ("--d", dict(type=int)),
        ("--variant", dict(choices=("sep", "nonsep", "both"),
                           default="both")),
        ("--count", dict(type=int, default=60)),
        ("--max-cycle-degree", dict(type=int, default=4)),
        ("--seed", dict(type=int, default=0)))),
}


@lru_cache(maxsize=1)  # built only for help and usage errors
def _build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="punctual",
        description="Tautological Hopf algebras of 0-cycles in d-folds: "
                    "tables, basis changes, invariant series, checks.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (func, blurb, flags) in _VERBS.items():
        verb_parser = sub.add_parser(verb, help=blurb)
        verb_parser.set_defaults(func=func)
        for flag, kw in _SHARED + flags:
            verb_parser.add_argument(flag, **kw)
    return parser


def _parse(argv):
    """Read a verb and then exact --flag value or --flag=value pairs off
    _VERBS, applying each flag's dest, type, choices, default and required
    as argparse does; the last of a repeated flag wins.  The full parser
    takes any other argv: help, no or an unknown verb, an abbreviated or
    unknown flag, a flag without a value, a value that starts with - (which
    argparse may read as a flag, or as nothing), one that its type or
    choices refuse, or a missing required flag, and gives the message."""
    if not argv or argv[0] not in _VERBS:
        return _build_parser().parse_args(argv)
    func, _, flags = _VERBS[argv[0]]
    table = dict(_SHARED + flags)
    dest = {f: kw.get("dest", f.lstrip("-").replace("-", "_"))
            for f, kw in table.items()}
    args = {dest[f]: kw.get("default") for f, kw in table.items()}
    missing = {f for f, kw in table.items() if kw.get("required")}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            flag, eq, value = token.partition("=")
            kw, value = table[flag], value if eq else next(tokens)
            if value.startswith("-"):
                break
            value = kw.get("type", str)(value)
            if value not in kw.get("choices", (value,)):
                break
            args[dest[flag]] = value
            missing.discard(flag)
        else:
            if not missing:
                return SimpleNamespace(verb=argv[0], func=func, **args)
    except (KeyError, StopIteration, TypeError, ValueError):
        pass
    return _build_parser().parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        obj, text, status = args.func(args)
        if args.format == "json":
            import json
        payload = (json.dumps(obj(), indent=2) if args.format == "json"
                   else text()) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(payload)
        else:  # flushed here, so that a full or closed stdout exits 2
            sys.stdout.write(payload)
            sys.stdout.flush()
    except (ValueError, KeyError, TypeError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except _PathsDisagreeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
