"""Command-line surface: classify, witness, certify, braid-eval,
kernel-project and selftest.

Every class is covered: witness and certify reach the i = 1 classes of
types 1-3 through the automorphism H of the braid group. A class is given
either by its images (--img10/--img01) or by --type and its parameters,
never both.

Exit codes: 0 success, 1 verification failure or property-false result,
2 usage or precondition error, including input over one of the budgets
(words.MAX_RUNS, also for the image of a v-run under theta and for the
runs that lsigma and H write in apply_images, braid.MAX_TWIST,
kernel.MAX_DEPOSITS,
SearchBounds, witness.MAX_PAIRS, witness.MAX_WITNESS_PARAM,
certificate.MAX_SWEEP_ENTRIES), which the library raises as ValueError
before it builds anything large.

main(argv) may be called any number of times in one process. It builds
its argparse parser once, on the first call, and reuses it; the parser
is shared and must not be changed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .braid import BraidElt, lsigma, parse_braid
from .classifier import HomClass, HomDescriptor, decide, normalize
from .certificate import check_certificate
from .kleinpi import parse_klein
from .kernel import project
from .suites import SUITES
from .witness import SearchBounds, build_witness, search_witness
from .words import WordParseError, parse_word

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


_CLASS_PARAMS = ("i", "s1", "s2", "r1", "r2")


def _class_from_args(args) -> HomClass:
    if args.img10 is not None or args.img01 is not None:
        if args.img10 is None or args.img01 is None:
            raise ValueError("--img10 and --img01 must be given together")
        given = [f"--{name}" for name in ("type",) + _CLASS_PARAMS
                 if getattr(args, name) is not None]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be given with --img10/--img01")
        h = HomDescriptor(parse_klein(args.img10), parse_klein(args.img01))
        return normalize(h)
    if args.type is None:
        raise ValueError("give either --img10/--img01 or --type with parameters")
    # an option left out means 0
    params = {name: getattr(args, name) or 0 for name in _CLASS_PARAMS}
    return HomClass(args.type, **params)


def _add_class_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--img10", help="image of (1,0), e.g. '(0,3)'")
    p.add_argument("--img01", help="image of (0,1), e.g. '(0,4)'")
    p.add_argument("--type", type=int, choices=(1, 2, 3, 4))
    # None, not 0, so that _class_from_args can tell a given option
    p.add_argument("--i", type=int, choices=(0, 1))
    p.add_argument("--s1", type=int)
    p.add_argument("--s2", type=int)
    p.add_argument("--r1", type=int)
    p.add_argument("--r2", type=int)
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _class_json(cls: HomClass) -> dict:
    out = {"type": cls.kind, "s1": cls.s1, "s2": cls.s2}
    if cls.kind == 4:
        out.update(r1=cls.r1, r2=cls.r2)
    else:
        out.update(i=cls.i)
    return out


def _cmd_classify(args) -> int:
    cls = _class_from_args(args)
    verdict = decide(cls)
    if args.json:
        print(
            json.dumps(
                {
                    "class": _class_json(cls),
                    "bu": verdict.bu,
                    "branch": verdict.branch,
                    "reduced": _class_json(verdict.reduced),
                }
            )
        )
    else:
        print(f"class: {cls.describe()}")
        print(f"borsuk-ulam: {'yes' if verdict.bu else 'no'}   branch: {verdict.branch}")
        print(f"reduced: {verdict.reduced.describe()}")
    return EXIT_OK


def _witness_json(report) -> dict:
    return {
        "a": str(report.a),
        "b": str(report.b),
        "source": report.source,
        # a report exists only once verify_pair has passed all three
        "checks": {"relation": True, "first_image": True, "second_image": True},
        "class": _class_json(report.cls),
    }


def _cmd_witness(args) -> int:
    cls = _class_from_args(args)
    verdict = decide(cls)
    if verdict.bu:
        raise ValueError(
            f"{cls.describe()} has the Borsuk-Ulam property; no witness exists"
        )
    if args.search:
        bounds = SearchBounds(args.bounds, args.coords)
        result = search_witness(cls, bounds)
        if not result.found:
            print(
                f"not found: examined {result.examined} candidate pairs at "
                f"bounds (word length <= {bounds.word_len}, "
                f"|coords| <= {bounds.coord})"
            )
            return EXIT_FAIL
        report = result.report
    else:
        report = build_witness(cls)
    if args.json:
        print(json.dumps(_witness_json(report)))
    else:
        print(f"class: {cls.describe()}   source: {report.source}")
        print(f"a = {report.a}")
        print(f"b = {report.b}")
        print("checks: relation ok, first image ok, second image ok")
    return EXIT_OK


def _cmd_certify(args) -> int:
    cls = _class_from_args(args)
    report = check_certificate(cls, window=args.window, mn=args.mn)
    if args.json:
        print(
            json.dumps(
                {
                    "class": _class_json(cls),
                    "family": report.family,
                    "windows": {"coords": report.windows[0], "mn": report.windows[1]},
                    "linear_killed": report.linear_killed,
                    "constant_nonzero_for_all": report.constant_nonzero_for_all,
                    "failures": [list(f) for f in report.witnesses_of_failure],
                }
            )
        )
    else:
        print(f"class: {cls.describe()}   family: {report.family}")
        print(
            f"windows: |k|,|l| <= {report.windows[0]}; |m|,|n| <= {report.windows[1]}"
        )
        print(
            f"linear part killed: {report.linear_killed}   "
            f"constant nonzero: {report.constant_nonzero_for_all}"
        )
        for f in report.witnesses_of_failure[:10]:
            print(f"  failure at (m,n,part,k,l) = {f}")
    return EXIT_OK if report.success else EXIT_FAIL


# one token: a (word;m,n) literal, an operator name, a parenthesis or a
# comma; any other character but whitespace is the group "bad"
_TOKEN = re.compile(
    r"(?P<literal>\(\s*[^();]*;\s*-?\d+\s*,\s*-?\d+\s*\))|(?P<ident>[a-z]+)|[(),]|(?P<bad>\S)"
)
# operator name -> (number of arguments, function)
_OPERATORS = {"inv": (1, BraidElt.inv), "lsigma": (1, lsigma), "mul": (2, BraidElt.__mul__)}


def _expr(tokens, i, stop=(")", ",")):
    """expr := atom atom ...  (their product)

    Reads from tokens[i] up to a token in stop, or to the end when stop is
    empty (the whole input); returns the value and the next index."""
    out = None
    while i < len(tokens) and tokens[i][0] not in stop:
        atom, i = _atom(tokens, i)
        out = atom if out is None else out * atom
    if out is None:
        raise ValueError("braid-eval: empty expression")
    if stop and i == len(tokens):
        raise ValueError("braid-eval: unexpected end of expression")
    return out, i


def _atom(tokens, i):
    """atom := literal | '(' expr ')' | op '(' expr {',' expr} ')' | op atom

    op is a name in _OPERATORS, applied once its arguments are read;
    returns the value and the next index."""
    if i == len(tokens):
        raise ValueError("braid-eval: unexpected end of expression")
    kind, text, pos = tokens[i]
    if kind == "literal":
        try:
            return parse_braid(text), i + 1
        except ValueError as exc:
            raise ValueError(f"braid-eval: {exc} (at position {pos})")
    if kind == "(":
        inner, i = _expr(tokens, i + 1)
        if tokens[i][0] != ")":
            raise ValueError(f"braid-eval: expected ')' (opened at position {pos})")
        return inner, i + 1
    if kind != "ident":
        raise ValueError(f"braid-eval: unexpected token {text!r} at position {pos}")
    args, i = [], i + 1
    if i < len(tokens) and tokens[i][0] == "(":
        while tokens[i][0] != ")":  # "(" and then each ","
            arg, i = _expr(tokens, i + 1)
            args.append(arg)
        i += 1
    else:
        arg, i = _atom(tokens, i)
        args.append(arg)
    if text not in _OPERATORS:
        raise ValueError(f"braid-eval: unknown operator {text!r} at position {pos}")
    arity, apply = _OPERATORS[text]
    if len(args) != arity:
        count = "one argument" if arity == 1 else "two arguments"
        raise ValueError(f"braid-eval: {text} takes {count}")
    return apply(*args), i


def _cmd_braid_eval(args) -> int:
    tokens = []
    for m in _TOKEN.finditer(args.expression):
        kind, text, pos = m.lastgroup or m.group(), m.group(), m.start()
        if kind == "bad":
            raise ValueError(f"braid-eval: unexpected character {text!r} at position {pos}")
        tokens.append((kind, text, pos))
    try:
        result, _ = _expr(tokens, 0, stop=())
    except RecursionError:
        raise ValueError("braid-eval: expression nested too deeply")
    print(result)
    return EXIT_OK


def _cmd_kernel_project(args) -> int:
    try:
        w = parse_word(args.word)
    except WordParseError as exc:
        raise ValueError(f"kernel-project: {exc}")
    print(project(w))
    return EXIT_OK


def _cmd_selftest(args) -> int:
    checks = SUITES[args.suite]()
    bad = 0
    for check in checks:
        status = "pass" if check.ok else "FAIL"
        line = f"[{status}] {args.suite}: {check.name}"
        if not check.ok:
            bad += 1
            line += f"  ({check.detail})"
        print(line)
    if bad:
        print(f"{bad} check(s) failed")
        return EXIT_FAIL
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call of main.
    It binds the _cmd_* handlers and the SUITES names as they are then."""
    parser = argparse.ArgumentParser(
        prog="kleinbraid",
        description="Borsuk-Ulam classification over the Klein bottle: "
        "exact braid arithmetic, witnesses and certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="normalise a homomorphism and decide the property")
    _add_class_args(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("witness", help="construct (or search) a verified witness pair")
    _add_class_args(p)
    p.add_argument("--search", action="store_true", help="bounded search instead of construction")
    p.add_argument("--bounds", type=int, default=4, help="max word letters for --search")
    p.add_argument("--coords", type=int, default=2, help="max twist coordinate for --search")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("certify", help="run the bounded certificate for a class with the property")
    _add_class_args(p)
    p.add_argument(
        "--window", type=int, default=6, help="list linear-part failures with |k|,|l| up to this"
    )
    p.add_argument("--mn", type=int, default=4, help="parameter window |m|,|n|")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("braid-eval", help="evaluate a braid expression to normal form")
    p.add_argument("expression", help="product of (word;m,n) literals and mul|inv|lsigma")
    p.set_defaults(fn=_cmd_braid_eval)

    p = sub.add_parser("kernel-project", help="project a kernel word to basis coordinates")
    p.add_argument("word", help="a word in ker gmap, e.g. 'B' or 'v B v^-1 B^-1'")
    p.set_defaults(fn=_cmd_kernel_project)

    p = sub.add_parser("selftest", help="run a named invariant suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES), metavar="NAME",
                   help="one of: %(choices)s")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
