import argparse
import inspect
import json

import pytest

from kleinbraid import cli, kernel, suites
from kleinbraid.classifier import HomClass, decide
from kleinbraid.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_by_type(capsys):
    code, out, _ = run(capsys, "classify", "--type", "2", "--i", "0", "--s1", "0", "--s2", "0")
    assert code == 0
    assert "yes" in out and "(b)" in out


def test_classify_by_images(capsys):
    code, out, _ = run(capsys, "classify", "--img10", "(0,3)", "--img01", "(0,4)")
    assert code == 0
    assert "type 1" in out and "yes" in out


@pytest.mark.parametrize("command", ["classify", "witness", "certify"])
@pytest.mark.parametrize(
    "option", [("--type", "2"), ("--i", "0"), ("--s1", "0"), ("--s2", "1"), ("--r1", "0"), ("--r2", "0")]
)
def test_class_options_are_refused_beside_images(capsys, command, option):
    code, out, err = run(capsys, command, "--img10", "(0,3)", "--img01", "(0,4)", *option)
    assert code == 2 and out == ""
    assert f"error: {option[0]} cannot be given with --img10/--img01" in err


def test_omitted_class_options_mean_zero(capsys):
    explicit = run(capsys, "classify", "--type", "4", "--r1", "0", "--r2", "0", "--s1", "0", "--s2", "0")
    assert explicit[0] == 0
    assert run(capsys, "classify", "--type", "4") == explicit


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(
        capsys, "classify", "--type", "4", "--r1", "0", "--r2", "0", "--s1", "2",
        "--s2", "0", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["bu"] is True and data["branch"] == "(d)(ii)"
    assert data["reduced"]["type"] == 4


def test_classify_rejects_fields_the_type_does_not_use(capsys):
    code, out, err = run(capsys, "classify", "--type", "1", "--r1", "5")
    assert code == 2 and out == ""
    assert "r1=5" in err
    code, _, err = run(capsys, "classify", "--type", "4", "--i", "1", "--r1", "1")
    assert code == 2
    assert "i=1" in err


def test_classify_rejects_bad_homomorphism(capsys):
    code, _, err = run(capsys, "classify", "--img10", "(1,1)", "--img01", "(1,0)")
    assert code == 2
    assert "commute" in err


def test_witness_constructed(capsys):
    code, out, _ = run(
        capsys, "witness", "--type", "4", "--r1", "0", "--r2", "2", "--s1", "0", "--s2", "0"
    )
    assert code == 0
    assert "(1 ; 1, 0)" in out


def test_witness_rejects_property_class(capsys):
    code, _, err = run(capsys, "witness", "--type", "2", "--i", "0", "--s1", "0", "--s2", "0")
    assert code == 2
    assert "Borsuk-Ulam" in err


def test_witness_transports_i1_class(capsys):
    code, out, err = run(
        capsys, "witness", "--type", "1", "--i", "1", "--s1", "0", "--s2", "1", "--json"
    )
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["source"] == "constructed"
    assert all(data["checks"].values())


def test_every_i1_class_is_witnessed_or_certified(capsys):
    # types 1-3 with i = 1 in [-2,2]²: H carries every verdict over
    for kind in (1, 2, 3):
        for s1 in range(-2, 3):
            for s2 in range(-2, 3):
                args = ["--type", str(kind), "--i", "1", "--s1", str(s1), "--s2", str(s2)]
                bu = decide(HomClass(kind, i=1, s1=s1, s2=s2)).bu
                code, out, err = run(capsys, "certify" if bu else "witness", *args)
                assert code == 0 and err == "", (args, code, err)
                assert ("via H" if bu else "checks: relation ok") in out


def test_witness_search_json(capsys):
    code, out, _ = run(
        capsys, "witness", "--type", "3", "--i", "0", "--s1", "0", "--s2", "1",
        "--search", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["source"] == "searched"
    assert all(data["checks"].values())


def test_certify_success(capsys):
    code, out, _ = run(
        capsys, "certify", "--type", "3", "--i", "0", "--s1", "1", "--s2", "0",
        "--window", "4", "--mn", "2",
    )
    assert code == 0
    assert "linear part killed: True" in out


def test_certify_rejects_failing_class(capsys):
    code, out, err = run(capsys, "certify", "--type", "3", "--i", "0", "--s1", "0", "--s2", "0")
    assert code == 2 and out == ""
    assert "certificates only exist" in err


def test_certify_rejects_negative_windows(capsys):
    code, out, err = run(
        capsys, "certify", "--type", "2", "--i", "0", "--s1", "0", "--s2", "0",
        "--window", "-1", "--mn", "-1",
    )
    assert code == 2 and out == ""
    assert "non-negative" in err


def test_witness_search_rejects_negative_bounds(capsys):
    code, out, err = run(
        capsys, "witness", "--type", "3", "--i", "0", "--s1", "0", "--s2", "0",
        "--search", "--bounds", "-1", "--coords", "-1",
    )
    assert code == 2 and out == ""
    assert "non-negative" in err


def test_braid_eval(capsys):
    code, out, _ = run(capsys, "braid-eval", "lsigma (B;0,0)")
    assert code == 0
    assert out.strip() == "(u v u v^-1 ; 0, 0)"
    code, out, _ = run(capsys, "braid-eval", "mul((u;1,0), inv((u;1,0)))")
    assert code == 0
    assert out.strip() == "(1 ; 0, 0)"
    code, out, _ = run(capsys, "braid-eval", "(u;1,0) (v;0,1)")
    assert code == 0


def test_braid_eval_parse_error_position(capsys):
    code, _, err = run(capsys, "braid-eval", "lsigma $")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "expression",
    ["(" * 5000 + "(u;1,0)" + ")" * 5000, "inv " * 3000 + "(u;1,0)"],
    ids=["parentheses", "inv-prefixes"],
)
def test_braid_eval_rejects_deep_nesting(capsys, expression):
    code, out, err = run(capsys, "braid-eval", expression)
    assert code == 2 and out == ""
    assert err.startswith("error: braid-eval:")
    assert "Traceback" not in err


# braid-eval byte for byte: every grammar form, the long-words job shapes
# of the benchmark, every error message and the order in which the errors
# of one expression are found
_BRAID_EVAL_VALUES = {  # id: (expression, stdout line); exit 0, stderr empty
    "literal": ("(u;1,0)", "(u ; 1, 0)"),
    "juxtaposition": ("(u;1,0) (v;0,1)", "(u^2 v u^-1 v u^-1 v^-1 u^-1 ; 1, 1)"),
    "juxtaposition-unspaced": (
        "(u;1,0)(v;0,1)(B;0,0)",
        "(u^2 v u^-1 v u^-1 v^-1 u^-1 v u^-1 v^-1 u^-1 ; 1, 1)",
    ),
    "parentheses": ("((u;1,0) (v;0,1))", "(u^2 v u^-1 v u^-1 v^-1 u^-1 ; 1, 1)"),
    "parentheses-then-atom": ("((u;1,0)) (v;0,0)", "(u^2 v u^-1 v u^-1 v^-1 u^-1 ; 1, 0)"),
    "op-atom": ("lsigma (B;0,0)", "(u v u v^-1 ; 0, 0)"),
    "op-literal-unspaced": ("lsigma(B;0,0)", "(u v u v^-1 ; 0, 0)"),
    "op-args": ("mul((u;1,0), inv((u;1,0)))", "(1 ; 0, 0)"),
    "op-op-atom": ("inv inv (u v;1,1)", "(u v ; 1, 1)"),
    "op-args-product": ("inv((u;1,0) (v;0,1))", "(v u^-1 v^-1 u^-1 v^-1 u ; 1, -1)"),
    "op-spaced-args": (
        "lsigma ((u;1,0) (v;0,1))",
        "(u v u^2 v^-1 u^3 v^-1 u^-1 v u^-1 v^-1 u^-1 ; 2, 2)",
    ),
    "op-args-of-products": (
        "mul((u;1,0) (v;0,1), lsigma (B;0,0))",
        "(u^2 v u^-1 v u^-1 v^-1 u^-1 v u^-1 v^-1 u^-1 ; 1, 1)",
    ),
    "op-atom-binds-tighter": ("inv (u;1,0) (v;0,1)", "(v u^-1 v^-1 u^-2 v u^3 v u v^-1 ; -1, 1)"),
    "identity-word": ("lsigma (1;0,0)", "(1 ; 0, 0)"),
    "whitespace": ("  \t(u ; 1 , 0 )\n", "(u ; 1, 0)"),
    "op-args-spaced": ("mul ( (u;1,0) , (v;0,1) )", "(u^2 v u^-1 v u^-1 v^-1 u^-1 ; 1, 1)"),
    "ablsiga-word": (
        "mul(mul((u^5 v^-2 B; 2, 1), (v^3 u^-1; 1, 2)), lsigma((u^5 v^-2 B; 2, 1)))",
        "(u^5 v^-2 u v u v^-1 u v u v^-1 u v u^-2 v u^-2 v u^-2 v u^-1 v^-1 u^-1 v u^4 v u^10 v "
        "u v^-1 u v u v^-1 u v u v^-1 ; -6, 2)",
    ),
    "ablsiga-twist": (
        "mul(mul((u^2 v; -7, 1), (v^-1 u B; 1, 1)), lsigma((u^2 v; -7, 1)))",
        "(u^2 v^2 u^-1 v^-1 u^-1 v u^-1 v^-1 u^-1 v u^-1 v^-1 u^-1 v u^-1 v^-1 u^-1 v u^-1 v^-1 "
        "u^-1 v u^-1 v^-1 u^-1 v u^-1 v^-1 u^-1 v u^-1 v^-1 u^-16 v^-1 u^-2 v u v^-1 u^-13 v^-1 "
        "u v u v^-1 u v u v^-1 u v u v^-1 u v u v^-1 u v u v^-1 u v u v^-1 ; 1, 4)",
    ),
    "x-inv-x": ("(u v^-1 B; -3, 1) inv((u v^-1 B; -3, 1))", "(1 ; 0, 0)"),
    "twisted-product": (
        "(u^4 v; 4, 1) inv((B^4; 4, 0))",
        "(u^4 v u v u v^-1 u v u v^-1 u v u v^-1 u v u v^-1 ; 8, 1)",
    ),
    "nested-parentheses": ("(" * 50 + "(u;1,0)" + ")" * 50, "(u ; 1, 0)"),
    "nested-inv-prefixes": ("inv " * 50 + "(u;1,0)", "(u ; 1, 0)"),
}

_BRAID_EVAL_ERRORS = {  # id: (expression, message); exit 2, stdout empty
    "bad-character": ("lsigma $", "braid-eval: unexpected character '$' at position 7"),
    "bad-character-between-atoms": (
        "(u;1,0) + (v;0,0)",
        "braid-eval: unexpected character '+' at position 8",
    ),
    "bad-character-before-arity": (
        "mul((u;1,0)) $",
        "braid-eval: unexpected character '$' at position 13",
    ),
    "bad-character-non-ascii": ("(u;1,0) é", "braid-eval: unexpected character 'é' at position 8"),
    "unexpected-close": (")", "braid-eval: unexpected token ')' at position 0"),
    "unexpected-close-after-atom": ("(u;1,0) )", "braid-eval: unexpected token ')' at position 8"),
    "unexpected-comma": ("(u;1,0) , (v;0,0)", "braid-eval: unexpected token ',' at position 8"),
    "unexpected-close-as-argument": ("inv )", "braid-eval: unexpected token ')' at position 4"),
    "unexpected-leading-comma": (", (u;1,0)", "braid-eval: unexpected token ',' at position 0"),
    "arity-before-unexpected-token": ("mul((u;1,0)) )", "braid-eval: mul takes two arguments"),
    "unknown-operator": ("foo (u;1,0)", "braid-eval: unknown operator 'foo' at position 0"),
    "unknown-operator-args": (
        "sigma((u;1,0), (v;0,0))",
        "braid-eval: unknown operator 'sigma' at position 0",
    ),
    "literal-error-before-unknown-operator": (
        "foo (x;0,0)",
        "braid-eval: expected 'u', 'v', 'B' or '1', found 'x' (at position 0) (at position 4)",
    ),
    "inv-arity": ("inv((u;1,0), (v;0,0))", "braid-eval: inv takes one argument"),
    "lsigma-arity": ("lsigma((u;1,0), (v;0,0))", "braid-eval: lsigma takes one argument"),
    "mul-arity-one": ("mul((u;1,0))", "braid-eval: mul takes two arguments"),
    "mul-arity-atom": ("mul (u;1,0)", "braid-eval: mul takes two arguments"),
    "mul-arity-three": ("mul((u;1,0), (v;0,0), (B;0,0))", "braid-eval: mul takes two arguments"),
    "empty": ("", "braid-eval: empty expression"),
    "empty-blank": ("   ", "braid-eval: empty expression"),
    "empty-parentheses": ("()", "braid-eval: empty expression"),
    "empty-args": ("inv()", "braid-eval: empty expression"),
    "empty-last-arg": ("mul((u;1,0),)", "braid-eval: empty expression"),
    "empty-first-arg": ("mul(,(u;1,0))", "braid-eval: empty expression"),
    "literal-error": (
        "(u;1,0) (x;0,0)",
        "braid-eval: expected 'u', 'v', 'B' or '1', found 'x' (at position 0) (at position 8)",
    ),
    "literal-error-at-start": (
        "(u^;0,0)",
        "braid-eval: expected 'u', 'v', 'B' or '1', found '^' (at position 1) (at position 0)",
    ),
    "literal-error-character": (
        "(u;1,0) (u$;0,0)",
        "braid-eval: expected 'u', 'v', 'B' or '1', found '$' (at position 1) (at position 8)",
    ),
    "literal-error-before-unexpected-token": (
        "(x;0,0) )",
        "braid-eval: expected 'u', 'v', 'B' or '1', found 'x' (at position 0) (at position 0)",
    ),
    "expected-close": ("((u;1,0), (v;0,0))", "braid-eval: expected ')' (opened at position 0)"),
    "end-in-parentheses": ("((u;1,0)", "braid-eval: unexpected end of expression"),
    "end-in-args": ("inv((u;1,0)", "braid-eval: unexpected end of expression"),
    "end-in-second-arg": ("mul((u;1,0), (v;0,0)", "braid-eval: unexpected end of expression"),
    "end-after-op": ("inv", "braid-eval: unexpected end of expression"),
    "end-after-ops": ("lsigma inv", "braid-eval: unexpected end of expression"),
    "end-before-unknown-operator": ("foo((u;1,0)", "braid-eval: unexpected end of expression"),
    "end-after-product": ("((u;1,0) (v;0,0)", "braid-eval: unexpected end of expression"),
    "twist-budget": (
        "(u;3000000,1)(v;0,0)",
        "twist m = 3000000 exceeds the budget |m| <= 250000 of theta",
    ),
    "lsigma-budget": (
        "lsigma(v^1000000;0,0)",
        "the image of v^1000000 exceeds the budget of 1000000 runs written",
    ),
    "deep-parentheses": (
        "(" * 5000 + "(u;1,0)" + ")" * 5000,
        "braid-eval: expression nested too deeply",
    ),
    "deep-inv-prefixes": ("inv " * 3000 + "(u;1,0)", "braid-eval: expression nested too deeply"),
}


@pytest.mark.parametrize(
    "expression, value", list(_BRAID_EVAL_VALUES.values()), ids=list(_BRAID_EVAL_VALUES)
)
def test_braid_eval_values(capsys, expression, value):
    assert run(capsys, "braid-eval", expression) == (0, value + "\n", "")


@pytest.mark.parametrize(
    "expression, message", list(_BRAID_EVAL_ERRORS.values()), ids=list(_BRAID_EVAL_ERRORS)
)
def test_braid_eval_errors(capsys, expression, message):
    assert run(capsys, "braid-eval", expression) == (2, "", f"error: {message}\n")


def test_kernel_project(capsys):
    code, out, _ = run(capsys, "kernel-project", "B")
    assert code == 0
    assert out.strip() == "(0,0):1"
    code, out, _ = run(capsys, "kernel-project", "v B v^-1 B^-1")
    assert code == 0
    assert out.strip() == "(0,0):-1 (1,0):1"


def test_kernel_project_rejects_nonkernel(capsys):
    code, _, err = run(capsys, "kernel-project", "u")
    assert code == 2
    assert "ker" in err


def test_kernel_project_checks_gmap_before_projecting(capsys, monkeypatch):
    # the scan would deposit 2000 rows of 2000 coordinates before failing
    def no_vector(rows):
        raise AssertionError("the projection was built")

    monkeypatch.setattr(kernel, "_vector", no_vector)
    code, out, err = run(capsys, "kernel-project", "u^2000 v^2000")
    assert code == 2 and out == ""
    assert "not in ker gmap" in err


def test_selftest_unknown_suite(capsys):
    code, _, err = run(capsys, "selftest", "--suite", "bogus")
    assert code == 2


def test_selftest_lets_errors_inside_a_suite_propagate(monkeypatch):
    def broken():
        return {}["missing-key"]

    monkeypatch.setitem(suites.SUITES, "tilde", broken)
    with pytest.raises(KeyError, match="missing-key"):
        main(["selftest", "--suite", "tilde"])


def test_selftest_runs_named_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "tilde")
    assert code == 0
    assert out.count("[pass]") >= 3


def test_selftest_takes_no_seed(capsys):
    code, out, err = run(capsys, "selftest", "--suite", "tilde", "--seed", "0")
    assert code == 2 and out == ""
    assert "--seed" in err


def test_suites_take_no_arguments():
    for fn in suites.SUITES.values():
        assert not inspect.signature(fn).parameters


def test_cli_output_roundtrips(capsys):
    from kleinbraid.braid import parse_braid
    from kleinbraid.kernel import KernelVector, project
    from kleinbraid.words import parse_word

    _, out, _ = run(capsys, "braid-eval", "lsigma (v;0,0)")
    assert parse_braid(out.strip())
    _, out, _ = run(capsys, "kernel-project", "B^2 u B u^-1")
    vec = KernelVector()
    for item in out.split():
        pair, coeff = item.split(":")
        k, l = pair.strip("()").split(",")
        vec = vec + KernelVector({(int(k), int(l)): int(coeff)})
    assert vec == project(parse_word("B^2 u B u^-1"))


# two passes of main in one process: whatever a call leaves behind shows
# up as a difference in some later call of the second pass
_REUSE_SEQUENCE = [
    (["classify", "--type", "4", "--r1", "0", "--r2", "0", "--s1", "2", "--s2", "0"], 0),
    (["classify", "--type", "9"], 2),  # argparse usage error
    (["classify", "--img10", "(0,3)"], 2),  # usage error found by the command
    (["classify", "--type", "4", "--r1", "0", "--r2", "0", "--s1", "2", "--s2", "0", "--json"], 0),
    (["kernel-project", "v B v^-1 B^-1"], 0),
    (["braid-eval", "lsigma (B;0,0)"], 0),
    (["--help"], 0),
]


def test_main_can_be_called_repeatedly(capsys):
    cli._parser.cache_clear()  # the first pass starts from a new parser
    passes = [[run(capsys, *argv) for argv, _ in _REUSE_SEQUENCE] for _ in range(2)]
    assert [code for code, _, _ in passes[0]] == [code for _, code in _REUSE_SEQUENCE]
    assert all(out or err for _, out, err in passes[0])
    assert passes[1] == passes[0]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    try:
        counts = []
        for argv in (["kernel-project", "B"], ["braid-eval", "(u;1,0)"], ["classify", "--type", "9"]):
            main(argv)
            counts.append(len(built))
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    # the top-level parser and its six subparsers, all on the first call
    assert counts == [7, 7, 7]
