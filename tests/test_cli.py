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
    (["classify", "--img10", "(0,3)"], 2),  # _CliError
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
