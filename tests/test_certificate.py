import itertools
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kleinbraid import certificate, suites
from kleinbraid.certificate import (
    MAX_SWEEP_ENTRIES,
    CertificateReport,
    Functional,
    _family,
    check_certificate,
    equation_even_even,
    equation_even_odd,
    equation_first_odd,
    even_even_atoms,
    master_forms,
    mu_nu_operators,
    xi_column,
    xi_congruence,
    xi_count,
    xi_parity,
    xi_row,
)
from kleinbraid.classifier import HomClass, decide
from kleinbraid.cli import main
from kleinbraid.kernel import (
    ID,
    RHO,
    KernelOperator,
    KernelVector,
    c_operator,
    theta_operator,
    tilde_j,
    tilde_o,
)
from kleinbraid.kleinpi import delta, eps
from kleinbraid.suites import _grid_classes, suite_specialization

from common import PROFILE


def unit(k, l):
    return KernelVector.unit(k, l)


def _equation(r1, r2, s1, s2, i, j, m, n):
    """The obstruction equation of the class data at (m, n)."""
    return master_forms(r1, r2, s1, s2, i, j, n % 2).equation_at(m, n)


def test_master_forms_validation():
    for i, j, parity in ((2, 0, 0), (0, -1, 0), (0, 0, 2), (0, 0, -1)):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            master_forms(0, 0, 0, 0, i, j, parity)


def test_forms_refuse_an_n_of_the_other_parity():
    for parity in (0, 1):
        forms = master_forms(1, 2, 1, 0, 0, 0, parity)
        assert forms.parity == parity
        for n in (parity - 2, parity, parity + 2):  # accepted
            forms.derived_at(1, n)
            forms.equation_at(1, n)
        for n in (parity - 3, parity - 1, parity + 1):
            with pytest.raises(ValueError, match="parity"):
                forms.derived_at(1, n)
            with pytest.raises(ValueError, match="parity"):
                forms.equation_at(1, n)


def test_derived_at_even_case():
    # i = j = 0 collapses the derived data to the even-even family's values
    for r1 in range(-2, 3):
        for r2 in range(-2, 3):
            forms = [master_forms(r1, r2, 1, 0, 0, 0, parity) for parity in (0, 1)]
            for m in range(-2, 3):
                for n in range(-2, 3):
                    a1, a2, b1, b2, g = forms[n % 2].derived_at(m, n)
                    assert a1 == -2 * delta(n + 1) * r1
                    assert a2 == -4
                    assert b1 == eps(n) * r2 - 2 * delta(n + 1) * m
                    assert b2 == -2 * n
                    assert g == m + eps(n + 1) * r1


def test_equation_value_at_zero_unknowns_is_constant():
    eq = _equation(1, 2, 1, 0, 0, 0, 1, 1)
    zero = KernelVector()
    assert eq.ax(zero) == zero and eq.ay(zero) == zero
    assert eq.constant  # generically nonzero


def test_linearity_of_operators():
    eq = _equation(1, -1, 2, 1, 0, 0, -1, 2)
    v = KernelVector({(0, 0): 2, (1, -1): -1})
    w = KernelVector({(2, 3): 5})
    for op in (eq.ax, eq.ay):
        assert op(v + w) == op(v) + op(w)
        assert op(3 * v) == 3 * op(v)


@pytest.mark.parametrize("family", ["first_odd", "even_odd", "even_even"])
def test_specializations_match_master_forms(family):
    # equal term tables act alike on every e(k, l)
    cases = {
        "first_odd": [(1, 0, 0, 0, 0), (-2, 1, 1, 2, -1), (2, 1, 0, -2, 3), (0, 0, 1, 1, 1)],
        "even_odd": [(1, 0, 0, 0), (-2, 1, 2, -1), (2, 0, -2, 3)],
        "even_even": [
            (1, 2, 0, 0, 0, 0),
            (2, -1, 1, 1, 2, -3),
            (0, 2, -2, 0, 1, 1),
            (1, 1, 2, 1, -2, 2),
        ],
    }
    for params in cases[family]:
        if family == "first_odd":
            s, z, w, m, n = params
            fam = equation_first_odd(s, z, w, m, n)
            eq = _equation(0, 0, s, z * w, 1, w, m, n)
        elif family == "even_odd":
            s, z, m, n = params
            fam = equation_even_odd(s, z, m, n)
            eq = _equation(0, 0, s, z, 0, 1, m, n)
        else:
            r1, r2, s, z, m, n = params
            fam = equation_even_even(r1, r2, s, z, m, n)
            eq = _equation(r1, r2, s, z, 0, 0, m, n)
        assert fam.ax == eq.ax and fam.ay == eq.ay
        assert fam.constant == eq.constant


def _with_moved_offset(monkeypatch, move):
    """Patch the evaluation of the forms' operators so that the first term
    of Ax at even k has its offset p moved by move(m)."""
    original = certificate._operators_at

    def moved(forms, m, n):
        ax, ay = original(forms, m, n)
        even, odd = ([(c, *key) for key, c in table.items()] for table in ax.terms)
        c, a, p, b, q = even[0]
        even[0] = (c, a, p + move(m), b, q)
        return KernelOperator(even, odd), ay

    monkeypatch.setattr(certificate, "_operators_at", moved)


def test_specialization_suite_sees_one_moved_offset(monkeypatch):
    # the suite compares term tables only: moving one offset of Ax by 1
    # must fail every family's check
    _with_moved_offset(monkeypatch, lambda m: 1)
    assert [check.ok for check in suite_specialization()] == [False, False, False]


# e(0, 0) as one more atom of a constant
EXTRA_UNIT = (1, 0, 0, "unit", (0, 0))


def test_specialization_suite_sees_one_added_atom(monkeypatch):
    # the suite also compares the constants: one more unit atom in the
    # evaluated forms' constant must fail every family's check
    original = certificate._atoms_at

    def added(atoms, m, n):
        return original(atoms, m, n) + (EXTRA_UNIT,)

    monkeypatch.setattr(certificate, "_atoms_at", added)
    assert [check.ok for check in suite_specialization()] == [False, False, False]


def test_operators_equal_compositions():
    # master_forms writes Ax and Ay as term tables; the compositions of the
    # induced operators are the reference, compared as whole tables
    cancelled = set()
    for r1, r2, s1, s2, i, j, m, n in itertools.product(
        (-2, 0, 1, 3), (-1, 0, 2), (-1, 0, 2), (0, 1), (0, 1), (0, 1), (-2, 0, 1), (-3, 0, 1, 2)
    ):
        forms = master_forms(r1, r2, s1, s2, i, j, n % 2)
        eq = forms.equation_at(m, n)
        a1, a2, b1, b2, g = forms.derived_at(m, n)
        ax = c_operator(a2 - b2, a1 - b1) + theta_operator(g, delta(n + i)) @ RHO
        ay = (
            c_operator(a2, a1 * eps(n + i))
            @ theta_operator(delta(i + 1) * delta(j + 1) * r1, delta(i))
            - ID
        )
        assert eq.ax.terms == ax.terms and eq.ay.terms == ay.terms
        for table in eq.ax.terms + eq.ay.terms:
            assert all(table.values())
        cancelled.update(parity for parity in (0, 1) if not eq.ay.terms[parity])
    # the identity cancels against the c∘theta term at both parities
    assert cancelled == {0, 1}


def _reduced_tables(op, period):
    """op's term tables with every offset reduced mod period and the terms
    that then share a key merged, zero sums left out: all that a pullback
    of a functional whose period divides period reads of op."""
    tables = []
    for terms in op.terms:
        merged = {}
        for (a, p, b, q), c in terms.items():
            key = (a, p % period, b, q % period)
            merged[key] = merged.get(key, 0) + c
        tables.append({key: c for key, c in merged.items() if c})
    return tables


def _periodic(data, m, n, period):
    """Whether Ax and Ay of the class data, reduced mod period, agree at
    (m, n), (m + period, n) and (m, n + period); period is even, so the
    three points share the forms of one parity of n."""
    forms = master_forms(*data, n % 2)

    def reduced(m, n):
        eq = forms.equation_at(m, n)
        return [_reduced_tables(op, period) for op in (eq.ax, eq.ay)]

    return reduced(m, n) == reduced(m + period, n) == reduced(m, n + period)


class_data = st.tuples(*[st.integers(-4, 4)] * 4, st.integers(0, 1), st.integers(0, 1))
quantified = st.integers(-30, 30)
# lcm(2, pk, pl) over the functionals' periods: (2, 1), (4|s|, 1), (2, 2|r1|)
sweep_periods = st.sampled_from((2, 4, 6, 8, 12))


@PROFILE
@given(class_data, quantified, quantified, sweep_periods)
def test_operator_tables_are_periodic_in_m_and_n(data, m, n, period):
    # what check_certificate's per-class cache rests on: with the parity of
    # n fixed, every offset is an integer affine function of (m, n)
    assert _periodic(data, m, n, period)


def test_periodicity_check_sees_a_quadratic_offset(monkeypatch):
    # an integer polynomial in m stays periodic mod an even period, so the
    # moved offset is m(m + 1)/2, which moves by m·L + L(L + 1)/2 ≡ L/2
    # (mod L) from m to m + L
    _with_moved_offset(monkeypatch, lambda m: m * (m + 1) // 2)
    for period in (2, 4, 6, 8, 12):
        for data, m, n in (((1, 2, 0, 0, 0, 0), 0, 0), ((0, 1, -1, 1, 1, 1), 3, -2)):
            assert not _periodic(data, m, n, period)


def test_mu_nu_displayed_vs_compositional():
    for r1 in (0, 1, 2):
        for r2 in (-2, 0, 2):
            for s in (-2, 0, 1):
                for z in (0, 1):
                    for m in (-2, 1):
                        for n in (-1, 0, 2):
                            mu, nu = mu_nu_operators(r1, r2, s, z, m, n)
                            eq = _equation(r1, r2, s, z, 0, 0, m, n)
                            assert mu == eq.ax and nu == eq.ay


def test_mu_nu_examples():
    # r1 = 0 and s = 0 make nu the zero operator
    _, nu = mu_nu_operators(0, 2, 0, 0, 1, 1)
    for k in range(-3, 4):
        for l in range(-3, 4):
            assert not nu(unit(k, l))
    # displayed value of mu at the origin basis vector, n even: the second
    # term's l-shift carries a factor delta(k) which vanishes at k = 0
    for n in (0, 2):
        for m, r1, r2, z, s in [(1, 1, 2, 0, 0), (-2, 2, 0, 0, 0)]:
            mu, _ = mu_nu_operators(r1, r2, s, z, m, n)
            want = unit(2 * n, 2 * delta(n + 1) * (m - r1) + eps(n + 1) * r2) + unit(0, 0)
            assert mu(unit(0, 0)) == want


def test_xi_parity():
    xi0 = xi_parity(0)
    assert xi0(unit(3, 5)) == 1 and xi0(unit(2, 5)) == 0
    xi1 = xi_parity(1)
    assert xi1(unit(3, 5)) == xi1(unit(2, 5)) == 1
    for s in range(-3, 4):
        for m in range(-3, 4):
            assert xi0(tilde_j(-2 * s - 1, 1 - 2 * m)) == 1
            assert xi1(tilde_j(-2 * s - 1, 1 - 2 * m)) == 1


def test_xi_parity_kills_linear_parts():
    # xi∘op = xi on every e(k, l), read off the pulled-back tables
    for w in (0, 1):
        xi = xi_parity(w)
        for (m, n) in [(0, 0), (1, -1), (-2, 3)]:
            assert xi.pullback(theta_operator(m, n)) == xi
            assert xi.pullback(RHO) == xi
            if w == 1 or m % 2 == 0:
                assert xi.pullback(c_operator(m, n)) == xi


def test_xi_parity_on_o_family():
    for w in (0, 1):
        xi = xi_parity(w)
        for k in range(-3, 4):
            for l in range(-3, 4):
                if k and l:
                    assert xi(tilde_o(k, l)) == (abs(k) * abs(l) * delta(w + 1)) % 2


def test_xi_congruence():
    xi = xi_congruence(2, 1, 0)  # mod 8, second residue 2*1-0-1 = 1
    assert xi(unit(0, 3)) == 1
    assert xi(unit(8, 0)) == 1
    assert xi(unit(1, 2)) == 1
    assert xi(unit(2, 0)) == 0
    with pytest.raises(ValueError):
        xi_congruence(0, 1, 0)


def test_xi_count_examples():
    xi = xi_count(1)  # value is the parity of k + 1
    assert xi(unit(0, 9)) == 1 and xi(unit(1, 9)) == 0
    assert xi(KernelVector({(0, 0): 3, (2, 5): -1})) == 2


def _assert_xi_count_collapses(atoms_at):
    for r1 in (0, 2):
        for r2 in range(-2, 3):
            for s in range(-2, 3):
                for z in (0, 1):
                    for m in (-3, 0, 2):
                        for n in (-2, 1):
                            atoms = atoms_at(r1, r2, s, z, m, n)
                            assert xi_count(n).on_atoms(atoms) == -2 * r2 * s


def test_xi_count_collapse():
    _assert_xi_count_collapses(even_even_atoms)


def test_xi_count_collapse_sees_one_added_atom(monkeypatch):
    # e(0, 0) adds δn to xi_count(n) of the constant, so the test's
    # assertion and the suite's check must both fail at odd n
    def added(*args):
        return even_even_atoms(*args) + (EXTRA_UNIT,)

    with pytest.raises(AssertionError):
        _assert_xi_count_collapses(added)
    # no classes to certify: only the functional identities run
    monkeypatch.setattr(suites, "_grid_classes", lambda span: [])
    monkeypatch.setattr(certificate, "even_even_atoms", added)
    checks = {check.name: check.ok for check in suites.suite_certificate_grid()}
    assert not checks["xi-count collapses the even-even constant to -2*r2*s"]
    assert sum(checks.values()) == len(checks) - 1


def test_xi_column():
    xi = xi_column(2, 0, 0, 0)  # columns l ≡ 0 mod 4, value = parity of k+1
    assert xi(unit(1, 0)) == 0 and xi(unit(0, 4)) == 1
    assert xi(unit(0, 1)) == 0
    with pytest.raises(ValueError):
        xi_column(0, 0, 0, 0)
    with pytest.raises(ValueError):
        xi_column(2, 1, 0, 0)


def test_xi_row():
    xi = xi_row(1, 1)  # k ≡ 1 mod 4
    assert xi(unit(1, 7)) == 1 and xi(unit(5, 0)) == 1 and xi(unit(3, 0)) == 0
    with pytest.raises(ValueError):
        xi_row(0, 1)


def test_check_certificate_examples():
    report = check_certificate(HomClass(2, i=0, s1=0, s2=0))
    assert report.success and report.family == "type2/xi-parity"
    report = check_certificate(HomClass(3, i=0, s1=2, s2=0))
    assert report.success and report.family == "type3/xi-congruence"
    report = check_certificate(HomClass(4, r1=1, r2=2, s1=0, s2=0))
    assert report.success and report.family == "type4-(iii)/xi-column"
    report = check_certificate(HomClass(4, r1=0, r2=0, s1=1, s2=0))
    assert report.success and report.family == "type4-(ii)/xi-row"
    report = check_certificate(HomClass(4, r1=1, r2=2, s1=1, s2=1))
    assert report.success and report.family == "type4-(i)/xi-count"
    report = check_certificate(HomClass(1, i=0, s1=-2, s2=2))
    assert report.success and report.family == "type1-even/xi-parity"


def test_family_follows_decide_branch():
    # every class with the property in [-3, 3], i = 1 included: the label
    # names decide's branch (test_sweep_matches_reference_on_grid checks
    # that the same classes' reports succeed)
    checked = 0
    for cls in _grid_classes(3):
        verdict = decide(cls)
        if not verdict.bu:
            continue
        label, *_ = _family(cls, verdict)
        kind, _, rest = label.partition("/")
        if cls.kind == 4:
            assert kind == "type4-" + verdict.branch.split()[0][3:], cls
        else:
            assert kind in (f"type{cls.kind}", f"type{cls.kind}-even"), cls
        assert rest.endswith(" via H") == bool(cls.i), cls
        checked += 1
    assert checked == 1331
    # the (d)(ii) classes with r1 > 0 now take xi_row; they hold at the
    # default windows too
    for r1 in (1, 2, 3):
        for s1 in (-3, -2, -1, 1, 2, 3):
            report = check_certificate(HomClass(4, r1=r1, r2=0, s1=s1, s2=0))
            assert report.success and report.family == "type4-(ii)/xi-row"


def test_check_certificate_preconditions():
    with pytest.raises(ValueError):
        check_certificate(HomClass(3, i=0, s1=0, s2=0))  # fails the property
    # an i = 1 class carries its partner's certificate over along H
    partner = check_certificate(HomClass(2, i=0, s1=0, s2=0))
    report = check_certificate(HomClass(2, i=1, s1=0, s2=0))
    assert report == replace(partner, family="type2/xi-parity via H")


def test_certificate_windows_recorded():
    report = check_certificate(HomClass(2, i=0, s1=1, s2=0), window=3, mn=1)
    assert report.windows == (3, 1)
    assert isinstance(report, CertificateReport)
    assert report.witnesses_of_failure == ()


def test_certificate_blocks_windowed_solutions():
    # success implies no sparse (x, y) within the window solves the equation
    cls = HomClass(4, r1=1, r2=2, s1=0, s2=0)
    report = check_certificate(cls, window=6, mn=4)
    assert report.success
    z = cls.s2 % 2
    probes = [
        KernelVector(),
        unit(0, 0),
        -1 * unit(2, -1),
        unit(1, 1) + unit(-3, 2),
        2 * unit(0, -4) - unit(4, 4),
    ]
    for m in (-4, 0, 3):
        for n in (-4, 1):
            eq = _equation(cls.r1, cls.r2, cls.s1, z, 0, 0, m, n)
            for x in probes:
                for y in probes:
                    assert eq.ax(x) + eq.ay(y) + eq.constant != KernelVector()


@pytest.mark.parametrize("window", [0, 6])
def test_linear_part_is_decided_on_the_whole_table(monkeypatch, window):
    # a Z/2 functional that is 1 only at k = 8 (mod 16) does not kill Ax or
    # Ay, although a small window may hold no nonzero pulled-back entry
    spike = Functional(tuple((int(k == 8),) for k in range(16)), 2)
    spiked = ("type3/spike", lambda: spike, lambda rep, m, n: ())
    monkeypatch.setitem(certificate._FAMILIES, "(c)", spiked)
    cls = HomClass(3, s1=1)
    report = check_certificate(cls, window=window, mn=1)
    assert report.linear_killed is False
    linear = [f for f in report.witnesses_of_failure if f[2] in ("Ax", "Ay")]
    assert linear
    # every listed failure is a basis vector the functional does not kill
    _, data, _, _ = _family(cls, decide(cls))
    for m, n, name, k, l in linear:
        op = getattr(_equation(*data, m, n), name.lower())
        assert spike(op(unit(k, l))) != 0


def test_certificate_rejects_negative_windows():
    # a negative window checks no basis vector and no (m, n), so it proves nothing
    cls = HomClass(2, i=0, s1=0, s2=0)
    for window, mn in ((-1, 1), (1, -1), (-1, -1)):
        with pytest.raises(ValueError):
            check_certificate(cls, window=window, mn=mn)
    assert check_certificate(cls, window=0, mn=0).success


def test_functional_built_once_per_argument_of_a_sweep(monkeypatch):
    calls = []
    label, build, args_at = certificate._FAMILIES["(d)(i)"]

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setitem(certificate._FAMILIES, "(d)(i)", (label, counted, args_at))
    cls = HomClass(4, r1=0, r2=2, s1=1, s2=0)  # xi_count(n mod 2)
    assert check_certificate(cls, mn=4).success
    assert sorted(calls) == [(0,), (1,)]
    # the plans live for one sweep: a second sweep builds its own
    assert check_certificate(cls, mn=1).success
    assert sorted(calls[2:]) == [(0,), (1,)]


@pytest.mark.parametrize(
    "cls, mn, plans",
    [
        (HomClass(4, r1=0, r2=0, s1=3, s2=0), 39, 12),  # xi_row(3, n mod 12)
        (HomClass(4, r1=400, r2=0, s1=0, s2=0), 4, 18),  # xi_column(400, 0, m mod 800, n mod 2)
    ],
    ids=["(d)(ii)", "(d)(iii)"],
)
def test_one_functional_per_plan_key(monkeypatch, cls, mn, plans):
    # the sweep keys its plans on (arguments, n mod 2) and builds the
    # functional once per plan, the one it reads the period off included
    rep = decide(cls).representative
    branch = decide(rep).branch
    label, build, args_at = certificate._FAMILIES[branch]
    calls = []

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setitem(certificate._FAMILIES, branch, (label, counted, args_at))
    assert check_certificate(cls, mn=mn).success
    window = range(-mn, mn + 1)
    keys = {(args_at(rep, m, n), n % 2) for m in window for n in window}
    assert len(keys) == plans
    assert sorted(calls) == sorted(args for args, _ in keys)


# the arguments of each family as the builders take them, unreduced
_RAW_ARGS = {
    "(c)": lambda rep, m, n: (rep.s1, n, rep.s2),
    "(d)(i)": lambda rep, m, n: (n,),
    "(d)(ii)": lambda rep, m, n: (rep.s1, n),
    "(d)(iii)": lambda rep, m, n: (rep.r1, rep.r2, m, n),
}


@pytest.mark.parametrize(
    "cls, branch",
    [
        (HomClass(3, i=0, s1=3, s2=0), "(c)"),
        (HomClass(3, i=1, s1=-2, s2=1), "(c)"),
        (HomClass(4, r1=1, r2=-2, s1=3, s2=0), "(d)(i)"),
        (HomClass(4, r1=0, r2=0, s1=-3, s2=2), "(d)(ii)"),
        (HomClass(4, r1=3, r2=-4, s1=0, s2=0), "(d)(iii)"),
        (HomClass(4, r1=1, r2=2, s1=0, s2=0), "(d)(iii)"),
    ],
    ids=lambda x: x.describe() if isinstance(x, HomClass) else x,
)
def test_reduced_arguments_build_the_raw_tables(cls, branch):
    rep = decide(cls).representative
    assert decide(rep).branch == branch
    _, build, args_at = certificate._FAMILIES[branch]
    reduced = set()
    for m in range(-13, 14):
        for n in range(-13, 14):
            args = args_at(rep, m, n)
            assert build(*args) == build(*_RAW_ARGS[branch](rep, m, n)), (m, n)
            reduced.add(args)
    # every residue the tables read, and no more
    residues = {
        "(c)": 2 * abs(rep.s1),
        "(d)(i)": 2,
        "(d)(ii)": 4 * abs(rep.s1),
        "(d)(iii)": 4 * rep.r1,
    }
    assert len(reduced) == residues[branch]


def _no_sweep(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(certificate, "master_forms", no_sweep)
    monkeypatch.setattr(Functional, "pullback", no_sweep)


def test_sweep_budget_counts_points_and_period(monkeypatch):
    # 3 x 3 points of 40 + 2·lcm(2, pk)·pl entries each
    cls = HomClass(4, r1=1, r2=2, s1=0, s2=0)  # xi_column, period (2, 2)
    cost = 9 * (40 + 2 * 2 * 2)
    monkeypatch.setattr(certificate, "MAX_SWEEP_ENTRIES", cost)
    assert check_certificate(cls, mn=1).success
    monkeypatch.setattr(certificate, "MAX_SWEEP_ENTRIES", cost - 1)
    _no_sweep(monkeypatch)
    with pytest.raises(ValueError, match=f"sweep of {cost} table entries"):
        check_certificate(cls, mn=1)


@pytest.mark.parametrize(
    "cls, mn",
    [
        (HomClass(4, r1=1, r2=2, s1=0, s2=0), 1000),
        (HomClass(2, i=0, s1=0, s2=0), 48),
        (HomClass(3, i=0, s1=1000, s2=0), 4),  # period (4000, 1)
        (HomClass(4, r1=1000, r2=2, s1=0, s2=0), 4),  # period (2, 2000)
    ],
)
def test_sweep_budget_rejects_before_the_sweep(monkeypatch, cls, mn):
    _no_sweep(monkeypatch)
    with pytest.raises(ValueError, match=f"exceeds the budget of {MAX_SWEEP_ENTRIES}"):
        check_certificate(cls, mn=mn)


def test_no_table_over_half_the_sweep_budget(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(certificate, "Functional", no_table)
    for cls in (HomClass(3, i=0, s1=100_000, s2=0), HomClass(4, r1=10**9, r2=2, s1=0, s2=0)):
        with pytest.raises(ValueError, match="exceeds half the budget"):
            check_certificate(cls)


def test_no_pullback_over_half_the_sweep_budget(monkeypatch):
    # hand-built tables of one row pull back to lcm(2, 1) = 2 rows: one
    # entry more per row than a quarter of the budget passes half of it,
    # and is refused before a term is read or a row built
    over = Functional(((0,) * (MAX_SWEEP_ENTRIES // 4 + 1),), 2)
    at = Functional(((0,) * (MAX_SWEEP_ENTRIES // 4),), 2)

    class NoTerms:
        @property
        def terms(self):
            raise AssertionError("a row was built")

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(certificate, "Functional", no_table)
    with pytest.raises(ValueError, match="exceeds half the budget"):
        over.pullback(NoTerms())
    # at half the budget the rows are built
    with pytest.raises(AssertionError, match="a table was built"):
        at.pullback(ID)


@pytest.mark.parametrize("args", [["--type", "3", "--s1", "100000"],
                                  ["--type", "4", "--r1", "1", "--r2", "2", "--mn", "1000"]])
def test_cli_rejects_certificate_over_budget(capsys, monkeypatch, args):
    _no_sweep(monkeypatch)
    assert main(["certify", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"budget of {MAX_SWEEP_ENTRIES}" in err
