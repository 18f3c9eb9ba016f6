"""Shared hypothesis settings, and strategies for braids and operator expressions.

An expression is a nested tuple: a leaf ``("c", p, q)``, ``("theta", m,
n)``, ``("rho",)`` or ``("id",)``, or ``(op, left, right)`` with op one of
``+``, ``-``, ``@``.  ``build`` turns one into a KernelOperator; the test
modules that keep a reference model of the operators evaluate the same
tuples their own way.  ``words`` draws a word from up to five runs with
exponents in [-3, 3], ``twists`` a Klein-bottle element with coordinates in
[-4, 4], and ``braids`` a braid made of one of each.  ``basis_factors``
draws up to five factors (k, l, ±1) with k, l in [-5, 5], and
``kernel_products`` a word of ker gmap made of one to four basis words
expand(k, l)^±1 with k, l in [-4, 4].
"""

from hypothesis import settings
from hypothesis import strategies as st

from kleinbraid.braid import BraidElt
from kleinbraid.kernel import ID, RHO, c_operator, expand, theta_operator
from kleinbraid.kleinpi import KleinElt
from kleinbraid.words import ONE, Word

# derandomized, so that the suite runs the same examples every time
PROFILE = settings(deadline=None, database=None, derandomize=True)


def build(expr):
    kind = expr[0]
    if kind == "+":
        return build(expr[1]) + build(expr[2])
    if kind == "-":
        return build(expr[1]) - build(expr[2])
    if kind == "@":
        return build(expr[1]) @ build(expr[2])
    if kind == "id":
        return ID
    if kind == "rho":
        return RHO
    if kind == "c":
        return c_operator(expr[1], expr[2])
    return theta_operator(expr[1], expr[2])


small = st.integers(-4, 4)
leaves = st.one_of(
    st.tuples(st.just("c"), small, small),
    st.tuples(st.just("theta"), small, small),
    st.just(("rho",)),
    st.just(("id",)),
)
exprs = st.recursive(
    leaves,
    lambda children: st.tuples(st.sampled_from(["+", "-", "@"]), children, children),
    max_leaves=6,
)


runs = st.lists(st.tuples(st.sampled_from("uv"), st.integers(-3, 3)), max_size=5)
words = runs.map(lambda rs: Word(tuple(rs)))
twists = st.builds(KleinElt, small, small)
braids = st.builds(BraidElt, words, twists)


def basis_product(factors):
    """The product of expand(k, l)^s over the factors (k, l, s), in order."""
    w = ONE
    for k, l, s in factors:
        w = w * expand(k, l) ** s
    return w


signs = st.sampled_from((1, -1))
basis_factors = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5), signs), max_size=5)
kernel_products = st.lists(st.tuples(small, small, signs), min_size=1, max_size=4).map(
    basis_product
)
