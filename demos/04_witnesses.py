"""Witness pairs: explicit braids certifying that a class fails the
Borsuk-Ulam property, checked against the three-condition criterion, plus
the bounded exhaustive search.

Run as:  python3 demos/04_witnesses.py
"""

from kleinbraid import (
    HomClass,
    SearchBounds,
    build_witness,
    decide,
    lsigma,
    search_witness,
)

print("== constructed witnesses ==")
for cls in [
    HomClass(4, r1=0, r2=2, s1=0, s2=0),
    HomClass(4, r1=3, r2=1, s1=0, s2=0),
    HomClass(3, i=0, s1=0, s2=1),
    HomClass(1, i=0, s1=1, s2=1),
    HomClass(1, i=0, s1=1, s2=3),  # reached through a central shift
    HomClass(1, i=1, s1=0, s2=1),  # the i=0 partner's pair, carried over by H
]:
    report = build_witness(cls)
    print(f"{cls.describe():38s} [{report.source}]")
    print(f"   a = {report.a}")
    print(f"   b = {report.b}")

print()
print("== the defining relation, checked exactly ==")
report = build_witness(HomClass(4, r1=3, r2=1, s1=0, s2=0))
a, b = report.a, report.b
print(f"a*b*lsigma(a) = {a * b * lsigma(a)}")
print(f"          b   = {b}")

print()
print("== bounded exhaustive search ==")
bounds = SearchBounds(word_len=4, coord=2)
for cls in [
    HomClass(4, r1=1, r2=1, s1=0, s2=0),   # fails the property: pair exists
    HomClass(2, i=0, s1=0, s2=0),          # has the property: exhaustive no
    HomClass(1, i=1, s1=0, s2=1),          # built above via H; search finds a shorter pair
]:
    res = search_witness(cls, bounds)
    verdict = "BU" if decide(cls).bu else "no BU"
    if res.found:
        print(f"{cls.describe():38s} ({verdict}): found a = {res.report.a}, "
              f"b = {res.report.b} after {res.examined} candidates")
    else:
        print(f"{cls.describe():38s} ({verdict}): nothing in bounds "
              f"({res.examined} candidates examined)")
