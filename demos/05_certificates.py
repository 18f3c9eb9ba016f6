"""Certificates: the obstruction equation in the abelianised kernel and the
linear functionals that refute its solvability on finite windows.

Run as:  python3 demos/05_certificates.py
"""

from kleinbraid import (
    HomClass,
    KernelVector,
    check_certificate,
    equation_even_even,
    master_forms,
    xi_count,
)

print("== the obstruction equation ==")
# the equation for every even n, as affine forms in (m, n), evaluated at (1, 0)
forms = master_forms(r1=1, r2=2, s1=0, s2=0, i=0, j=0, parity=0)
a1, a2, b1, b2, g = forms.derived_at(1, 0)
eq = forms.equation_at(1, 0)
print(f"derived exponents at (m,n)=(1,0): a1={a1} a2={a2} b1={b1} b2={b2} g={g}")
print(f"constant part: {eq.constant}")
e = KernelVector.unit(0, 0)
print(f"Ax moves the origin basis vector to {eq.ax(e)}")
print(f"Ay moves it to {eq.ay(e)}")

print()
print("== a scalar collapse ==")
print("applying the counting functional to the even-even constant always")
print("yields -2*r2*s1, so r2*s1 != 0 rules out any solution; it is read")
print("off the constant's atoms, without building the vector:")
for (r1, r2, s1) in [(1, 2, 1), (0, -3, 2), (2, 1, -1)]:
    atoms = equation_even_even(r1, r2, s1, 0, m=1, n=1).atoms
    print(f"   r1={r1} r2={r2} s1={s1}:  functional value {xi_count(1).on_atoms(atoms)}")

print()
print("== bounded certificates per family ==")
for cls in [
    HomClass(1, i=0, s1=2, s2=0),
    HomClass(2, i=0, s1=-1, s2=1),
    HomClass(3, i=0, s1=1, s2=0),
    HomClass(4, r1=1, r2=2, s1=1, s2=1),
    HomClass(4, r1=2, r2=0, s1=0, s2=0),
    HomClass(4, r1=0, r2=0, s1=1, s2=0),
]:
    report = check_certificate(cls, window=5, mn=3)
    print(f"{cls.describe():40s} {report.family:24s} success={report.success}")
print("(each run sweeps every (m,n) in the parameter window and decides the linear")
print(" part for every basis vector from whole tables; the coordinate window only")
print(" bounds which failures would be listed per point)")
