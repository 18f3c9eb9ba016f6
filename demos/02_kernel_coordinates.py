"""The abelianised kernel: basis words, the coset-scan projection, induced
operators, and the word families with their projections.

Run as:  python3 demos/02_kernel_coordinates.py
"""

from kleinbraid import (
    KleinElt,
    c_ab,
    expand,
    project,
    q_identity_check,
    rho_ab,
    theta_ab,
    tilde_j,
    tilde_o,
    tilde_q,
    word_j,
    word_o,
    word_q,
)

print("== basis words and coordinates ==")
print(f"the (k,l) basis word for (1,0) is: {expand(1, 0)}")
print(f"project maps it to the unit vector: {project(expand(1, 0))}")
w = expand(2, -1) * expand(0, 0) ** -3 * expand(2, -1)
print(f"a product of basis words projects additively: {project(w)}")

print()
print("== the induced operators ==")
v = project(expand(1, 2))
print(f"start from {v}")
print(f"theta_ab(1,0) moves it to {theta_ab(KleinElt(1, 0), v)}")
print(f"rho_ab flips it to {rho_ab(v)}")
print(f"c_ab(2,1) shifts it to {c_ab(2, 1, v)}")

print()
print("== word families with projections written as progression boxes ==")
print(f"O(2,-1) = {word_o(2, -1)}")
print(f"  projects to {project(word_o(2, -1))}")
print(f"  progression boxes {tilde_o(2, -1)}")
print(f"J(1,2) = {word_j(1, 2)} -> {tilde_j(1, 2)}")
print(f"Q(2,1) = {word_q(2, 1)} -> {tilde_q(2, 1)}")

print()
print("== an exact (non-abelianised) identity ==")
print("each Q word equals an O word times a product of basis conjugates;")
checks = [(k, l) for k in (-3, -1, 1, 2) for l in (-2, 0, 2)]
print(f"verified exactly for {checks}: {all(q_identity_check(k, l) for k, l in checks)}")
