"""
Reducing the closed form mod p
==============================

Over GF(p) a pseudoinverse need not exist. When p divides none of the
binomials appearing in the closed form (and not q, in the subspace case),
the rational solution reduces entrywise to a matrix that still satisfies
all four Penrose conditions over GF(p).
"""

from mpinc import (
    build_incidence,
    char_p_obstruction,
    class_matrix,
    expand_class_matrix,
    mpinv_class_values,
    penrose_check_mod_p,
    rat_matrix_mod_p,
)

# the set family is q = 1
n, q, r, c = 4, 1, 1, 2
print(f"closed-form classes for M({n}; {r}, {c}):", mpinv_class_values(n, q, r, c))

for p in (2, 3, 5, 7):
    obstruction = char_p_obstruction(n, q, r, c, p)
    ok = obstruction is None
    note = "" if ok else f"  (p divides {obstruction})"
    print(f"p = {p}: admissible = {ok}{note}")

# reduce and re-check the Penrose conditions in the admissible case
p = 5
A = build_incidence(n, q, r, c).to_rat_matrix()
X = expand_class_matrix(class_matrix(n, q, r, c))
Xp = rat_matrix_mod_p(X, p)
print(f"\nmod {p}, the class values become",
      sorted(set(int(x) for x in Xp.entries)))
print("penrose over GF(5):", penrose_check_mod_p(A, Xp, p))

# p = 3 is genuinely obstructed, not just unproven: 1/3 has no image mod 3
from mpinc import NotReducibleError

try:
    rat_matrix_mod_p(X, 3)
except NotReducibleError as e:
    print("reducing mod 3 fails:", e)
