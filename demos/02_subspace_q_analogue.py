"""
The q-analogue: inclusion of subspaces over a finite field
==========================================================

Replace subsets of {1..n} by subspaces of GF(q)^n and binomials by Gaussian
binomials. M(n, q; r, c) records which r-dimensional subspaces sit inside
which c-dimensional ones, and its pseudoinverse is again constant on
intersection classes i = dim(R intersect C).
"""

from mpinc import (
    build_incidence,
    class_matrix,
    count_contained_with_intersection,
    count_containing_with_intersection,
    enumerate_subspaces,
    expand_class_matrix,
    gaussian_binomial,
    intersection_dim,
    penrose_check,
    pseudoinverse_oracle,
    render_element,
)

n, q, r, c = 3, 2, 1, 2

print(f"subspaces of GF({q})^{n}: canonical reduced-row-echelon bases")
lines = enumerate_subspaces(n, q, r)
print(f"[{n} choose {r}]_{q} = {gaussian_binomial(n, r, q)} lines:")
for L in lines:
    vecs = [
        "(" + ",".join(render_element(x, L.field) for x in L.basis.row(i)) + ")"
        for i in range(L.dim)
    ]
    print("  span", " ".join(vecs), " pivots", L.pivots)

M = build_incidence(n, q, r, c)
print(f"\nM({n},{q}; {r},{c}) is {M.rows} x {M.cols} with row sums {M.row_sums()[0]}")
# 7 points on 7 lines, 3 points each: the Fano plane

cm = class_matrix(n, q, r, c)
print("pseudoinverse classes:", {f"i={i}": v for i, v in enumerate(cm.values)})

A = M.to_rat_matrix()
X = expand_class_matrix(cm)
print("penrose:", penrose_check(A, X))
print("equals oracle:", X == pseudoinverse_oracle(A))
print("n = r+c here, so both MM* and M*M are identities:",
      (A @ X).is_identity() and (X @ A).is_identity())

# the counting functions behind the closed-form proof
print("\nplanes of GF(2)^4 containing a fixed line, split by how they")
print("meet a second, disjoint line:")
for i in (0, 1):
    cnt = count_containing_with_intersection(4, 2, 1, 2, 0, i)
    print(f"  meeting it in dimension {i}: {cnt}")

print("lines inside a fixed plane of GF(2)^3, split by how they meet")
print("another plane (the two planes share a line):")
for i in (0, 1):
    cnt = count_contained_with_intersection(3, 2, 2, 1, 1, i)
    print(f"  meeting it in dimension {i}: {cnt}")

# spot check one of those numbers by brute force
planes = enumerate_subspaces(4, 2, 2)
L1 = enumerate_subspaces(4, 2, 1)[0]
disjoint = next(L for L in enumerate_subspaces(4, 2, 1) if intersection_dim(L1, L) == 0)
brute = sum(
    1 for P in planes
    if intersection_dim(L1, P) == 1 and intersection_dim(disjoint, P) == 0
)
print("brute-force recount of the first number:", brute)
