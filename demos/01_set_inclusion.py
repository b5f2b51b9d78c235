"""
Inclusion matrices of subsets and their exact Moore-Penrose inverses
====================================================================

M(n; r, c) records which r-subsets of {1..n} sit inside which c-subsets.
Its pseudoinverse has a closed form: the entry for a pair (C, R) depends
only on i = |R intersect C|, so the whole matrix compresses to r+1
rational numbers.
"""

from mpinc import (
    all_subsets,
    build_incidence,
    class_matrix,
    expand_class_matrix,
    first_difference,
    penrose_check,
    pseudoinverse_oracle,
)

# sets are the q = 1 member of the inclusion family
n, q, r, c = 5, 1, 1, 2

print(f"M({n}; {r}, {c}): rows are {r}-subsets, columns are {c}-subsets")
M = build_incidence(n, q, r, c)
print(f"shape {M.rows} x {M.cols}, {M.nnz()} ones")
for i, R in enumerate(all_subsets(n, r)):
    marks = "".join(".#"[M.at(i, j)] for j in range(M.cols))
    print(f"  {set(R)}  {marks}")

# the closed form: one rational per intersection size
cm = class_matrix(n, q, r, c)
print("\npseudoinverse entry by intersection size i:")
for i in range(r, -1, -1):
    print(f"  i={i}: {cm.values[i]}")

X = expand_class_matrix(cm)
A = M.to_rat_matrix()

print("\nthe four Penrose conditions, checked with exact arithmetic:")
print(" ", penrose_check(A, X))

# cross-check against a formula-free oracle (full-rank factorization)
oracle = pseudoinverse_oracle(A)
print("matches the oracle entrywise:", first_difference(X, oracle) is None)

# one-sided identities depend on where n sits relative to r+c
print(f"\nn = {n}, r+c = {r + c}")
print("M M* = I (holds since n >= r+c):", (A @ X).is_identity())
print("M* M = I (needs n <= r+c):     ", (X @ A).is_identity())
