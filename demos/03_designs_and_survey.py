"""
Block designs: validation, closed-form inverse, and the survey harness
======================================================================
"""

import json

from mpinc import (
    build_design_incidence,
    lambda_s,
    m1_mpinv_closed_form,
    ms_mpinv_oracle,
    parse_design,
    penrose_check,
    pseudoinverse_oracle,
    survey_designs,
    validated_design,
)

# a design file is one block per line, 1-based points, optional
# "# t v k lambda" header on the first line
D = parse_design("samples/fano/fano.blk")
print(f"{D.name}: v={D.v}, b={D.b}, k={D.k}, declared {D.declared}")

# validation counts containing blocks for every t-subset, exhaustively
V = validated_design(D, 2)
print(f"is a 2-design: {V.is_validated}, lambda = {V.lam}")
print("derived replication numbers:",
      {s: lambda_s(2, D.v, D.k, V.lam, s) for s in (0, 1, 2)})

# the point-block incidence M_1 has a closed-form pseudoinverse:
# 1/lambda_1 on incident pairs, -(1/lambda_1)(k-1)/(v-k) elsewhere
X = m1_mpinv_closed_form(V)
print("\nM_1^+ entry values:", sorted(set(X.entries)))
A = build_design_incidence(V, 1).to_rat_matrix()
print("matches oracle:", X == pseudoinverse_oracle(A))

# for other s there is no general closed form; the oracle still works
for s in (0, 2):
    Ms = build_design_incidence(V, s).to_rat_matrix()
    Xs = ms_mpinv_oracle(V, s)
    print(f"M_{s}^+ ({Xs.rows} x {Xs.cols}) penrose:", penrose_check(Ms, Xs).all_ok)

# the survey groups M_s^+ entries by |S intersect B| across a collection
report = survey_designs([V], 2)
print("\nsurvey at s = 2:")
print(json.dumps(report.to_json_dict(), indent=2))
