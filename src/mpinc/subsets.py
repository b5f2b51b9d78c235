"""Set-family names for the q = 1 member of the inclusion family in
mpinc.subspaces. They are kept for perfbench/worker.py's traced replay, which
imports them by module path; new code calls mpinc.subspaces with q = 1.
"""

from .subspaces import build_incidence, class_matrix

# Kept for perfbench/worker.py's traced replay, which calls it by module path.
from .subspaces import expand_class_matrix  # noqa: F401


def build_set_incidence(n, r, c):
    # Kept for perfbench/worker.py's traced replay, which calls it by module path.
    return build_incidence(n, 1, r, c)


def set_class_matrix(n, r, c):
    # Kept for perfbench/worker.py's traced replay, which calls it by module path.
    return class_matrix(n, 1, r, c)
