"""The workloads: which mpinc calls each round makes, and their inputs.

A round is one fixed list of operations. Every run repeats whole rounds, so
the share of failed operations is the same in every run whatever the seed
or the run length. The seed only relabels the points of the survey designs.
"""

import random
from dataclasses import dataclass
from pathlib import Path

# PG(3,2): points are the 15 nonzero vectors of GF(2)^4 written as 4-bit ints.
_POINTS = range(1, 16)
SURVEY_COPIES = 2
# name -> (t, v, k, lambda) and the survey strengths run on it
SURVEY_DESIGNS = {
    "pg32-lines": ((2, 15, 3, 1), (1, 2, 3)),
    "pg32-planes": ((2, 15, 7, 3), (2,)),
}


@dataclass(frozen=True)
class Op:
    """One call into mpinc, and what its output is checked against.

    verb is verify, classes (mpinv class values), expand (mpinv --expand),
    build, survey or refuse (a request mpinc must turn down with exit 2).
    q = 1 marks the set family.
    """

    verb: str
    argv: tuple
    n: int = 0
    q: int = 1
    r: int = 0
    c: int = 0
    fmt: str = "json"
    design: str = None
    s: int = 0

    @property
    def family(self):
        return "set" if self.q == 1 else "subspace"

    @property
    def expected_exit(self):
        return 2 if self.verb == "refuse" else 0


def _params(n, q, r, c):
    head = ["--n", str(n)] + ([] if q == 1 else ["--q", str(q)])
    return head + ["--r", str(r), "--c", str(c)]


def verify(n, q, r, c):
    family = "set" if q == 1 else "subspace"
    return Op("verify", ("verify", family, *_params(n, q, r, c)), n, q, r, c)


def classes(n, q, r, c):
    family = "set" if q == 1 else "subspace"
    return Op("classes", ("mpinv", family, *_params(n, q, r, c)), n, q, r, c)


def expand(n, q, r, c, fmt, labels=False):
    family = "set" if q == 1 else "subspace"
    argv = ("mpinv", family, *_params(n, q, r, c), "--expand", "--format", fmt)
    return Op("expand", argv + (("--with-labels",) if labels else ()), n, q, r, c, fmt)


def build(n, q, r, c):
    family = "set" if q == 1 else "subspace"
    argv = ("build", family, *_params(n, q, r, c), "--format", "mtx")
    return Op("build", argv, n, q, r, c, "mtx")


def survey(design, s):
    return Op("survey", ("survey", "--dir", design, "--s", str(s)), design=design, s=s)


def _triples(n_max):
    return [(n, r, c) for n in range(n_max + 1)
            for r in range(n + 1) for c in range(r, n + 1)]


def _sweep():
    ops = [verify(n, 1, r, c) for n, r, c in _triples(7)]
    for q, n_max in ((2, 4), (3, 3), (4, 3), (5, 3)):
        ops += [verify(n, q, r, c) for n, r, c in _triples(n_max)]
        ops += [classes(n_max, q, r, c) for r in range(n_max + 1) for c in range(r, n_max + 1)]
    ops += [classes(8, 1, r, c) for r in range(9) for c in range(r, 9)]
    for design, (_, strengths) in SURVEY_DESIGNS.items():
        ops += [survey(design, s) for s in strengths]
    # GF(6) does not exist and --mod 0 is no modulus: both must exit 2.
    ops.append(Op("refuse", ("mpinv", "subspace", "--n", "3", "--q", "6",
                             "--r", "1", "--c", "2")))
    ops.append(Op("refuse", ("mpinv", "set", "--n", "4", "--r", "1", "--c", "2",
                             "--mod", "0")))
    return ops


OPS = {
    "sweep": _sweep(),
    # a fresh `python -m mpinc` per command: start-up, enumeration, build,
    # expand and formats, with neither oracle nor certificate
    "emit": [
        expand(6, 2, 1, 2, "csv"),
        expand(5, 2, 1, 3, "csv"),
        build(4, 4, 1, 2),
        build(5, 2, 2, 3),
        expand(4, 3, 1, 2, "json", labels=True),
        expand(12, 1, 4, 6, "csv"),
        expand(10, 1, 3, 5, "json", labels=True),
        build(14, 1, 4, 6),
        build(16, 1, 3, 5),
    ],
}

IN_PROCESS = {"sweep": True, "emit": False}


def pg32_blocks(k):
    """Lines (k = 3) or planes (k = 7) of PG(3,2) as point sets."""
    if k == 3:
        return sorted({tuple(sorted((a, b, a ^ b))) for a in _POINTS for b in _POINTS if a < b})
    return [tuple(x for x in _POINTS if bin(x & h).count("1") % 2 == 0) for h in _POINTS]


def write_designs(workdir, seed):
    """SURVEY_COPIES seeded point-relabellings of each survey design, one
    directory per design; mpinc sees only these files."""
    for design, ((t, v, k, lam), _) in SURVEY_DESIGNS.items():
        folder = Path(workdir) / design
        folder.mkdir(parents=True, exist_ok=True)
        blocks = pg32_blocks(k)
        for copy in range(SURVEY_COPIES):
            perm = list(range(1, v + 1))
            random.Random(f"{seed}:{design}:{copy}").shuffle(perm)
            relabelled = sorted(tuple(sorted(perm[x - 1] for x in B)) for B in blocks)
            lines = [f"# {t} {v} {k} {lam}"] + [" ".join(map(str, B)) for B in relabelled]
            (folder / f"copy{copy}.blk").write_text("\n".join(lines) + "\n", encoding="ascii")
