"""t-designs: file ingestion, validation, incidence matrices M_s, the
closed-form inverse of M_1, and the structure survey across designs.

Design file format (bit-exact):
  - ASCII; a line ends at \n, \r\n or \r and nowhere else (universal
    newlines), and lines are numbered from 1 in that sense
  - an integer is an optional - and ASCII digits, nothing more: not the
    +1, 2_3 or 1_000 that int() also reads
  - optional first line "# t v k lambda", four integers declared as a
    comment, with v >= 1 and k >= 1; a first # line of four fields that are
    not all integers is a plain comment
  - every other non-comment, non-blank line is one block: strictly
    increasing 1-based integer point indices separated by whitespace
    (space, \t, \v, \f or \x1c-\x1f)
  - v is the maximum point index unless the header declares it
  - a malformed file is refused naming its first faulty line

Blocks may repeat ("collection", not "set"); M_s then has duplicate columns
and every result is still checked, not assumed.
"""

import os
import re
import warnings
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations

from .combinat import all_subsets, binomial
from .errors import DesignParseError, ParameterError
from .linalg import RatMatrix, penrose_check, pseudoinverse_oracle, scaled_ints
from .subspaces import incidence, inclusion_support, meet_sizes

# a point or header field; int() alone would also read +1 and 2_3
_INTEGER = re.compile("-?[0-9]+").fullmatch


class Design(namedtuple(
    "Design", "v blocks k name declared t lam", defaults=("design", None, None, None)
)):
    """Point count v and a block collection.

    declared carries an optional "# t v k lambda" file header verbatim; t and
    lam stay None until the design is validated by exhaustive counting.
    """

    __slots__ = ()

    @property
    def b(self):
        return len(self.blocks)

    @property
    def is_validated(self):
        return self.t is not None and self.lam is not None


def parse_design(path):
    """Read the design file at path into an unvalidated Design named after
    the file.

    One pass over the ASCII lines checks each block as it is read, so the
    first faulty line is the one named. Header parameters, when present, are
    kept in .declared; without a header v is the largest point seen. t and
    lam stay unset until validated_design() has counted them.
    """
    label = os.path.basename(path)

    def malformed(message, lineno):
        return DesignParseError(message, lineno, label)

    declared = None
    blocks = []
    k = None
    v = 0
    lineno = 1
    # latin-1 reads one char per byte; universal newlines end lines at \n, \r\n, \r
    with open(path, encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(c for c in line if not c.isascii())
                raise malformed(f"byte {ord(byte):#x} is not ASCII", lineno)
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if lineno == 1 and len(fields) == 4 and all(map(_INTEGER, fields)):
                    declared = tuple(map(int, fields))
                    v = declared[1]
                    for name, x in zip("vk", declared[1:3]):
                        if x < 1:
                            raise malformed(f"declared {name} = {x} must be at least 1", lineno)
                continue
            fields = line.split()
            if not all(map(_INTEGER, fields)):
                raise malformed(f"non-integer point in block {line!r}", lineno)
            points = tuple(map(int, fields))
            if min(points) < 1:
                raise malformed(f"point {min(points)} is out of range; points are 1-based", lineno)
            if any(x >= y for x, y in zip(points, points[1:])):
                raise malformed(f"block {points} is not strictly increasing", lineno)
            if k is None:
                k = len(points)
            elif len(points) != k:
                raise malformed(f"block size {len(points)} differs from earlier size {k}", lineno)
            if declared is not None:
                if points[-1] > v:
                    raise malformed(f"point {points[-1]} exceeds declared v = {v}", lineno)
                if k != declared[2]:
                    raise malformed(f"declared k = {declared[2]} but blocks have size {k}", lineno)
            blocks.append(points)
            v = max(v, points[-1])

    if not blocks:
        raise malformed("no blocks found; a design needs b >= 1", lineno)
    return Design(v=v, blocks=tuple(blocks), k=k, name=label, declared=declared)


def validated_design(D, t):
    """D with (t, lam) attached once every t-subset of [v] has been counted
    and lies in the same number lam of blocks.

    ParameterError otherwise, naming the lexicographically first t-subsets
    of the two smallest counts. When the file header declared a lambda for
    this t, the declared value is cross-checked against the count.
    """
    if not (1 <= t <= D.k):
        raise ParameterError(f"{D.name}: need 1 <= t <= k = {D.k}, got t={t}")
    subsets = tuple(combinations(range(1, D.v + 1), t))
    distinct = {}
    for T, holders in zip(subsets, inclusion_support(subsets, D.blocks)):
        distinct.setdefault(len(holders), T)
    if len(distinct) > 1:
        (c1, T1), (c2, T2) = sorted(distinct.items())[:2]
        raise ParameterError(
            f"{D.name}: not a {t}-design; {T1} lies in {c1} blocks "
            f"but {T2} lies in {c2}"
        )
    (lam,) = distinct
    if D.declared is not None:
        t_decl, _, _, lam_decl = D.declared
        if t_decl == t and lam_decl != lam:
            raise ParameterError(
                f"{D.name}: header declares lambda = {lam_decl} but counting "
                f"gives {lam}"
            )
    return D._replace(t=t, lam=lam)


def lambda_s(t, v, k, lam, s):
    """lambda_s = lam * C(v-s, t-s) / C(k-s, t-s): every t-(v,k,lam) design is
    an s-(v,k,lambda_s) design for 0 <= s <= t. ParameterError unless
    0 <= s <= t <= k <= v, as in every design.

    Non-integral output is a parameter inconsistency and raises a warning,
    but the exact rational is still returned.
    """
    if not (0 <= s <= t):
        raise ParameterError(f"need 0 <= s <= t, got s={s}, t={t}")
    if not (t <= k <= v):
        raise ParameterError(f"need t <= k <= v, got t={t}, k={k}, v={v}")
    value = Fraction(lam * binomial(v - s, t - s), binomial(k - s, t - s))
    if value.denominator != 1:
        warnings.warn(
            f"lambda_{s} = {value} is not an integer; parameters (t={t}, v={v}, "
            f"k={k}, lambda={lam}) are inconsistent",
            stacklevel=2,
        )
    return value


def build_design_incidence(D, s):
    """The C(v,s) x b 0/1 matrix: rows = s-subsets colex, columns = blocks in
    file order; entry 1 iff the s-subset lies inside the block.

    Row sums equal lambda_s whenever s <= t.
    """
    if not (0 <= s <= D.k):
        raise ParameterError(f"need 0 <= s <= k = {D.k}, got s={s}")
    return incidence(1, all_subsets(D.v, s), D.blocks)


def has_closed_form(D, s):
    """Whether M_s of D has the closed-form inverse of m1_mpinv_closed_form:
    s = 1 and D a validated design with t >= 2 and v > k (at v = k every
    block is complete and the form degenerates)."""
    return s == 1 and D.is_validated and D.t >= 2 and D.v > D.k


def m1_mpinv_closed_form(D):
    """The b x v closed-form inverse of M_1 for a validated design with
    t >= 2 and v > k.

    Entry (B, u) is 1/lambda_1 when u is in B, else -(1/lambda_1)(k-1)/(v-k):
    two class values indexed by |B intersect {u}|.
    """
    if not has_closed_form(D, 1):
        raise ParameterError("closed form needs a validated design with t >= 2 and v > k")
    inc = 1 / lambda_s(D.t, D.v, D.k, D.lam, 1)
    d, values = scaled_ints((-inc * Fraction(D.k - 1, D.v - D.k), inc))
    rows = [list(map(values.__getitem__, sizes))
            for sizes in meet_sizes(D.blocks, all_subsets(D.v, 1))]
    return RatMatrix(D.b, D.v, d, rows)


def ms_mpinv_oracle(D, s):
    """The b x C(v,s) Moore-Penrose inverse of M_s via the exact oracle."""
    return pseudoinverse_oracle(build_design_incidence(D, s).to_rat_matrix())


class SurveyReport(namedtuple(
    "SurveyReport", "s parameters design_names classes penrose cross_design exceptions"
)):
    """Observed entry classes of M_s^+ across a collection of designs.

    parameters is (t, v, k, lam); classes[d] is a dict mapping intersection
    size i -> sorted tuple of distinct entries for design d; penrose[d] is
    its PenroseReport; the dict cross_design maps i -> "agree"/"disagree"
    across designs; exceptions lists (design name, (block index, subset),
    entry) for entries deviating from their class's modal value.
    Observations only: no uniqueness claim is asserted.
    """

    __slots__ = ()

    def to_json_dict(self):
        t, v, k, lam = self.parameters
        designs = []
        for name, cls, rep in zip(self.design_names, self.classes, self.penrose):
            designs.append(
                {
                    "id": name,
                    "classes": {
                        f"i={i}": [str(x) for x in cls[i]]
                        for i in sorted(cls, reverse=True)
                    },
                    "constant_classes": all(len(v_) == 1 for v_ in cls.values()),
                    "penrose": [rep.cond1, rep.cond2, rep.cond3, rep.cond4],
                }
            )
        return {
            "s": self.s,
            "parameters": {"t": t, "v": v, "k": k, "lambda": lam},
            "designs": designs,
            "cross_design": {
                f"i={i}": verdict
                for i, verdict in sorted(self.cross_design.items(), reverse=True)
            },
            "exceptions": [
                {
                    "design": name,
                    "block": block_index,
                    "subset": list(subset),
                    "entry": str(entry),
                }
                for name, block_index, subset, entry in self.exceptions
            ],
        }


def entry_classes(name, blocks, subsets, X):
    """Group the entries of X (blocks x subsets) by intersection size.

    Returns (classes, exceptions): classes maps i -> sorted tuple of distinct
    entries; exceptions lists (name, block index, subset, entry) for entries
    deviating from their class's modal value (ties break toward the smaller
    rational), empty when every class is constant.

    The entries are grouped on the int rows of X.den * X: since X.den > 0
    they sort as the rationals do, and one Fraction is built per distinct
    value.
    """
    rows = X.nums
    sizes = list(meet_sizes(blocks, subsets))
    counts = Counter()
    for row, row_sizes in zip(rows, sizes):
        counts.update(zip(row_sizes, row))
    by_class = {}
    for (i, v), k in counts.items():
        by_class.setdefault(i, {})[v] = k
    frac = {v: Fraction(v, X.den) for v in {v for _, v in counts}}
    classes = {}
    exceptions = []
    for i, values in sorted(by_class.items()):
        ordered = sorted(values)
        classes[i] = tuple(map(frac.__getitem__, ordered))
        if len(values) > 1:
            mode = max(ordered, key=values.__getitem__)
            exceptions.extend(
                (name, bi, subsets[si], frac[v])
                for bi, (row, row_sizes) in enumerate(zip(rows, sizes))
                for si, (v, size) in enumerate(zip(row, row_sizes))
                if size == i and v != mode
            )
    return classes, exceptions


def _survey_one(D, s):
    M = build_design_incidence(D, s)
    A = M.to_rat_matrix()
    X = pseudoinverse_oracle(A)
    classes, exceptions = entry_classes(D.name, D.blocks, M.row_labels, X)
    return classes, penrose_check(A, X), exceptions


def survey_designs(designs, s):
    """Compute M_s^+ for each design and report entry classes by |R intersect B|.

    All designs must be validated with identical (t, v, k, lam);
    build_design_incidence refuses an s outside 0 <= s <= k.
    """
    designs = list(designs)
    if not designs:
        raise ParameterError("survey needs at least one design")
    for D in designs:
        if not D.is_validated:
            raise ParameterError(f"{D.name}: design is not validated")
    params = {(D.t, D.v, D.k, D.lam) for D in designs}
    if len(params) > 1:
        raise ParameterError(f"designs have mixed parameters: {sorted(params)}")
    (t, v, k, lam) = params.pop()

    results = [_survey_one(D, s) for D in designs]

    classes = tuple(r[0] for r in results)
    penrose = tuple(r[1] for r in results)
    exceptions = tuple(e for r in results for e in r[2])
    all_i = sorted({i for cls in classes for i in cls})
    cross = {}
    for i in all_i:
        observed = {cls.get(i) for cls in classes}
        cross[i] = "agree" if len(observed) == 1 else "disagree"
    return SurveyReport(
        s=s,
        parameters=(t, v, k, lam),
        design_names=tuple(D.name for D in designs),
        classes=classes,
        penrose=penrose,
        cross_design=cross,
        exceptions=exceptions,
    )
