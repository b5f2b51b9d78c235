"""t-designs: file ingestion, validation, incidence matrices M_s, the
closed-form inverse of M_1, and the structure survey across designs.

Design file format (bit-exact):
  - optional first line "# t v k lambda", four integers declared as a comment
  - every other non-comment, non-blank line is one block: space-separated,
    strictly increasing 1-based point indices
  - v is the maximum point index unless the header declares it

Blocks may repeat ("collection", not "set"); M_s then has duplicate columns
and every result is still checked, not assumed.
"""

import os
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

from .combinat import all_subsets, binomial
from .errors import DesignParseError, ParameterError
from .linalg import (
    IncidenceMatrix,
    RatMatrix,
    penrose_check,
    pseudoinverse_oracle,
)
from .subspaces import inclusion_support, meet_sizes


@dataclass(frozen=True)
class Design:
    """Point count v and a block collection.

    declared carries an optional "# t v k lambda" file header verbatim; t and
    lam stay None until the design is validated by exhaustive counting.
    """

    v: int
    blocks: tuple
    k: int
    name: str = "design"
    declared: tuple = None
    t: int = None
    lam: int = None

    @property
    def b(self):
        return len(self.blocks)

    @property
    def is_validated(self):
        return self.t is not None and self.lam is not None


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of validate_design: lam when valid, a witness pair otherwise.

    The witness is ((T1, count1), (T2, count2)) with count1 != count2.
    """

    valid: bool
    t: int
    v: int
    k: int
    lam: int = None
    witness: tuple = None


def parse_design(source, name=None):
    """Read a design file (path, or file-like object) into an unvalidated Design.

    Header parameters, when present, are kept in .declared and v/k are
    cross-checked; without a header v is inferred as the largest point seen.
    t and lam stay unset until validated_design() has counted them.
    """
    if hasattr(source, "read"):
        text = source.read()
        label = name or getattr(source, "name", "design")
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
        label = name or os.path.basename(str(source))

    declared = None
    blocks = []
    block_lines = []
    k = None
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1:
                fields = line[1:].split()
                if len(fields) == 4:
                    try:
                        declared = tuple(int(x) for x in fields)
                    except ValueError:
                        declared = None
            continue
        try:
            points = tuple(int(x) for x in line.split())
        except ValueError:
            raise DesignParseError(f"non-integer point in block {line!r}", line=lineno)
        if not points:
            continue
        prev = 0
        for x in points:
            if x <= prev:
                raise DesignParseError(
                    f"block {points} is not strictly increasing", line=lineno
                )
            prev = x
        if k is None:
            k = len(points)
        elif len(points) != k:
            raise DesignParseError(
                f"block size {len(points)} differs from earlier size {k}", line=lineno
            )
        blocks.append(points)
        block_lines.append(lineno)

    if not blocks:
        raise DesignParseError("no blocks found; a design needs b >= 1", line=len(lines) or 1)

    max_point = max(max(b) for b in blocks)
    if declared is not None:
        t_decl, v_decl, k_decl, lam_decl = declared
        if max_point > v_decl:
            bad, where = next(
                (b, ln) for b, ln in zip(blocks, block_lines) if max(b) > v_decl
            )
            raise DesignParseError(
                f"point {max(bad)} exceeds declared v = {v_decl}", line=where
            )
        if k_decl != k:
            raise DesignParseError(
                f"declared k = {k_decl} but blocks have size {k}", line=block_lines[0]
            )
        return Design(v=v_decl, blocks=tuple(blocks), k=k, name=label,
                      declared=declared)
    return Design(v=max_point, blocks=tuple(blocks), k=k, name=label)


def validate_design(D, t):
    """Exhaustively count containing blocks for every t-subset of [v].

    Returns ValidationResult with lam when the count is constant, otherwise
    valid=False and a witness pair of t-subsets with different counts.
    """
    if not (1 <= t <= D.k):
        raise ParameterError(f"{D.name}: need 1 <= t <= k = {D.k}, got t={t}")
    subsets = tuple(combinations(range(1, D.v + 1), t))
    distinct = {}
    for T, holders in zip(subsets, inclusion_support(subsets, D.blocks)):
        distinct.setdefault(len(holders), T)
    if len(distinct) == 1:
        lam = next(iter(distinct))
        return ValidationResult(valid=True, t=t, v=D.v, k=D.k, lam=lam)
    (c1, T1), (c2, T2) = sorted(distinct.items())[:2]
    return ValidationResult(
        valid=False, t=t, v=D.v, k=D.k, witness=((T1, c1), (T2, c2))
    )


def validated_design(D, t):
    """D with (t, lam) attached; ParameterError if it is not a t-design.

    When the file header declared a lambda for this t, the declared value is
    cross-checked against the exhaustive count.
    """
    result = validate_design(D, t)
    if not result.valid:
        (T1, c1), (T2, c2) = result.witness
        raise ParameterError(
            f"{D.name}: not a {t}-design; {T1} lies in {c1} blocks "
            f"but {T2} lies in {c2}"
        )
    if D.declared is not None:
        t_decl, _, _, lam_decl = D.declared
        if t_decl == t and lam_decl != result.lam:
            raise ParameterError(
                f"{D.name}: header declares lambda = {lam_decl} but counting "
                f"gives {result.lam}"
            )
    return replace(D, t=t, lam=result.lam)


def lambda_s(t, v, k, lam, s):
    """lambda_s = lam * C(v-s, t-s) / C(k-s, t-s): every t-(v,k,lam) design is
    an s-(v,k,lambda_s) design for 0 <= s <= t.

    Non-integral output is a parameter inconsistency and raises a warning,
    but the exact rational is still returned.
    """
    if not (0 <= s <= t):
        raise ParameterError(f"need 0 <= s <= t, got s={s}, t={t}")
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
    rows = all_subsets(D.v, s)
    return IncidenceMatrix(
        rows=len(rows),
        cols=D.b,
        row_support=inclusion_support(rows, D.blocks),
        row_labels=rows,
        col_labels=D.blocks,
    )


def m1_mpinv_closed_form(D):
    """The b x v closed-form inverse of M_1 for a validated design with t >= 2.

    Entry (B, u) is 1/lambda_1 when u is in B, else -(1/lambda_1)(k-1)/(v-k):
    two class values indexed by |B intersect {u}|.
    """
    if not D.is_validated or D.t < 2:
        raise ParameterError("closed form needs a validated design with t >= 2")
    if D.v == D.k:
        raise ParameterError("complete blocks (v = k) make the closed form degenerate")
    lam1 = lambda_s(D.t, D.v, D.k, D.lam, 1)
    inc = Fraction(1) / lam1
    out = -inc * Fraction(D.k - 1, D.v - D.k)
    flat = []
    for sizes in meet_sizes(D.blocks, all_subsets(D.v, 1)):
        flat.extend(map((out, inc).__getitem__, sizes))
    return RatMatrix(D.b, D.v, tuple(flat))


def ms_mpinv_oracle(D, s):
    """The b x C(v,s) Moore-Penrose inverse of M_s via the exact oracle."""
    return pseudoinverse_oracle(build_design_incidence(D, s).to_rat_matrix())


@dataclass(frozen=True)
class SurveyReport:
    """Observed entry classes of M_s^+ across a collection of designs.

    classes[d] maps intersection size i -> sorted tuple of distinct entries
    for design d; cross_design maps i -> "agree"/"disagree" across designs;
    exceptions lists (design name, (block index, subset), entry) for entries
    deviating from their class's modal value. Observations only: no
    uniqueness claim is asserted.
    """

    s: int
    parameters: tuple  # (t, v, k, lam)
    design_names: tuple
    classes: tuple  # per design: dict i -> tuple of distinct entries
    penrose: tuple  # per design: PenroseReport
    cross_design: dict  # i -> "agree" | "disagree"
    exceptions: tuple

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
    """
    by_class = {}
    for bi, sizes in enumerate(meet_sizes(blocks, subsets)):
        for si, (S, i) in enumerate(zip(subsets, sizes)):
            by_class.setdefault(i, []).append((bi, S, X.at(bi, si)))
    classes = {}
    exceptions = []
    for i, triples in sorted(by_class.items()):
        values = Counter(entry for _, _, entry in triples)
        classes[i] = tuple(sorted(values))
        if len(values) > 1:
            mode = max(sorted(values), key=lambda v: values[v])
            exceptions.extend(
                (name, bi, S, entry)
                for bi, S, entry in triples
                if entry != mode
            )
    return classes, exceptions


def _survey_one(D, s):
    M = build_design_incidence(D, s)
    A = M.to_rat_matrix()
    X = pseudoinverse_oracle(A)
    report = penrose_check(A, X)
    classes, exceptions = entry_classes(D.name, D.blocks, M.row_labels, X)
    return classes, report, exceptions


def survey_designs(designs, s):
    """Compute M_s^+ for each design and report entry classes by |R intersect B|.

    All designs must be validated with identical (t, v, k, lam); s <= k.
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
    if not (0 <= s <= k):
        raise ParameterError(f"need 0 <= s <= k = {k}, got s={s}")

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
