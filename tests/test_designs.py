import io
from fractions import Fraction

import pytest

from mpinc.combinat import all_subsets
from mpinc.designs import (
    Design,
    build_design_incidence,
    entry_classes,
    lambda_s,
    m1_mpinv_closed_form,
    ms_mpinv_oracle,
    parse_design,
    survey_designs,
    validate_design,
    validated_design,
)
from mpinc.errors import DesignParseError, ParameterError
from mpinc.linalg import RatMatrix, penrose_check, pseudoinverse_oracle
from mpinc.subspaces import meet_sizes

FANO = "samples/fano/fano.blk"
PAIRS = "samples/pairs/pairs42.blk"
COMPLEMENT = "samples/fano_complement/fano_complement.blk"


def test_parse_fano():
    D = parse_design(FANO)
    assert (D.v, D.b, D.k) == (7, 7, 3)
    assert D.declared == (2, 7, 3, 1)
    assert D.t is None and D.lam is None
    assert not D.is_validated
    assert D.name == "fano.blk"


def test_parse_infers_v_without_header():
    D = parse_design(io.StringIO("1 2\n2 3\n1 3\n"), name="triangle")
    assert (D.v, D.b, D.k) == (3, 3, 2)
    assert D.declared is None


def test_parse_skips_blanks_and_late_comments():
    D = parse_design(io.StringIO("1 2\n\n# a remark\n2 3\n"))
    assert D.b == 2


def test_parse_error_point_exceeds_declared_v():
    with pytest.raises(DesignParseError, match="line 3"):
        parse_design(io.StringIO("# 2 7 3 1\n1 2 3\n1 2 99\n"))


def test_parse_error_non_integer():
    with pytest.raises(DesignParseError, match="line 2"):
        parse_design(io.StringIO("1 2\n1 x\n"))


def test_parse_error_not_increasing():
    with pytest.raises(DesignParseError, match="line 1"):
        parse_design(io.StringIO("2 2\n"))
    with pytest.raises(DesignParseError):
        parse_design(io.StringIO("3 1\n"))


def test_parse_error_block_size_mismatch():
    with pytest.raises(DesignParseError, match="line 2"):
        parse_design(io.StringIO("1 2 3\n1 2\n"))


def test_parse_error_declared_k_mismatch():
    with pytest.raises(DesignParseError):
        parse_design(io.StringIO("# 2 7 4 1\n1 2 3\n"))


def test_parse_error_empty():
    with pytest.raises(DesignParseError):
        parse_design(io.StringIO("# 2 7 3 1\n"))


def test_parse_error_nonpositive_point():
    with pytest.raises(DesignParseError):
        parse_design(io.StringIO("0 1\n"))


def test_validate_fano():
    D = parse_design(FANO)
    res = validate_design(D, 2)
    assert res.valid
    assert (res.t, res.v, res.k, res.lam) == (2, 7, 7, 3) or (
        res.t,
        res.v,
        res.k,
        res.lam,
    ) == (2, 7, 3, 1)
    assert res.lam == 1
    assert res.witness is None


def test_validate_fano_t1():
    res = validate_design(parse_design(FANO), 1)
    assert res.valid and res.lam == 3


def test_validate_broken_design_gives_witness():
    D = parse_design(FANO)
    broken = Design(v=7, blocks=D.blocks[:-1], k=3, name="broken")
    res = validate_design(broken, 2)
    assert not res.valid
    assert res.witness is not None
    (T1, c1), (T2, c2) = res.witness
    assert c1 != c2
    cover = lambda T: sum(1 for B in broken.blocks if set(T) <= set(B))
    assert cover(T1) == c1 and cover(T2) == c2


def test_validated_design_attaches_parameters():
    V = validated_design(parse_design(FANO), 2)
    assert V.is_validated and (V.t, V.lam) == (2, 1)


def test_validated_design_rejects_invalid():
    D = parse_design(FANO)
    broken = Design(v=7, blocks=D.blocks[:-1], k=3, name="broken")
    with pytest.raises(ParameterError):
        validated_design(broken, 2)


def test_validated_design_checks_declared_lambda():
    src = "# 2 7 3 9\n" + "\n".join(
        " ".join(map(str, B)) for B in parse_design(FANO).blocks
    )
    D = parse_design(io.StringIO(src))
    assert D.declared == (2, 7, 3, 9)
    with pytest.raises(ParameterError):
        validated_design(D, 2)


def test_lambda_s_values():
    assert lambda_s(2, 7, 3, 1, 0) == 7
    assert lambda_s(2, 7, 3, 1, 1) == 3
    assert lambda_s(2, 7, 3, 1, 2) == 1
    assert lambda_s(2, 7, 4, 2, 1) == 4


def test_lambda_s_nonintegral_warns():
    with pytest.warns(UserWarning):
        val = lambda_s(2, 8, 3, 1, 1)
    assert val == Fraction(7, 2)


def test_incidence_shapes_and_sums():
    V = validated_design(parse_design(FANO), 2)
    M0 = build_design_incidence(V, 0)
    assert (M0.rows, M0.cols) == (1, 7)
    assert M0.row_sums() == [7]
    M1 = build_design_incidence(V, 1)
    assert (M1.rows, M1.cols) == (7, 7)
    assert M1.row_sums() == [3] * 7  # each point lies on lambda_1 blocks
    assert M1.col_sums() == [3] * 7  # each block has k points
    M2 = build_design_incidence(V, 2)
    assert (M2.rows, M2.cols) == (21, 7)
    assert M2.row_sums() == [1] * 21  # lambda_2 = 1
    assert M2.col_sums() == [3] * 7  # C(k, 2) pairs per block


def test_incidence_with_repeated_blocks_matches_containment():
    # repeated blocks stay separate columns
    blocks = parse_design(FANO).blocks
    D = Design(v=7, blocks=blocks + blocks[:3], k=3, name="fano+3")
    for s in (0, 1, 2):
        M = build_design_incidence(D, s)
        assert M.row_labels == all_subsets(7, s)
        assert M.row_support == tuple(
            tuple(j for j, B in enumerate(D.blocks) if set(S) <= set(B))
            for S in all_subsets(7, s)
        )


def test_meet_sizes_with_repeated_blocks():
    # repeated blocks stay separate columns; s = 0 is the empty set
    blocks = parse_design(FANO).blocks
    blocks += blocks[:3]
    for s in (0, 1, 2):
        subsets = all_subsets(7, s)
        assert list(meet_sizes(blocks, subsets)) == [
            [sum(1 for x in S if x in B) for S in subsets] for B in blocks
        ]
        assert list(meet_sizes(subsets, blocks)) == [
            [sum(1 for x in S if x in B) for B in blocks] for S in subsets
        ]


def test_m1_gram_is_xI_yJ():
    V = validated_design(parse_design(FANO), 2)
    A = build_design_incidence(V, 1).to_rat_matrix()
    G = A @ A.transpose()
    two_i_plus_j = [[3 if i == j else 1 for j in range(7)] for i in range(7)]
    assert G == RatMatrix.from_rows(two_i_plus_j)


@pytest.mark.parametrize("path", [FANO, PAIRS, COMPLEMENT])
def test_m1_closed_form_matches_oracle(path):
    V = validated_design(parse_design(path), 2)
    X = m1_mpinv_closed_form(V)
    A = build_design_incidence(V, 1).to_rat_matrix()
    assert X == pseudoinverse_oracle(A)
    assert penrose_check(A, X).all_ok


def test_m1_closed_form_entry_values():
    V = validated_design(parse_design(FANO), 2)
    X = m1_mpinv_closed_form(V)
    for bi, B in enumerate(V.blocks):
        for u in range(1, 8):
            want = Fraction(1, 3) if u in B else Fraction(-1, 6)
            assert X.at(bi, u - 1) == want


def test_m1_closed_form_with_repeated_blocks():
    base = parse_design(PAIRS)
    doubled = Design(v=4, blocks=base.blocks + base.blocks, k=2, name="pairs-x2")
    V = validated_design(doubled, 2)
    assert V.lam == 2
    X = m1_mpinv_closed_form(V)
    A = build_design_incidence(V, 1).to_rat_matrix()
    assert X == pseudoinverse_oracle(A)


def test_m1_closed_form_requires_validation():
    with pytest.raises(ParameterError):
        m1_mpinv_closed_form(parse_design(FANO))


def test_ms_oracle_s0_uniform_column():
    V = validated_design(parse_design(FANO), 2)
    X = ms_mpinv_oracle(V, 0)
    assert X.to_rows() == [[Fraction(1, 7)]] * 7


def test_ms_oracle_s2_penrose():
    V = validated_design(parse_design(FANO), 2)
    A = build_design_incidence(V, 2).to_rat_matrix()
    assert penrose_check(A, ms_mpinv_oracle(V, 2)).all_ok


def test_entry_classes_constant():
    blocks = ((1, 2), (3, 4))
    subsets = all_subsets(4, 1)
    X = RatMatrix.from_rows([[5, 5, 2, 2], [2, 2, 5, 5]])
    classes, exceptions = entry_classes("toy", blocks, subsets, X)
    assert classes == {0: (Fraction(2),), 1: (Fraction(5),)}
    assert exceptions == []


def test_entry_classes_flags_deviations():
    blocks = ((1, 2), (3, 4))
    subsets = all_subsets(4, 1)
    X = RatMatrix.from_rows([[5, 7, 2, 2], [2, 2, 5, 5]])
    classes, exceptions = entry_classes("toy", blocks, subsets, X)
    assert classes[1] == (Fraction(5), Fraction(7))
    assert exceptions == [("toy", 0, (2,), Fraction(7))]


def test_entry_classes_modal_tie_prefers_smaller():
    blocks = ((1, 2), (3, 4))
    subsets = all_subsets(4, 1)
    # class i=1 entries: 5, 7, 5, 7 -- tied, so 5 is modal and both 7s deviate
    X = RatMatrix.from_rows([[5, 7, 2, 2], [2, 2, 5, 7]])
    classes, exceptions = entry_classes("toy", blocks, subsets, X)
    assert classes[1] == (Fraction(5), Fraction(7))
    assert exceptions == [
        ("toy", 0, (2,), Fraction(7)),
        ("toy", 1, (4,), Fraction(7)),
    ]


def test_survey_single_design_s1():
    V = validated_design(parse_design(FANO), 2)
    rep = survey_designs([V], 1)
    doc = rep.to_json_dict()
    assert doc["s"] == 1
    assert doc["parameters"] == {"t": 2, "v": 7, "k": 3, "lambda": 1}
    assert doc["designs"][0]["classes"] == {"i=1": ["1/3"], "i=0": ["-1/6"]}
    assert doc["designs"][0]["constant_classes"] is True
    assert doc["designs"][0]["penrose"] == [True, True, True, True]
    assert doc["cross_design"] == {"i=1": "agree", "i=0": "agree"}
    assert doc["exceptions"] == []


def test_survey_s2_constant():
    V = validated_design(parse_design(FANO), 2)
    doc = survey_designs([V], 2).to_json_dict()
    assert doc["designs"][0]["classes"]["i=2"] == ["1/3"]
    assert doc["designs"][0]["constant_classes"] is True


def test_survey_rejects_unvalidated():
    with pytest.raises(ParameterError):
        survey_designs([parse_design(FANO)], 1)


def test_survey_rejects_mixed_parameters():
    A = validated_design(parse_design(FANO), 2)
    B = validated_design(parse_design(PAIRS), 2)
    with pytest.raises(ParameterError):
        survey_designs([A, B], 1)

