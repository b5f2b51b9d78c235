import re
from ast import literal_eval
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinc.combinat import all_subsets
from mpinc.designs import (
    Design,
    SurveyReport,
    _survey_one,
    build_design_incidence,
    entry_classes,
    lambda_s,
    m1_mpinv_closed_form,
    ms_mpinv_oracle,
    parse_design,
    survey_designs,
    validated_design,
)
from mpinc.errors import DesignParseError, ParameterError
from mpinc.linalg import (
    RatMatrix,
    _exchange,
    penrose_check,
    pseudoinverse_oracle,
)
from mpinc.subspaces import meet_sizes

FANO = "samples/fano/fano.blk"
PAIRS = "samples/pairs/pairs42.blk"
COMPLEMENT = "samples/fano_complement/fano_complement.blk"


@pytest.fixture
def design_file(tmp_path):
    """Writes a design text, or the bytes given, to a file under tmp_path and
    returns its path."""
    def write(text, name="design.blk"):
        path = tmp_path / name
        path.write_bytes(text.encode("ascii") if isinstance(text, str) else text)
        return path
    return write


def fano_under(first_line):
    """The Fano plane's blocks as design file text under the given first line."""
    return first_line + "\n" + "\n".join(" ".join(map(str, B)) for B in parse_design(FANO).blocks)


def test_parse_fano():
    D = parse_design(FANO)
    assert (D.v, D.b, D.k) == (7, 7, 3)
    assert D.declared == (2, 7, 3, 1)
    assert D.t is None and D.lam is None
    assert not D.is_validated
    assert D.name == "fano.blk"


def test_parse_infers_v_without_header(design_file):
    D = parse_design(design_file("1 2\n2 3\n1 3\n", name="triangle.blk"))
    assert (D.v, D.b, D.k) == (3, 3, 2)
    assert D.declared is None
    assert D.name == "triangle.blk"


def test_parse_skips_blanks_and_late_comments(design_file):
    D = parse_design(design_file("1 2\n\n# a remark\n2 3\n"))
    assert D.b == 2


@pytest.mark.parametrize("header", [
    "# t v k lambda", "# 2 7 3 x", "# a b c d", "# 2 7 3", "# 2 7 3 1 0",
], ids=["template", "non-integer-lambda", "four-words", "three-ints", "five-ints"])
def test_first_line_that_is_not_four_integers_is_a_comment(design_file, header):
    # the header is exactly four integers; any other first "#" line is skipped
    D = parse_design(design_file(fano_under(header)))
    assert D.declared is None
    assert (D.v, D.b, D.k) == (7, 7, 3)


def test_parse_error_point_exceeds_declared_v(design_file):
    with pytest.raises(DesignParseError, match="line 3"):
        parse_design(design_file("# 2 7 3 1\n1 2 3\n1 2 99\n"))


def test_parse_error_non_integer(design_file):
    with pytest.raises(DesignParseError, match="line 2"):
        parse_design(design_file("1 2\n1 x\n"))


def test_parse_error_not_increasing(design_file):
    with pytest.raises(DesignParseError, match="line 1"):
        parse_design(design_file("2 2\n"))
    with pytest.raises(DesignParseError):
        parse_design(design_file("3 1\n"))


def test_parse_error_block_size_mismatch(design_file):
    with pytest.raises(DesignParseError, match="line 2"):
        parse_design(design_file("1 2 3\n1 2\n"))


def test_parse_error_declared_k_mismatch(design_file):
    with pytest.raises(DesignParseError):
        parse_design(design_file("# 2 7 4 1\n1 2 3\n"))


def test_parse_error_empty(design_file):
    with pytest.raises(DesignParseError):
        parse_design(design_file("# 2 7 3 1\n"))


def test_parse_error_nonpositive_point(design_file):
    with pytest.raises(DesignParseError):
        parse_design(design_file("0 1\n"))


@pytest.mark.parametrize("data, message", [
    # \f, \v and \x1c-\x1e separate points within a line; only \n, \r\n
    # and \r end it
    (b"# 2 4 2 1\n1 2\f3 4\n1 3\n1 4\n2 3\n2 4\n",
     "line 2: declared k = 2 but blocks have size 4"),
    (b"1 2 3\v4 5 6\n1 x\n", "line 2: non-integer point in block '1 x'"),
    (b"1 2\x1c3\n1 2 3\x1d\n1 x\n", "line 3: non-integer point in block '1 x'"),
    (b"1 2\r1 3\r2 \xe9\r", "line 3: byte 0xe9 is not ASCII"),
    (b"1 2\r\n1 3\r\n\r\n2 \xe9\r\n", "line 4: byte 0xe9 is not ASCII"),
    # faults on several lines: the first line in the file is named
    (b"# 2 7 3 1\n1 2 99\n1 x 3\n", "line 2: point 99 exceeds declared v = 7"),
    (b"# 2 7 4 1\n1 2 3\n1 2\n", "line 2: declared k = 4 but blocks have size 3"),
    (b"1 2 3\n1 x 3\n2 3 \xe9\n", "line 2: non-integer point in block '1 x 3'"),
    # faults on one line: the size against the first block before v, and
    # v before the declared k
    (b"# 2 7 2 1\n1 2\n1 2 99\n", "line 3: block size 3 differs from earlier size 2"),
    (b"# 2 7 2 1\n1 2 99\n", "line 2: point 99 exceeds declared v = 7"),
    # a file of no blocks names its last line
    (b"# 2 7 3 1\n\n# a remark\r\n", "line 3: no blocks found; a design needs b >= 1"),
    (b"", "line 1: no blocks found; a design needs b >= 1"),
    # a point is an optional - and ASCII digits: not the +1, 2_3 or 1_000
    # that int() also reads
    (b"1 2_3\n+1 0002\n", "line 1: non-integer point in block '1 2_3'"),
    (b"1 2\n+1 3\n", "line 2: non-integer point in block '+1 3'"),
    (b"1 1_000\n", "line 1: non-integer point in block '1 1_000'"),
    # a first # line of four fields is a header only when all four are
    # integers; else it is a comment and sets neither k nor v
    (b"# 2 4 2 +1\n1 2 3\n1 x 3\n", "line 3: non-integer point in block '1 x 3'"),
    # a header declares v >= 1 and k >= 1, and is refused at its own line,
    # naming v before k
    (b"# 2 -7 3 1\n1 2 3\n", "line 1: declared v = -7 must be at least 1"),
    (b"# 2 7 0 1\n1 2 3\n", "line 1: declared k = 0 must be at least 1"),
    (b"# 2 0 -1 1\n1 2 3\n", "line 1: declared v = 0 must be at least 1"),
], ids=["form-feed", "vertical-tab", "separators", "cr", "crlf", "v-then-word", "k-then-size",
        "word-then-byte", "size-before-v", "v-before-k", "comments-only", "empty",
        "underscore-then-plus", "plus", "thousands", "plus-in-header", "header-v", "header-k",
        "header-v-before-k"])
def test_parse_error_names_the_first_faulty_line(design_file, data, message):
    with pytest.raises(DesignParseError) as exc:
        parse_design(design_file(data))
    assert str(exc.value) == f"design.blk: {message}"


# what may stand between points and around a block
SEPARATORS = [" ", "  ", "\t", "\v", "\f", " \t", "\x1c", "\x1f"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def design_lines(draw):
    """(lines, their line ends, expected parse, numbers of the block and blank
    lines) for a random well-formed design file."""
    v = draw(st.integers(1, 9))
    k = draw(st.integers(1, v))
    blocks = draw(st.lists(
        st.lists(st.integers(1, v), min_size=k, max_size=k, unique=True).map(sorted).map(tuple),
        min_size=1, max_size=6,
    ))
    declared = draw(st.none() | st.tuples(
        st.integers(0, 3), st.integers(max(map(max, blocks)), 12), st.just(k), st.integers(0, 3)
    ))
    lines = [] if declared is None else ["# " + " ".join(map(str, declared))]
    faultable = []
    for B in blocks:
        for _ in range(draw(st.integers(0, 2))):
            if draw(st.booleans()):
                faultable.append(len(lines) + 1)
                lines.append(draw(st.sampled_from(["", " ", "\t"])))
            else:
                lines.append(draw(st.sampled_from(["#", "# a remark", "# t v k lambda", "#1 2 3"])))
        # a separator before each point and one after the last
        seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=k + 1, max_size=k + 1))
        faultable.append(len(lines) + 1)
        lines.append("".join(map(str.__add__, seps, map(str, B))) + seps[-1])
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    ends[-1] = draw(st.sampled_from(["", *LINE_ENDS]))
    for i in range(1, len(lines)):
        # \r then \n is one line end, so an empty line after a \r ends in \r too
        if ends[i - 1] == "\r" and lines[i] == "" and ends[i] == "\n":
            ends[i] = "\r"
    v_read = max(map(max, blocks)) if declared is None else declared[1]
    return lines, ends, (tuple(blocks), v_read, k, declared), faultable


@settings(max_examples=150, deadline=None)
@given(design_lines(), st.data())
def test_parse_reads_each_line_rule_and_names_a_faulty_line(tmp_path_factory, case, data):
    lines, ends, expected, faultable = case
    path = tmp_path_factory.mktemp("design") / "random.blk"

    def parse(lines):
        path.write_bytes("".join(map(str.__add__, lines, ends)).encode("latin-1"))
        return parse_design(path)

    D = parse(lines)
    assert (D.blocks, D.v, D.k, D.declared) == expected
    # one bad token on a chosen block or blank line is reported at that line
    lineno = data.draw(st.sampled_from(faultable))
    token = data.draw(st.sampled_from(["x", "1.5", "0", "\xe9", "+1", "2_3", "1_000"]))
    lines = [*lines[:lineno - 1], lines[lineno - 1] + " " + token, *lines[lineno:]]
    with pytest.raises(DesignParseError) as exc:
        parse(lines)
    assert exc.value.line == lineno
    assert str(exc.value).startswith(f"random.blk: line {lineno}: ")


def test_validate_fano():
    D = parse_design(FANO)
    V = validated_design(D, 2)
    assert (V.t, V.v, V.k, V.lam) == (2, 7, 3, 1)
    assert V == D._replace(t=2, lam=1)


def test_validate_fano_t1():
    V = validated_design(parse_design(FANO), 1)
    assert (V.t, V.lam) == (1, 3)


def test_validate_broken_design_gives_witness():
    D = parse_design(FANO)
    broken = Design(v=7, blocks=D.blocks[:-1], k=3, name="broken")
    with pytest.raises(ParameterError) as exc:
        validated_design(broken, 2)
    found = re.fullmatch(
        r"broken: not a 2-design; (\(.*?\)) lies in (\d+) blocks but (\(.*?\)) lies in (\d+)",
        str(exc.value),
    )
    assert found
    T1, c1, T2, c2 = literal_eval(found[1]), int(found[2]), literal_eval(found[3]), int(found[4])
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


def test_validated_design_checks_declared_lambda(design_file):
    D = parse_design(design_file(fano_under("# 2 7 3 9")))
    assert D.declared == (2, 7, 3, 9)
    with pytest.raises(ParameterError):
        validated_design(D, 2)


def test_validated_design_refusal_text(design_file):
    fano = parse_design(FANO)
    broken = Design(v=7, blocks=fano.blocks[:-1], k=3, name="broken")
    cases = [
        (broken, 2, "broken: not a 2-design; (5, 6) lies in 0 blocks but (1, 2) lies in 1"),
        (parse_design(design_file(fano_under("# 2 7 3 9"), name="fano9.blk")), 2,
         "fano9.blk: header declares lambda = 9 but counting gives 1"),
        (fano, 4, "fano.blk: need 1 <= t <= k = 3, got t=4"),
    ]
    for D, t, message in cases:
        with pytest.raises(ParameterError) as exc:
            validated_design(D, t)
        assert str(exc.value) == message


def test_lambda_s_values():
    assert lambda_s(2, 7, 3, 1, 0) == 7
    assert lambda_s(2, 7, 3, 1, 1) == 3
    assert lambda_s(2, 7, 3, 1, 2) == 1
    assert lambda_s(2, 7, 4, 2, 1) == 4
    with pytest.raises(ParameterError, match=r"^need 0 <= s <= t, got s=3, t=2$"):
        lambda_s(2, 7, 3, 1, 3)
    # no design has t > k or k > v
    with pytest.raises(ParameterError, match=r"^need t <= k <= v, got t=3, k=2, v=7$"):
        lambda_s(3, 7, 2, 1, 1)
    with pytest.raises(ParameterError, match=r"^need t <= k <= v, got t=2, k=3, v=1$"):
        lambda_s(2, 1, 3, 1, 1)


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
    A = RatMatrix.from_rows([[1, 0], [1, 0], [0, 1], [0, 1]])
    report = SurveyReport(
        s=1,
        parameters=(1, 4, 2, 1),
        design_names=("toy",),
        classes=(classes,),
        penrose=(penrose_check(A, X),),
        cross_design={1: "agree", 0: "agree"},
        exceptions=tuple(exceptions),
    )
    assert report.to_json_dict()["exceptions"] == [
        {"design": "toy", "block": 0, "subset": [2], "entry": "7"}
    ]


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


def test_survey_one_with_negative_pivot_and_modal_tie():
    # M_1 of these five blocks is square and nonsingular, and some row
    # scale of its inversion is negative. Class i = 0 holds -2/3 and -1/3
    # four times each, so the tie must break toward -2/3 on the rationals,
    # whatever the sign of the scale the ints were read off with.
    D = Design(v=5, blocks=((1, 2, 3), (1, 4, 5), (1, 2, 4), (1, 2, 5), (2, 3, 4)),
               k=3, name="tie")
    M = build_design_incidence(D, 1)
    assert min(_exchange(M.to_rat_matrix().nums, M.cols)[2]) < 0
    classes, report, exceptions = _survey_one(D, 1)
    X = pseudoinverse_oracle(M.to_rat_matrix())
    assert (classes, exceptions) == entry_classes(D.name, D.blocks, M.row_labels, X)
    assert report == penrose_check(M.to_rat_matrix(), X)
    assert report.all_ok
    assert classes[0] == (Fraction(-2, 3), Fraction(-1, 3), Fraction(1, 3))
    deviating = Counter(entry for *_, entry in exceptions)
    assert Fraction(-2, 3) not in deviating
    assert deviating[Fraction(-1, 3)] == 4 + 2  # four in class 0, two in class 1


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
    with pytest.raises(ParameterError, match=r"^survey needs at least one design$"):
        survey_designs([], 1)


def test_survey_rejects_mixed_parameters():
    A = validated_design(parse_design(FANO), 2)
    B = validated_design(parse_design(PAIRS), 2)
    with pytest.raises(ParameterError):
        survey_designs([A, B], 1)

