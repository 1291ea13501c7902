import re

import pytest

import stdpairs as sp
from stdpairs import ArchiveError, IntMatrix, dedup, export_macaulay2, load, save


@pytest.fixture
def paper_monoid():
    return sp.AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))


def test_monoid_roundtrip(tmp_path, paper_monoid):
    path = str(tmp_path / "monoid.txt")
    assert save(paper_monoid, path) is True
    loaded = load(path)
    assert isinstance(loaded, sp.AffineMonoid)
    assert loaded == paper_monoid
    assert loaded.hash_string == paper_monoid.hash_string


def test_ideal_roundtrip_with_caches(tmp_path, paper_monoid):
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    cover = sp.standard_cover(I)
    I.overlap_classes()
    I.associated_primes()
    decomposition = I.irreducible_decomposition()
    path = str(tmp_path / "ideal.txt")
    save(I, path)
    loaded = load(path)
    assert loaded == I
    assert loaded._cache["standard_cover"] == cover
    assert loaded._cache["irreducible_decomposition"] == decomposition
    assert loaded.irreducible_decomposition() == decomposition  # served from cache
    sp.verify(loaded)


def test_golden_session_roundtrip(tmp_path):
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 2, 3], [1, 2, 0, 0]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_rows([[3, 5, 6], [2, 1, 1]]))
    expected = I.irreducible_decomposition()
    path = str(tmp_path / "golden.txt")
    save(I, path)
    loaded = load(path)
    assert loaded.ambient.gens.data == ((1, 1, 2, 3), (1, 2, 0, 0))
    assert loaded.gens.columns() == I.gens.columns()
    got = loaded.irreducible_decomposition()
    assert sorted(W.gens.to_token() for W in got) == sorted(W.gens.to_token() for W in expected)


def test_cover_roundtrip(tmp_path, paper_monoid):
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    cover = sp.standard_cover(I)
    path = str(tmp_path / "cover.txt")
    save(cover, path)
    loaded = load(path)
    assert isinstance(loaded, sp.Cover)
    assert loaded == cover
    # pairs of a standalone cover document anchor to the empty ideal
    assert all(p.ideal.is_empty() for p in loaded.pairs())


def test_empty_cover_roundtrip(tmp_path):
    path = str(tmp_path / "empty.txt")
    save(sp.Cover.from_pairs([]), path)
    assert load(path).is_empty()


def test_save_is_deterministic(tmp_path, paper_monoid):
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    sp.standard_cover(I)
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    save(I, a)
    save(I, b)
    with open(a) as fa, open(b) as fb:
        assert fa.read() == fb.read()


def test_load_reports_line_numbers(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n2 2\n1 2\n")
    with pytest.raises(ArchiveError, match="line"):
        load(path)


@pytest.mark.parametrize("header, bad_line", [("-1 2", 3), ("1 -2", 3), ("1 1\n5\nIDEAL\n1 -1", 6)])
def test_load_rejects_negative_matrix_dimensions(tmp_path, header, bad_line):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write(f"STDPAIRS v1\nMONOID\n{header}\n")
    with pytest.raises(ArchiveError, match=rf"^line {bad_line}: negative matrix dimension"):
        load(path)


def test_load_rejects_unknown_version(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v9\nMONOID\n1 1\n1\n")
    with pytest.raises(ArchiveError, match="format tag"):
        load(path)


def test_load_rejects_unknown_section(tmp_path):
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n1 1\n1\nHUH\n")
    with pytest.raises(ArchiveError, match="HUH"):
        load(path)


_IDEAL = "IDEAL\n1 1\n5\n"


@pytest.mark.parametrize(
    "sections, bad_line",
    [
        ("COVER\n1\n0;2\n", 7),
        (_IDEAL + "COVER\n1\n0;2\n", 10),
        (_IDEAL + "OVERLAP\n1\n0;1\n0,1;5\n", 10),
        (_IDEAL + "OVERLAP\n1\n0,1;2\n0,1;5\n0;5\n", 12),
        (_IDEAL + "ASSOCIATED\n2\n0,1\n0\n", 11),
    ],
    ids=["cover", "ideal_cover", "overlap_class_header", "overlap_pair", "associated"],
)
def test_load_rejects_cover_pair_over_non_face(tmp_path, sections, bad_line):
    """(0,) is not a face of N[2, 3], whose faces are () and (0, 1).  A
    non-face in a COVER or OVERLAP pair line, an OVERLAP class header or an
    ASSOCIATED line is an ``ArchiveError`` naming its line."""
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n1 2\n2 3\n" + sections)
    with pytest.raises(ArchiveError, match=rf"^line {bad_line}: \(0,\) is not a face"):
        load(path)


_BAD_COUNTS = [
    ("COVER\n-2\n", 6),
    (_IDEAL + "COVER\n-1\n", 9),
    (_IDEAL + "OVERLAP\n-1\n", 9),
    (_IDEAL + "ASSOCIATED\n-3\n", 9),
    (_IDEAL + "DECOMPOSITION\n-1\n", 9),
    (_IDEAL + "OVERLAP\n1\n0,1;0\n", 10),
    (_IDEAL + "OVERLAP\n1\n0,1;-3\n0,1;5\n", 10),
]
_BAD_COUNT_IDS = ["cover", "ideal_cover", "overlap", "associated", "decomposition", "empty_class", "negative_class"]


@pytest.mark.parametrize("sections, bad_line", _BAD_COUNTS, ids=_BAD_COUNT_IDS)
def test_load_rejects_negative_counts_and_empty_classes(tmp_path, sections, bad_line):
    """A negative section count, or an OVERLAP class header counting no
    pairs, is an ``ArchiveError`` naming its line, not an empty section
    or an ``IndexError``."""
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n1 2\n2 3\n" + sections)
    with pytest.raises(ArchiveError, match=rf"^line {bad_line}: count -?\d+ for [\w ]+ is below [01]$"):
        load(path)


@pytest.mark.parametrize(
    "sections, bad_line",
    [
        ("COVER\n1\n0;1 2 3\n", 8),
        ("IDEAL\n2 1\n2\n1\nCOVER\n2\n0;0 0\n0;1\n", 13),
        ("IDEAL\n2 1\n2\n1\nOVERLAP\n1\n0;2\n0;0 0\n0;1 0 0\n", 14),
    ],
    ids=["cover", "ideal_cover", "overlap_pair"],
)
def test_load_rejects_pair_base_of_wrong_length(tmp_path, sections, bad_line):
    """A COVER or OVERLAP pair line whose base does not have the monoid's
    dimension is an ``ArchiveError`` naming its line."""
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n2 3\n1 1 1\n0 1 2\n" + sections)
    with pytest.raises(ArchiveError, match=rf"^line {bad_line}: pair base has dim \d, expected 2"):
        load(path)


@pytest.mark.parametrize(
    "sections, bad_line, token",
    [
        ("COVER\n1\n0;1 1.5\n", 8, "1.5"),
        ("IDEAL\n2 1\n2\n1\nCOVER\n2\n0;0 0\n0;x 1\n", 13, "x"),
        ("IDEAL\n2 1\n2\n1\nOVERLAP\n1\n0;2\n0;0 0\n0;5/2 0\n", 14, "5/2"),
    ],
    ids=["cover", "ideal_cover", "overlap_pair"],
)
def test_load_rejects_non_integer_pair_base(tmp_path, sections, bad_line, token):
    """A pair base entry that is not an integer is an ``ArchiveError``
    naming its line and the token, as ``--face`` names its token."""
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n2 3\n1 1 1\n0 1 2\n" + sections)
    with pytest.raises(ArchiveError, match=rf"^line {bad_line}: pair base: '{re.escape(token)}' is not an integer$"):
        load(path)


@pytest.mark.parametrize(
    "sections, bad_line",
    [
        ("IDEAL\n3 1\n2\n1\n1\n", 7),
        ("IDEAL\n1 1\n2\n", 7),
        ("IDEAL\n2 1\n2\n1\nDECOMPOSITION\n1\n3 1\n2\n1\n1\n", 12),
    ],
    ids=["ideal_three_rows", "ideal_one_row", "decomposition"],
)
def test_load_rejects_generators_of_wrong_dimension(tmp_path, capsys, sections, bad_line):
    """An IDEAL or DECOMPOSITION matrix with columns whose row count is
    not the monoid's dimension is an ``ArchiveError`` naming its header
    line, through ``load`` and the CLI alike."""
    from stdpairs.cli import main

    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n2 3\n1 1 1\n0 1 2\n" + sections)
    message = rf"line {bad_line}: \w+ generators have dim \d, ambient has 2"
    with pytest.raises(ArchiveError, match="^" + message):
        load(path)
    assert main(["ideal", path, "cover"]) == 2
    assert re.search("^error: " + message, capsys.readouterr().err)


def test_load_accepts_an_ideal_without_generators_of_any_row_count(tmp_path):
    """A matrix with no columns passes whatever its row count, as in
    ``MonomialIdeal``: the empty ideal loads with the monoid's dimension."""
    path = str(tmp_path / "empty.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n2 3\n1 1 1\n0 1 2\nIDEAL\n3 0\n\n\n\n")
    ideal = load(path)
    assert ideal.gens == IntMatrix.zero(2, 0)


def _write(tmp_path, text):
    path = str(tmp_path / "doc.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\n" + text)
    return path


def test_load_rejects_overlap_pair_off_its_class_face(tmp_path, capsys):
    """Every pair line of an OVERLAP class lies over the class header's
    face; a pair over another face is an ``ArchiveError`` naming its line,
    not a class that later yields a wrong component."""
    from stdpairs.cli import main

    path = _write(tmp_path, "MONOID\n2 3\n1 1 1\n0 1 2\nIDEAL\n2 1\n3\n3\nOVERLAP\n1\n0;1\n2;1 0\n")
    message = r"line 13: pair over \(2,\) in a class over \(0,\)"
    with pytest.raises(ArchiveError, match="^" + message):
        load(path)
    assert main(["ideal", path, "decompose"]) == 2
    assert re.search("^error: " + message, capsys.readouterr().err)


@pytest.mark.parametrize(
    "sections, name, bad_line",
    [
        ("ASSOCIATED\n1\n0,1\n", "ASSOCIATED", 5),
        ("DECOMPOSITION\n0\n", "DECOMPOSITION", 5),
        ("OVERLAP\n0\nCOVER\n0\n", "OVERLAP", 5),
        ("COVER\n0\nIDEAL\n1 1\n5\n", "IDEAL", 7),
        ("COVER\n1\n;0\nCOVER\n0\n", "COVER", 8),
        (_IDEAL + "COVER\n0\nIDEAL\n1 1\n6\n", "IDEAL", 10),
        (_IDEAL + "ASSOCIATED\n1\n0,1\nASSOCIATED\n0\n", "ASSOCIATED", 11),
    ],
    ids=[
        "monoid_associated",
        "monoid_decomposition",
        "overlap_before_cover",
        "ideal_after_cover",
        "cover_document_two_covers",
        "second_ideal",
        "repeated_section",
    ],
)
def test_load_rejects_misplaced_or_repeated_sections(tmp_path, sections, name, bad_line):
    """A document is MONOID, an optional IDEAL, then each cached section at
    most once, and without IDEAL at most one COVER.  A section out of that
    order is an ``ArchiveError`` naming its line, not dropped, attached to
    another ideal or overwriting the first copy."""
    path = _write(tmp_path, "MONOID\n1 2\n2 3\n" + sections)
    with pytest.raises(ArchiveError, match=rf"^line {bad_line}: section '{name}' is unknown, misplaced or repeated$"):
        load(path)


@pytest.mark.parametrize(
    "text, bad_line, message",
    [
        ("MONOID\n2 3\n1 1 1\n0 1 2\nIDEAL\n2 1\n0\n1\n", 6, r"generator \(0, 1\) is not an element"),
        ("MONOID\n2 3\n1 1 1\n0 1 2\nIDEAL\n2 1\n0\n0\n", 6, "zero generator"),
        (
            "MONOID\n2 3\n1 1 1\n0 1 2\nIDEAL\n2 1\n3\n3\nDECOMPOSITION\n1\n2 1\n0\n1\n",
            10,
            r"generator \(0, 1\) is not an element",
        ),
        ("MONOID\n1 2\n1 -1\n", 2, "containing a line"),
    ],
    ids=["ideal_outside", "zero_generator", "decomposition_outside", "not_pointed"],
)
def test_load_names_the_section_of_a_domain_error(tmp_path, capsys, text, bad_line, message):
    """A section whose content the monoid or ideal constructor rejects is an
    ``ArchiveError`` naming that section's header line, through ``load``
    and the CLI alike."""
    from stdpairs.cli import main

    path = _write(tmp_path, text)
    with pytest.raises(ArchiveError, match=rf"^line {bad_line}: .*{message}"):
        load(path)
    assert main(["ideal", path, "cover"]) == 2
    assert re.search(rf"^error: line {bad_line}: .*{message}", capsys.readouterr().err)


_CACHE_KEYS = ("standard_cover", "overlap_classes", "associated_primes", "irreducible_decomposition")
_ROUNDTRIP_IDEALS = {
    "golden": ([[1, 1, 2, 3], [1, 2, 0, 0]], [[3, 5, 6], [2, 1, 1]]),
    "zero_column": ([[1, 0, 1, 2], [0, 0, 1, 0]], [[2, 3], [1, 0]]),
}


@pytest.fixture(scope="module")
def fully_cached():
    """Each round-trip ideal with all four cached sections computed."""
    ideals = {}
    for label, (cols, gens) in _ROUNDTRIP_IDEALS.items():
        I = sp.MonomialIdeal(sp.AffineMonoid(IntMatrix.from_rows(cols)), IntMatrix.from_rows(gens))
        I.irreducible_decomposition()
        I.associated_primes()
        assert set(I._cache) >= set(_CACHE_KEYS)
        ideals[label] = I
    return ideals


@pytest.mark.parametrize("mask", range(16))
@pytest.mark.parametrize("label", sorted(_ROUNDTRIP_IDEALS))
def test_every_combination_of_sections_roundtrips(tmp_path, fully_cached, label, mask):
    """For each subset of the four cached sections, ``save`` -> ``load`` ->
    ``save`` writes the same bytes, the loaded cache equals the saved one,
    and ``verify`` passes."""
    I = fully_cached[label]
    stored = {key: I._cache[key] for bit, key in enumerate(_CACHE_KEYS) if mask >> bit & 1}
    J = sp.MonomialIdeal(I.ambient, I.gens)
    J._cache.update(stored)
    first, again = str(tmp_path / "first.txt"), str(tmp_path / "again.txt")
    save(J, first)
    loaded = load(first)
    save(loaded, again)
    with open(first) as fa, open(again) as fb:
        assert fa.read() == fb.read()
    assert loaded == I
    assert loaded._cache == stored
    sp.verify(loaded)


def test_zero_column_roundtrips(tmp_path, paper_monoid):
    """An r x 0 matrix is written as r blank rows, and a document that
    ends with one still loads."""
    trivial = sp.AffineMonoid(IntMatrix.zero(2, 0))
    path = str(tmp_path / "trivial.txt")
    save(trivial, path)
    loaded = load(path)
    assert isinstance(loaded, sp.AffineMonoid)
    assert loaded.gens == IntMatrix.zero(2, 0)
    assert loaded == trivial

    empty = sp.MonomialIdeal(paper_monoid, IntMatrix.zero(2, 0))
    path = str(tmp_path / "empty.txt")
    save(empty, path)
    loaded = load(path)
    assert isinstance(loaded, sp.MonomialIdeal)
    assert loaded.is_empty()
    assert loaded.gens == IntMatrix.zero(2, 0)
    assert loaded == empty


def test_dedup_monoids(paper_monoid):
    again = sp.AffineMonoid(IntMatrix.from_rows([[2, 1], [2, 0]]))
    assert dedup([paper_monoid, again]) == [paper_monoid]
    assert dedup([]) == []


def test_dedup_ideals_and_matrices(paper_monoid):
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_rows([[4, 6], [4, 6]]))
    J = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    assert len(dedup([I, J])) == 1
    A = IntMatrix.from_rows([[1, 2]])
    B = IntMatrix.from_rows([[1, 2]])
    C = IntMatrix.from_rows([[2, 1]])
    assert dedup([A, B, C]) == [A, C]


def test_dedup_pairs(paper_monoid):
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    a = sp.ProperPair((2, 0), (0,), I)
    b = sp.ProperPair((2, 0), (0,), I, skip_check=True)
    c = sp.ProperPair((3, 0), (0,), I)
    assert dedup([a, b, c]) == [a, c]


def test_dedup_rejects_mixed_types(paper_monoid):
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    with pytest.raises(ValueError):
        dedup([paper_monoid, I])


def test_export_macaulay2_golden_strings():
    Q = sp.AffineMonoid(IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_rows([[2, 2, 2], [0, 1, 2], [2, 2, 2]]))
    script = export_macaulay2(I, sp.standard_cover(I))
    assert "createMonomialSubalgebra {c, a*c, a*b*c, b*c}" in script
    assert "{a^2*c^2, a^2*b*c^2, a^2*b^2*c^2}" in script
    assert "{1, {c, b*c}}" in script
    assert "{a*c, {c, b*c}}" in script
    assert "{a*b*c, {c, b*c}}" in script


def test_export_macaulay2_empty_ideal(paper_monoid):
    E = sp.MonomialIdeal(paper_monoid, IntMatrix.zero(2, 0))
    script = export_macaulay2(E, sp.Cover.from_pairs([]))
    assert "I = {};" in script


def test_export_macaulay2_dimension_cap():
    Q = sp.AffineMonoid(IntMatrix.zero(27, 0))
    E = sp.MonomialIdeal(Q, IntMatrix.zero(27, 0))
    with pytest.raises(ValueError):
        export_macaulay2(E, sp.Cover.from_pairs([]))


def test_verify_detects_tampered_cover(tmp_path, paper_monoid):
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    sp.standard_cover(I)
    path = str(tmp_path / "ideal.txt")
    save(I, path)
    with open(path) as fh:
        text = fh.read().replace("0;0 0", "0;6 0")
    with open(path, "w") as fh:
        fh.write(text)
    loaded = load(path)
    with pytest.raises(ArchiveError):
        sp.verify(loaded)

_GOLDEN_TAMPERS = {
    # a proper pair dropped: the cover no longer covers std(I)
    "COVER": ("COVER\n9\n;3 1\n;4 1\n;4 2\n;5 3\n", "COVER\n8\n;3 1\n;4 1\n;4 2\n"),
    # one overlap class moved to another base over the same face
    "OVERLAP": ("1;1\n1;3 3\n", "1;1\n1;4 4\n"),
    # the zero face renamed to the top face
    "ASSOCIATED": ("ASSOCIATED\n3\n\n", "ASSOCIATED\n3\n0,1,2,3\n"),
    # the ideal itself added as a component: the components still intersect to I
    "DECOMPOSITION": ("DECOMPOSITION\n3\n", "DECOMPOSITION\n4\n2 3\n3 5 6\n2 1 1\n"),
}


@pytest.mark.parametrize("section", sorted(_GOLDEN_TAMPERS))
def test_verify_checks_every_stored_section(tmp_path, section):
    """The golden-session ideal saved with all of its caches verifies, and
    tampering any one stored section, in a way that still loads, makes
    ``verify`` raise an ``ArchiveError`` naming that section."""
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 2, 3], [1, 2, 0, 0]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_rows([[3, 5, 6], [2, 1, 1]]))
    I.overlap_classes()
    I.associated_primes()
    I.irreducible_decomposition()
    path = str(tmp_path / "golden.txt")
    save(I, path)
    sp.verify(load(path))
    old, new = _GOLDEN_TAMPERS[section]
    with open(path) as fh:
        text = fh.read()
    assert text.count(old) == 1
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))
    loaded = load(path)
    with pytest.raises(ArchiveError, match=f"stored {section} section"):
        sp.verify(loaded)


@pytest.mark.parametrize(
    "sections, bad_line, first_line",
    [
        (_IDEAL + "COVER\n3\n;1\n;1\n;1\n", 11, 10),
        ("COVER\n2\n;1\n;1\n", 8, 7),
        (_IDEAL + "OVERLAP\n1\n;2\n;1\n;1\n", 12, 11),
        (_IDEAL + "OVERLAP\n2\n;1\n;1\n;1\n;1\n", 13, 11),
        (_IDEAL + "ASSOCIATED\n2\n\n\n", 11, 10),
        (_IDEAL + "DECOMPOSITION\n2\n1 1\n5\n1 1\n5\n", 12, 10),
        (_IDEAL + "DECOMPOSITION\n2\n1 1\n5\n1 2\n5 5\n", 12, 10),
    ],
    ids=[
        "cover",
        "cover_document",
        "overlap_class",
        "overlap_two_classes",
        "associated",
        "decomposition",
        "decomposition_same_ideal",
    ],
)
def test_load_rejects_a_repeated_item(tmp_path, capsys, sections, bad_line, first_line):
    """A cached section lists each pair, face or component once (OVERLAP
    each pair once over all its classes); a repeat is an ``ArchiveError``
    naming the line it starts on, not merged away or kept twice."""
    from stdpairs.cli import main

    path = _write(tmp_path, "MONOID\n1 2\n2 3\n" + sections)
    message = f"line {bad_line}: repeats the item on line {first_line}"
    with pytest.raises(ArchiveError, match=f"^{message}$"):
        load(path)
    assert main(["--quiet", "monoid", path, "info"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("MONOID\n1 2\n2 3\n" + _IDEAL + "COVER\nx\n", "line 9: expected an integer count for COVER, got 'x'"),
        ("MONOID\n1 2\n2 3\n" + _IDEAL + "ASSOCIATED\n1\na\n", "line 10: bad face 'a'"),
        ("MONOID\n1 2\n2 3\n" + _IDEAL + "COVER\n1\n1\n", "line 10: expected 'face;base' pair line, got '1'"),
        ("MONOID\n1 2\n2 3\n" + _IDEAL + "OVERLAP\n1\n2\n", "line 10: expected 'face;count' class header"),
        (_IDEAL + "MONOID\n1 2\n2 3\n", "line 2: expected MONOID section"),
    ],
    ids=["count", "face", "pair_line", "class_header", "second_line"],
)
def test_load_rejects_malformed_lines(tmp_path, text, message):
    with pytest.raises(ArchiveError, match=f"^{re.escape(message)}$"):
        load(_write(tmp_path, text))


def test_verify_rejects_an_improper_stored_pair_and_passes_good_documents(tmp_path, paper_monoid):
    """``verify`` raises on a stored cover pair whose base lies in the ideal,
    and passes a cover document and a monoid that hold nothing wrong."""
    I = sp.MonomialIdeal(paper_monoid, IntMatrix.from_cols([(4, 4)]))
    cover = sp.standard_cover(I)
    path = str(tmp_path / "ideal.txt")
    save(I, path)
    with open(path) as fh:
        text = fh.read()
    assert text.count("0;0 0\n") == 1
    with open(path, "w") as fh:
        fh.write(text.replace("0;0 0\n", "0;4 4\n"))
    with pytest.raises(ArchiveError, match=r"stored cover pair \(\(4, 4\), \(0,\)\) is not proper"):
        sp.verify(load(path))
    save(cover, path)
    assert sp.verify(load(path)) is None
    save(paper_monoid, path)
    assert sp.verify(load(path)) is None


def _golden_ideal():
    """The golden ideal with its cover, overlap classes and decomposition."""
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 2, 3], [1, 2, 0, 0]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_rows([[3, 5, 6], [2, 1, 1]]))
    I.irreducible_decomposition()
    assert {"standard_cover", "overlap_classes", "irreducible_decomposition"} <= set(I._cache)
    return I


def _loaded_pairs(loaded) -> list:
    cover = loaded._cache.get("standard_cover")
    classes = loaded._cache.get("overlap_classes", {})
    return (cover.pairs() if cover else []) + [p for cs in classes.values() for c in cs for p in c.pairs]


def test_a_load_builds_one_pair_per_face_and_base(tmp_path):
    """Every OVERLAP pair is the COVER pair of its (face, base), and no
    loaded pair has built its hash text."""
    path = str(tmp_path / "golden.txt")
    save(_golden_ideal(), path)
    loaded = load(path)
    cover = {(p.face, p.base): p for p in loaded._cache["standard_cover"].pairs()}
    overlap = [p for cs in loaded._cache["overlap_classes"].values() for c in cs for p in c.pairs]
    assert len(overlap) == len(cover) and all(p is cover[p.face, p.base] for p in overlap)
    assert not any("hash_string" in p.__dict__ for p in _loaded_pairs(loaded))


def test_a_second_load_enumerates_no_facets(tmp_path, monkeypatch):
    """The loaded monoid reads its construction data from the solver cache
    entry of its matrix, which the first load left."""
    import stdpairs.diophantine as diophantine
    import stdpairs.polyhedral as polyhedral

    path = str(tmp_path / "golden.txt")
    save(_golden_ideal(), path)
    first = load(path)
    calls = []
    for module in (polyhedral, diophantine):
        original = module._facets_of_cone
        monkeypatch.setattr(module, "_facets_of_cone", lambda *args, original=original: calls.append(args) or original(*args))
    second = load(path)
    assert calls == []
    assert second == first and second._cache == first._cache


def test_overlap_without_cover_loads_and_verifies(tmp_path):
    """With no COVER to read them from, OVERLAP builds its own pairs."""
    I = _golden_ideal()
    J = sp.MonomialIdeal(I.ambient, I.gens)
    J._cache["overlap_classes"] = I._cache["overlap_classes"]
    path = str(tmp_path / "overlap.txt")
    save(J, path)
    loaded = load(path)
    assert not any("hash_string" in p.__dict__ for p in _loaded_pairs(loaded))
    assert set(loaded._cache) == {"overlap_classes"} and loaded._cache == J._cache
    sp.verify(loaded)


def test_a_load_of_minimal_matrices_builds_no_second_copy(tmp_path, monkeypatch):
    """``save`` writes sorted minimal generators, so a load keeps each
    IDEAL and DECOMPOSITION matrix as read: ``IntMatrix.from_cols`` is
    never called."""
    path = str(tmp_path / "golden.txt")
    save(_golden_ideal(), path)
    first = load(path)
    calls = []
    original = IntMatrix.from_cols.__func__
    monkeypatch.setattr(IntMatrix, "from_cols", classmethod(lambda cls, *args, **kw: calls.append(args) or original(cls, *args, **kw)))
    second = load(path)
    assert calls == []
    assert second == first and second._cache == first._cache


def test_a_load_parses_each_face_text_once(tmp_path, monkeypatch):
    """Each distinct face text of a document is parsed and checked once,
    however many COVER, OVERLAP and ASSOCIATED lines repeat it."""
    from stdpairs import archive

    parsed = []

    class Faces(dict):
        def __setitem__(self, text, face):
            parsed.append(text)
            super().__setitem__(text, face)

    class Reader(archive._Reader):
        def __init__(self, lines):
            super().__init__(lines)
            self.faces = Faces()

    I = _golden_ideal()
    I.associated_primes()
    path = str(tmp_path / "golden.txt")
    save(I, path)
    monkeypatch.setattr(archive, "_Reader", Reader)
    loaded = load(path)
    assert len(loaded._cache) == 4 and loaded._cache == {key: I._cache[key] for key in loaded._cache}
    with open(path) as fh:
        lines = fh.read().split("\n")
    start = lines.index("ASSOCIATED") + 1
    texts = [line.partition(";")[0] for line in lines if ";" in line]
    texts += lines[start + 1 : start + 1 + int(lines[start])]
    assert len(texts) > len(set(texts))
    assert sorted(parsed) == sorted(set(texts))


@pytest.mark.parametrize(
    "sections, bad_line, message",
    [
        ("COVER\n2\n0,1;5\n1;5\n", 11, r"\(1,\) is not a face"),
        ("COVER\n2\n0,1;5\n0,1,;5\n", 11, "bad face '0,1,'"),
        ("COVER\n1\n0,1;5\nOVERLAP\n1\n0,1;2\n0,1;5\n0;5\n", 15, r"\(0,\) is not a face"),
        ("ASSOCIATED\n2\n0,1\n0\n", 11, r"\(0,\) is not a face"),
        ("COVER\n1\n0,1;5\nASSOCIATED\n2\n0,1\nx\n", 14, "bad face 'x'"),
    ],
    ids=["cover_non_face", "cover_bad_text", "overlap_pair", "associated", "associated_bad_text"],
)
def test_a_bad_face_after_a_good_one_names_its_own_line(tmp_path, sections, bad_line, message):
    """A face text read after a good one is checked on its own line: only
    texts that passed are remembered."""
    path = _write(tmp_path, "MONOID\n1 2\n2 3\n" + _IDEAL + sections)
    with pytest.raises(ArchiveError, match=f"^line {bad_line}: {message}"):
        load(path)


@pytest.mark.parametrize("section", ["IDEAL", "DECOMPOSITION"])
def test_redundant_generators_load_minimal_and_save_minimal(tmp_path, section):
    """Unsorted, repeated and redundant generators in an IDEAL or a
    DECOMPOSITION matrix load to the constructor's sorted minimal
    generators, which ``save`` then writes."""
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]]))
    given = "2 4\n1 3 1 1\n1 3 0 1\n"
    minimal = "2 2\n1 1\n0 1\n"
    ideal = given if section == "IDEAL" else minimal
    text = "MONOID\n2 3\n1 1 1\n0 1 2\nIDEAL\n" + ideal
    if section == "DECOMPOSITION":
        text += "DECOMPOSITION\n1\n" + given
    loaded = load(_write(tmp_path, text))
    got = loaded if section == "IDEAL" else loaded._cache["irreducible_decomposition"][0]
    assert got.gens.columns() == [(1, 0), (1, 1)]
    assert got == sp.MonomialIdeal(Q, IntMatrix.from_cols([(1, 1), (3, 3), (1, 0), (1, 1)]))
    path = str(tmp_path / "saved.txt")
    save(loaded, path)
    with open(path) as fh:
        saved = fh.read()
    assert given not in saved and saved.count("\n" + minimal) == (1 if section == "IDEAL" else 2)


@pytest.mark.parametrize(
    "sections, message",
    [
        ("IDEAL\n1 2\n5 x\n", "line 7: non-integer entry in IDEAL"),
        ("IDEAL\n1 2\n5 x 1\n", "line 7: expected 2 entries in a row of IDEAL"),
        (_IDEAL + "DECOMPOSITION\n1\n1 1\n2.5\n", "line 11: non-integer entry in DECOMPOSITION"),
    ],
    ids=["ideal", "ideal_row_length_first", "decomposition"],
)
def test_a_non_integer_matrix_entry_keeps_its_message(tmp_path, sections, message):
    """A row is read in one pass; a row of the wrong length is named
    before a token that is not an integer."""
    with pytest.raises(ArchiveError, match=f"^{re.escape(message)}$"):
        load(_write(tmp_path, "MONOID\n1 2\n2 3\n" + sections))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_non_ascii_byte_is_an_archive_error_naming_its_line(tmp_path, newline):
    """A byte outside ASCII is an ``ArchiveError`` naming the line that
    holds it, lines counted as text mode reads them."""
    path = str(tmp_path / "bad.txt")
    with open(path, "wb") as fh:
        fh.write(newline.join(["STDPAIRS v1", "MONOID", "1 2", "2 3", "IDEAL", "1 1", "5"]).encode("ascii"))
        fh.write(newline.encode("ascii") + "0 1 é2\n".encode("utf-8"))
    with pytest.raises(ArchiveError, match="^line 8: byte 0xc3 is not ASCII$"):
        load(path)
