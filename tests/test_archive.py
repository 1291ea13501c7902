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


@pytest.mark.parametrize("ideal", ["", "IDEAL\n1 1\n5\n"], ids=["cover", "ideal_cover"])
def test_load_rejects_cover_pair_over_non_face(tmp_path, ideal):
    """(0,) is not a face of N[2, 3], whose faces are () and (0, 1)."""
    path = str(tmp_path / "bad.txt")
    with open(path, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n1 2\n2 3\n" + ideal + "COVER\n1\n0;2\n")
    with pytest.raises(ValueError, match=r"\(0,\) is not a face"):
        load(path)


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