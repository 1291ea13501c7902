import io

import pytest

import stdpairs as sp
from stdpairs.cli import main, parse_face_arg, parse_matrix_arg
from stdpairs.diophantine import IntMatrix


def make_ideal_file(tmp_path):
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 2, 3], [1, 2, 0, 0]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_rows([[3, 5, 6], [2, 1, 1]]))
    path = str(tmp_path / "ideal.txt")
    sp.save(I, path)
    return path, I


def test_parse_matrix_arg():
    M = parse_matrix_arg("2 2; 1 2; 0 2")
    assert M.data == ((1, 2), (0, 2))
    assert parse_face_arg("0,1") == (0, 1)
    assert parse_face_arg("") == ()


def test_negative_matrix_dimensions_are_rejected(capsys):
    for text in ("-1 2", "2 -1; 1 2; 0 2", "-1 -1"):
        with pytest.raises(ValueError, match="line 1: negative matrix dimension for --matrix"):
            parse_matrix_arg(text)
    assert main(["monoid", "--matrix", "-1 2", "faces"]) == 2
    assert "line 1: negative matrix dimension for --matrix" in capsys.readouterr().err


def test_negative_archive_dimension_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("STDPAIRS v1\nMONOID\n-1 2\n")
    assert main(["monoid", str(path), "info"]) == 2
    assert "line 3: negative matrix dimension" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, bad_line",
    [
        ("COVER\n-2\n", 9),
        ("OVERLAP\n-1\n", 9),
        ("ASSOCIATED\n-3\n", 9),
        ("DECOMPOSITION\n-1\n", 9),
        ("OVERLAP\n1\n0,1;0\n", 10),
        ("OVERLAP\n1\n0,1;-3\n", 10),
    ],
    ids=["cover", "overlap", "associated", "decomposition", "empty_class", "negative_class"],
)
def test_bad_archive_count_exit_code(tmp_path, capsys, section, bad_line):
    """A negative count or an empty overlap class exits 2 naming its line;
    ``assoc`` prints no stored answer."""
    path = tmp_path / "bad.txt"
    path.write_text("STDPAIRS v1\nMONOID\n1 2\n2 3\nIDEAL\n1 1\n5\n" + section)
    assert main(["--quiet", "ideal", str(path), "assoc"]) == 2
    captured = capsys.readouterr()
    assert f"line {bad_line}: count" in captured.err and captured.out == ""


def test_empty_ideal_cover_and_export(tmp_path, capsys):
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 2], [0, 2, 2]]))
    path = str(tmp_path / "empty.txt")
    sp.save(sp.MonomialIdeal(Q, IntMatrix.zero(2, 0)), path)
    assert main(["--quiet", "ideal", path, "cover"]) == 0
    assert capsys.readouterr().out.startswith("{(0, 1, 2): [([[0], [0]]^T,")
    assert main(["--quiet", "export-m2", path]) == 0
    assert "I = {};" in capsys.readouterr().out


def test_monoid_faces_from_matrix(capsys):
    assert main(["monoid", "--matrix", "2 2; 1 2; 0 2", "faces"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "[(-1,), (), (0,), (1,), (0, 1)]"


def test_monoid_supports(capsys):
    assert main(["monoid", "--matrix", "2 2; 1 2; 0 2", "supports"]) == 0
    out = capsys.readouterr().out
    assert "(): [[0, 1], [1, -1]]" in out
    assert "(0, 1): []" in out


def test_monoid_info_and_save(tmp_path, capsys):
    out_path = str(tmp_path / "m.txt")
    assert main(["monoid", "--matrix", "2 2; 1 2; 0 2", "info", "--out", out_path]) == 0
    assert "pointed: True" in capsys.readouterr().out
    reloaded = sp.load(out_path)
    assert isinstance(reloaded, sp.AffineMonoid)


def test_ideal_cover_and_cache(tmp_path, capsys):
    path, I = make_ideal_file(tmp_path)
    out_path = str(tmp_path / "with_cover.txt")
    assert main(["--quiet", "ideal", path, "cover", "--out", out_path]) == 0
    assert "(2, 3)" in capsys.readouterr().out
    loaded = sp.load(out_path)
    assert "standard_cover" in loaded._cache


def test_ideal_radical(tmp_path, capsys):
    path, _ = make_ideal_file(tmp_path)
    assert main(["--quiet", "ideal", path, "radical"]) == 0
    assert "generating set" in capsys.readouterr().out


def test_ideal_assoc_and_mult(tmp_path, capsys):
    path, _ = make_ideal_file(tmp_path)
    assert main(["--quiet", "ideal", path, "assoc"]) == 0
    out = capsys.readouterr().out
    assert "(2, 3):" in out
    assert main(["--quiet", "ideal", path, "mult", "--face", "2,3"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_face_indices_in_any_order(tmp_path, capsys):
    assert parse_face_arg("3,2") == (2, 3)
    assert parse_face_arg(" 2,3,3 ") == (2, 3)
    path, _ = make_ideal_file(tmp_path)
    for face in ("3,2", "2,3,3", "3,2,3,2"):
        assert main(["--quiet", "ideal", path, "mult", "--face", face]) == 0
        assert capsys.readouterr().out.strip() == "1"


def test_a_non_integer_face_index_is_named(tmp_path, capsys):
    """A ``--face`` token that is not an integer is named with ``--face``,
    not by ``int()``'s own message."""
    for text in ("a", "1,a", " 2, a ,3"):
        with pytest.raises(ValueError, match="^--face: 'a' is not an integer$"):
            parse_face_arg(text)
    path, _ = make_ideal_file(tmp_path)
    assert main(["--quiet", "ideal", path, "mult", "--face", "a"]) == 2
    assert capsys.readouterr().err == "error: --face: 'a' is not an integer\n"


def test_a_non_integer_pair_base_is_named(tmp_path, capsys):
    """A pair base token that is not an integer exits 2 naming its line and
    the token, as ``--face`` does, not by ``int()``'s own message."""
    path = tmp_path / "bad.txt"
    path.write_text("STDPAIRS v1\nMONOID\n1 2\n2 3\nIDEAL\n1 1\n5\nCOVER\n1\n0,1;1.5\n")
    assert main(["--quiet", "ideal", str(path), "assoc"]) == 2
    assert capsys.readouterr().err == "error: line 10: pair base: '1.5' is not an integer\n"


def test_monoid_file_and_matrix_together_are_rejected(tmp_path, capsys):
    """``monoid FILE ACTION --matrix M`` names both sources and exits 2,
    whether or not FILE exists, instead of reading the matrix alone."""
    path, _ = make_ideal_file(tmp_path)
    for file in (path, str(tmp_path / "nonexistent.txt")):
        assert main(["monoid", file, "faces", "--matrix", "1 1; 1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: give the archive {file} or --matrix, not both\n"
    assert main(["monoid", "faces"]) == 2
    assert capsys.readouterr().err == "error: provide an archive file or --matrix\n"


def test_ideal_mult_requires_face(tmp_path, capsys):
    path, _ = make_ideal_file(tmp_path)
    assert main(["--quiet", "ideal", path, "mult"]) == 2


def test_ideal_decompose(tmp_path, capsys):
    path, I = make_ideal_file(tmp_path)
    assert main(["--quiet", "ideal", path, "decompose"]) == 0
    out = capsys.readouterr().out
    assert out.count("An ideal whose generating set is") == 3


def test_ideal_verify_flag(tmp_path, capsys):
    path, I = make_ideal_file(tmp_path)
    sp.standard_cover(I)
    sp.save(I, path)
    assert main(["--quiet", "ideal", path, "radical", "--verify"]) == 0


def test_pair_divides(tmp_path, capsys):
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    pair = sp.ProperPair((2, 0), (0,), I)
    f1 = str(tmp_path / "p1.txt")
    f2 = str(tmp_path / "p2.txt")
    sp.save(sp.Cover.from_pairs([pair]), f1)
    sp.save(sp.Cover.from_pairs([pair]), f2)
    assert main(["pair", "divides", f1, f2]) == 0
    assert capsys.readouterr().out.strip() == "[[0 0 0]]"


def test_pair_divides_verify_rejects_base_outside_monoid(tmp_path, capsys):
    path = tmp_path / "bad_cover.txt"
    path.write_text("STDPAIRS v1\nMONOID\n1 2\n2 3\nCOVER\n1\n;1\n")
    assert main(["pair", "divides", str(path), str(path)]) == 0
    capsys.readouterr()
    assert main(["pair", "divides", str(path), str(path), "--verify"]) == 2
    assert "base (1,) is outside the monoid" in capsys.readouterr().err


def test_pair_divides_rejects_pair_over_non_face(tmp_path, capsys):
    path = tmp_path / "non_face.txt"
    path.write_text("STDPAIRS v1\nMONOID\n1 2\n2 3\nCOVER\n1\n0;2\n")
    assert main(["pair", "divides", str(path), str(path)]) == 2
    assert "line 7: (0,) is not a face" in capsys.readouterr().err


def test_export_m2(tmp_path, capsys):
    Q = sp.AffineMonoid(IntMatrix.from_rows([[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_rows([[2, 2, 2], [0, 1, 2], [2, 2, 2]]))
    path = str(tmp_path / "sq.txt")
    sp.save(I, path)
    assert main(["--quiet", "export-m2", path]) == 0
    assert "createMonomialSubalgebra {c, a*c, a*b*c, b*c}" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = str(tmp_path / "bad.txt")
    with open(bad, "w") as fh:
        fh.write("NOT AN ARCHIVE\n")
    assert main(["monoid", bad, "info"]) == 2
    assert "error:" in capsys.readouterr().err


def test_domain_error_exit_code(tmp_path, capsys):
    path, _ = make_ideal_file(tmp_path)
    assert main(["monoid", path, "faces"]) == 0  # ideal file has a monoid inside
    capsys.readouterr()
    monoid_only = str(tmp_path / "m.txt")
    sp.save(sp.AffineMonoid(IntMatrix.identity(2)), monoid_only)
    assert main(["--quiet", "ideal", monoid_only, "cover"]) == 2


@pytest.mark.parametrize(
    "command",
    [["monoid", "{}", "info"], ["pair", "divides", "{}", "{}"], ["ideal", "{}", "cover"], ["export-m2", "{}"]],
)
def test_loop_cap_is_rejected_by_every_command(tmp_path, capsys, command):
    """The cover has no refinement loop to cap: no subcommand takes
    ``--loop-cap``, those that build a cover included."""
    path, _ = make_ideal_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["--quiet", *(c.format(path) for c in command), "--loop-cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --loop-cap 5" in capsys.readouterr().err


def test_progress_goes_to_stderr(tmp_path, capsys):
    path, _ = make_ideal_file(tmp_path)
    assert main(["ideal", path, "cover"]) == 0
    captured = capsys.readouterr()
    assert "generators are left" not in captured.out


def test_progress_handler_leaves_with_main(tmp_path, capsys, monkeypatch):
    """Progress goes to the stderr of the ``main`` call only: once that
    stream is closed, a later cover logs no error; ``--quiet`` still
    silences progress."""
    path, I = make_ideal_file(tmp_path)
    assert main(["--quiet", "ideal", path, "cover"]) == 0
    assert "generators are left" not in capsys.readouterr().err
    stream = io.StringIO()
    monkeypatch.setattr("sys.stderr", stream)
    assert main(["ideal", path, "cover"]) == 0
    assert "generators are left" in stream.getvalue()
    stream.close()
    monkeypatch.undo()
    sp.MonomialIdeal(I.ambient, I.gens).standard_cover()  # a fresh cache: the cover is rebuilt
    assert "Logging error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2; 1 2; 0 x", "line 3: non-integer entry in --matrix"),
        ("2 2; 1 2", "line 3: unexpected end of input while reading --matrix"),
        ("2 2; 1 2; 0 2; 3 3", "line 4: more lines than rows in --matrix"),
        ("2 2; 1; 0 2", "line 2: expected 2 entries in a row of --matrix"),
        ("2; 1 2", "line 1: expected 'rows cols' header for --matrix"),
    ],
    ids=["entry", "missing_line", "extra_line", "short_row", "header"],
)
def test_malformed_matrix_argument_names_its_line(capsys, text, message):
    """``--matrix`` is read as the archive reads a matrix, each ``;``-separated
    chunk one line counted from 1."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_matrix_arg(text)
    assert main(["monoid", "--matrix", text, "faces"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_monoid_file_verify_checks_an_ideal_archive(tmp_path, capsys):
    """``monoid FILE --verify`` re-checks the archive it reads, as ``ideal``
    does: a stored cover that lost a pair (its count fixed to match) exits 2."""
    path, I = make_ideal_file(tmp_path)
    sp.standard_cover(I)
    sp.save(I, path)
    with open(path) as fh:
        text = fh.read()
    old = "COVER\n9\n;3 1\n;4 1\n;4 2\n;5 3\n"
    assert text.count(old) == 1
    with open(path, "w") as fh:
        fh.write(text.replace(old, "COVER\n8\n;3 1\n;4 1\n;4 2\n"))
    assert main(["--quiet", "monoid", path, "info"]) == 0
    capsys.readouterr()
    for command in (["ideal", path, "cover"], ["monoid", path, "info"]):
        assert main(["--quiet", *command, "--verify"]) == 2
        assert capsys.readouterr().err == "error: stored COVER section disagrees with recomputation\n"


def _archives(tmp_path):
    """A monoid, an ideal and a one-pair cover document, saved."""
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    paths = {kind: str(tmp_path / f"{kind}.txt") for kind in ("monoid", "ideal", "cover")}
    sp.save(Q, paths["monoid"])
    sp.save(I, paths["ideal"])
    sp.save(sp.Cover.from_pairs([sp.ProperPair((2, 0), (0,), I)]), paths["cover"])
    return paths


@pytest.mark.parametrize(
    "command, kind, held, wanted",
    [
        (["monoid", "{}", "info"], "cover", "Cover", "AffineMonoid"),
        (["ideal", "{}", "cover"], "monoid", "AffineMonoid", "MonomialIdeal"),
        (["ideal", "{}", "cover"], "cover", "Cover", "MonomialIdeal"),
        (["export-m2", "{}"], "monoid", "AffineMonoid", "MonomialIdeal"),
        (["pair", "divides", "{}", "{}"], "ideal", "MonomialIdeal", "Cover"),
        (["pair", "divides", "{}", "{}"], "monoid", "AffineMonoid", "Cover"),
    ],
    ids=["monoid_cover", "ideal_monoid", "ideal_cover", "export_m2_monoid", "pair_ideal", "pair_monoid"],
)
def test_every_subcommand_names_a_file_of_the_wrong_kind(tmp_path, capsys, command, kind, held, wanted):
    path = _archives(tmp_path)[kind]
    assert main(["--quiet", *(c.format(path) for c in command)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path} holds {held}, not {wanted}\n" and captured.out == ""


def test_pair_divides_names_a_cover_of_two_pairs(tmp_path, capsys):
    one = _archives(tmp_path)["cover"]
    two = str(tmp_path / "two.txt")
    with open(two, "w") as fh:
        fh.write("STDPAIRS v1\nMONOID\n2 2\n1 2\n0 2\nCOVER\n2\n0;2 0\n0;0 0\n")
    assert main(["pair", "divides", one, two]) == 2
    assert capsys.readouterr().err == f"error: {two} must contain exactly one pair, found 2\n"


def test_pair_divides_prints_an_empty_witness(tmp_path, capsys):
    """No translate of a pair over (0,) fits in a pair over (): the witness
    matrix has no rows and prints as ``[]``."""
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 2], [0, 2]]))
    I = sp.MonomialIdeal(Q, IntMatrix.from_cols([(4, 4)]))
    f1, f2 = str(tmp_path / "p1.txt"), str(tmp_path / "p2.txt")
    sp.save(sp.Cover.from_pairs([sp.ProperPair((2, 0), (0,), I)]), f1)
    sp.save(sp.Cover.from_pairs([sp.ProperPair((0, 0), (), I)]), f2)
    assert main(["pair", "divides", f1, f2]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_a_non_ascii_byte_exits_2_naming_its_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes("STDPAIRS v1\nMONOID\n1 2\n2 3\nIDEAL\n1 1\n5 é\n".encode("utf-8"))
    assert main(["--quiet", "ideal", str(path), "cover"]) == 2
    assert capsys.readouterr().err == "error: line 7: byte 0xc3 is not ASCII\n"
