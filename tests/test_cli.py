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
        with pytest.raises(ValueError, match="matrix dimensions must be nonnegative"):
            parse_matrix_arg(text)
    assert main(["monoid", "--matrix", "-1 2", "faces"]) == 2
    assert "matrix dimensions must be nonnegative" in capsys.readouterr().err


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
    assert "(0,) is not a face" in capsys.readouterr().err


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


def test_loop_cap_exit_code(tmp_path, capsys):
    # this ideal's second generator fold needs more than one refinement
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]]))
    path = str(tmp_path / "ideal.txt")
    sp.save(sp.MonomialIdeal(Q, IntMatrix.from_rows([[2, 3], [1, 5]])), path)
    assert main(["--quiet", "ideal", path, "cover", "--loop-cap", "1"]) == 3
    assert "did not stabilize within 1 iterations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["ideal", "cover"], ["export-m2"], ["ideal", "radical"], ["ideal", "assoc"], ["ideal", "decompose"]],
)
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_loop_cap_below_one_exit_code(tmp_path, capsys, command, cap):
    path, _ = make_ideal_file(tmp_path)
    argv = ["--quiet", command[0], path, *command[1:], "--loop-cap", cap]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"loop cap must be at least 1, got {cap}" in err
    assert "did not stabilize" not in err


@pytest.mark.parametrize("action", ["radical", "assoc", "decompose"])
def test_loop_cap_reaches_every_cover_action(tmp_path, capsys, action):
    Q = sp.AffineMonoid(IntMatrix.from_rows([[1, 1, 1], [0, 1, 2]]))
    path = str(tmp_path / "ideal.txt")
    sp.save(sp.MonomialIdeal(Q, IntMatrix.from_rows([[2, 3], [1, 5]])), path)
    assert main(["--quiet", "ideal", path, action, "--loop-cap", "1"]) == 3
    assert "did not stabilize within 1 iterations" in capsys.readouterr().err
    assert main(["--quiet", "ideal", path, action, "--loop-cap", "2"]) == 0


@pytest.mark.parametrize("command", [["monoid", "{}", "info"], ["pair", "divides", "{}", "{}"]])
def test_loop_cap_rejected_where_no_cover_is_built(tmp_path, capsys, command):
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
