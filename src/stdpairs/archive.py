"""Text persistence, deduplication, and Macaulay2 script export.

Archive format (``STDPAIRS v1``): a line-oriented document of sections.
Integers are space-separated; matrices open with a ``rows cols`` header
followed by one line per row; faces are comma-separated column indices
(empty for the zero face, ``-1`` for the bottom element); pair lines are
``face;base``.  Sections:

    MONOID          generating matrix (required, always first)
    IDEAL           minimal generators of an ideal over that monoid
    COVER           pair count, then one pair line each
    OVERLAP         class count, then per class a ``face;count`` header
                    (count at least 1) and its pair lines
    ASSOCIATED      face count, then one face line per associated face
    DECOMPOSITION   component count, then one generator matrix each

A document with only MONOID loads to an AffineMonoid; MONOID+IDEAL (plus
optional cached sections) to a MonomialIdeal; MONOID+COVER without IDEAL
to a Cover whose pairs are anchored to the empty ideal.  Every count is
nonnegative; a malformed line is an ``ArchiveError`` naming its line
number.  Serialization is
deterministic, so saving equal objects twice produces identical bytes.
"""

from __future__ import annotations

from typing import Iterable

from .covers import Cover
from .decomp import OverlapClass
from .diophantine import IntMatrix, vec
from .ideal import MonomialIdeal
from .monoid import AffineMonoid
from .pairs import ProperPair
from .polyhedral import Face, face_sort_key

FORMAT_TAG = "STDPAIRS v1"


class ArchiveError(ValueError):
    """Malformed archive content; the message carries a line number."""


# ---------------------------------------------------------------------------
# writing

def _matrix_lines(M: IntMatrix) -> list:
    lines = [f"{M.rows} {M.cols}"]
    for r in M.data:
        lines.append(" ".join(str(x) for x in r))
    return lines


def _face_text(face: Face) -> str:
    return ",".join(str(j) for j in face)


def _pair_line(p: ProperPair) -> str:
    return _face_text(p.face) + ";" + " ".join(str(x) for x in p.base)


def _cover_lines(cover: Cover) -> list:
    pairs = cover.pairs()
    lines = ["COVER", str(len(pairs))]
    lines.extend(_pair_line(p) for p in pairs)
    return lines


def document_lines(target) -> list:
    lines = [FORMAT_TAG]
    if isinstance(target, AffineMonoid):
        lines.append("MONOID")
        lines.extend(_matrix_lines(target.gens))
        return lines
    if isinstance(target, MonomialIdeal):
        lines.append("MONOID")
        lines.extend(_matrix_lines(target.ambient.gens))
        lines.append("IDEAL")
        lines.extend(_matrix_lines(target.gens))
        cache = target._cache
        if "standard_cover" in cache:
            lines.extend(_cover_lines(cache["standard_cover"]))
        if "overlap_classes" in cache:
            classes = [c for cs in cache["overlap_classes"].values() for c in cs]
            lines.append("OVERLAP")
            lines.append(str(len(classes)))
            for c in classes:
                lines.append(_face_text(c.face) + ";" + str(len(c.pairs)))
                lines.extend(_pair_line(p) for p in c.pairs)
        if "associated_primes" in cache:
            faces = sorted(cache["associated_primes"], key=face_sort_key)
            lines.append("ASSOCIATED")
            lines.append(str(len(faces)))
            lines.extend(_face_text(f) for f in faces)
        if "irreducible_decomposition" in cache:
            comps = cache["irreducible_decomposition"]
            lines.append("DECOMPOSITION")
            lines.append(str(len(comps)))
            for W in comps:
                lines.extend(_matrix_lines(W.gens))
        return lines
    if isinstance(target, Cover):
        pairs = target.pairs()
        lines.append("MONOID")
        lines.extend(_matrix_lines(pairs[0].ideal.ambient.gens if pairs else IntMatrix.zero(0, 0)))
        lines.extend(_cover_lines(target))
        return lines
    raise ValueError(f"cannot save object of type {type(target).__name__}")


def save(target, path: str) -> bool:
    """Write a monoid, ideal (with any cached results), or cover; returns True."""
    text = "\n".join(document_lines(target)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return True


# ---------------------------------------------------------------------------
# reading

class _Reader:
    def __init__(self, lines: list):
        self.lines = lines
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.lines)

    def take(self, what: str) -> str:
        if self.eof():
            raise ArchiveError(f"line {len(self.lines) + 1}: unexpected end of file while reading {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def error(self, message: str) -> ArchiveError:
        return ArchiveError(f"line {self.pos}: {message}")

    def take_int(self, what: str) -> int:
        return self.count(self.take(what), what)

    def count(self, text: str, what: str, least: int = 0) -> int:
        """``text`` read as a count of at least ``least`` for ``what``."""
        text = text.strip()
        try:
            n = int(text)
        except ValueError:
            raise self.error(f"expected an integer count for {what}, got {text!r}")
        if n < least:
            raise self.error(f"count {n} for {what} is below {least}")
        return n

    def take_matrix(self, what: str, dim: int | None = None) -> IntMatrix:
        """A ``rows cols`` header and its rows; with ``dim``, a matrix with
        columns must have ``dim`` rows, as ``MonomialIdeal`` asks."""
        header = self.take(what).split()
        if len(header) != 2:
            raise self.error(f"expected 'rows cols' header for {what}")
        try:
            rows, cols = int(header[0]), int(header[1])
        except ValueError:
            raise self.error(f"bad matrix header for {what}")
        if rows < 0 or cols < 0:
            raise self.error(f"negative matrix dimension for {what}")
        if dim is not None and cols and rows != dim:
            raise self.error(f"{what} generators have dim {rows}, ambient has {dim}")
        data = []
        for _ in range(rows):
            entries = self.take(what).split()
            if len(entries) != cols:
                raise self.error(f"expected {cols} entries in a row of {what}")
            try:
                data.append(tuple(int(x) for x in entries))
            except ValueError:
                raise self.error(f"non-integer entry in {what}")
        return IntMatrix(rows, cols, tuple(data))

    def take_face(self, text: str, faces: frozenset) -> Face:
        """The face written in ``text``, which must be in ``faces``."""
        text = text.strip()
        try:
            face = tuple(int(t) for t in text.split(",")) if text else ()
        except ValueError:
            raise self.error(f"bad face {text!r}")
        if face not in faces:
            raise self.error(f"{face} is not a face of the monoid")
        return face

    def take_pair_line(self, faces: frozenset, dim: int):
        line = self.take("pair")
        if ";" not in line:
            raise self.error(f"expected 'face;base' pair line, got {line!r}")
        face_text, base_text = line.split(";", 1)
        face = self.take_face(face_text, faces)
        try:
            base = vec(base_text.split())
        except ValueError:
            raise self.error("non-integer entry in pair base")
        if len(base) != dim:
            raise self.error(f"pair base has dim {len(base)}, expected {dim}")
        return face, base


def load(path: str):
    """Load an AffineMonoid, MonomialIdeal, or Cover from an archive file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()  # the final newline; blank lines before it are rows of r x 0 matrices
    reader = _Reader(lines)
    tag = reader.take("format tag").strip()
    if tag != FORMAT_TAG:
        raise ArchiveError(f"line 1: unsupported format tag {tag!r} (expected {FORMAT_TAG!r})")
    if reader.eof() or reader.take("section").strip() != "MONOID":
        raise ArchiveError("line 2: expected MONOID section")
    monoid = AffineMonoid(reader.take_matrix("MONOID"))
    faces = monoid._face_set

    ideal = None
    cover_data = None
    overlap_data = None
    associated_faces = None
    components = None
    while not reader.eof():
        section = reader.take("section").strip()
        if section == "IDEAL":
            ideal = MonomialIdeal(monoid, reader.take_matrix("IDEAL", monoid.dim))
        elif section == "COVER":
            count = reader.take_int("COVER")
            cover_data = [reader.take_pair_line(faces, monoid.dim) for _ in range(count)]
        elif section == "OVERLAP":
            count = reader.take_int("OVERLAP")
            overlap_data = []
            for _ in range(count):
                header = reader.take("OVERLAP class")
                if ";" not in header:
                    raise reader.error("expected 'face;count' class header")
                face_text, n_text = header.split(";", 1)
                face = reader.take_face(face_text, faces)
                npairs = reader.count(n_text, "OVERLAP class pairs", 1)
                overlap_data.append((face, [reader.take_pair_line(faces, monoid.dim) for _ in range(npairs)]))
        elif section == "ASSOCIATED":
            count = reader.take_int("ASSOCIATED")
            associated_faces = [reader.take_face(reader.take("ASSOCIATED"), faces) for _ in range(count)]
        elif section == "DECOMPOSITION":
            count = reader.take_int("DECOMPOSITION")
            components = [reader.take_matrix("DECOMPOSITION", monoid.dim) for _ in range(count)]
        else:
            raise reader.error(f"unknown section {section!r}")

    if ideal is None:
        if cover_data is None:
            return monoid
        anchor = MonomialIdeal(monoid, IntMatrix.zero(monoid.dim, 0))
        return Cover.from_pairs(
            ProperPair(base, face, anchor, skip_check=True) for face, base in cover_data
        )

    if cover_data is not None:
        ideal._cache["standard_cover"] = Cover.from_pairs(
            ProperPair(base, face, ideal, skip_check=True) for face, base in cover_data
        )
    if overlap_data is not None:
        classes: dict = {}
        for face, pair_lines in overlap_data:
            pairs = tuple(
                ProperPair(base, pface, ideal, skip_check=True) for pface, base in pair_lines
            )
            classes.setdefault(face, []).append(OverlapClass(face, pairs))
        ideal._cache["overlap_classes"] = {
            f: sorted(classes[f], key=lambda c: c.pairs[0].base)
            for f in sorted(classes, key=face_sort_key)
        }
    if associated_faces is not None:
        ideal._cache["associated_primes"] = {
            f: monoid.prime_ideal(f) for f in sorted(associated_faces, key=face_sort_key)
        }
    if components is not None:
        ideal._cache["irreducible_decomposition"] = [
            MonomialIdeal(monoid, M) for M in components
        ]
    return ideal


# The cached results an archive stores, by cache key and section name.
_STORED_SECTIONS = (
    ("standard_cover", "COVER"),
    ("overlap_classes", "OVERLAP"),
    ("associated_primes", "ASSOCIATED"),
    ("irreducible_decomposition", "DECOMPOSITION"),
)


def verify(obj) -> None:
    """Re-check cached results attached to a loaded object; raises on mismatch.

    For an ideal, every stored cover pair must be proper, and each stored
    section must equal its recomputation by the ``MonomialIdeal`` method of
    the same name, made after every cached result is dropped."""
    from .pairs import is_proper

    if isinstance(obj, AffineMonoid):
        return
    if isinstance(obj, Cover):
        for p in obj.pairs():
            if not p.ideal.ambient.contains(p.base):
                raise ArchiveError(f"cover pair base {p.base} is outside the monoid")
        return
    if isinstance(obj, MonomialIdeal):
        if "standard_cover" in obj._cache:
            for p in obj._cache["standard_cover"].pairs():
                if not is_proper(p):
                    raise ArchiveError(f"stored cover pair ({p.base}, {p.face}) is not proper")
        stored = {key: obj._cache[key] for key, _ in _STORED_SECTIONS if key in obj._cache}
        obj._cache.clear()
        for key, section in _STORED_SECTIONS:
            if key in stored and getattr(obj, key)() != stored[key]:
                raise ArchiveError(f"stored {section} section disagrees with recomputation")
        return
    raise ValueError(f"cannot verify object of type {type(obj).__name__}")


# ---------------------------------------------------------------------------
# deduplication

def _dedup_key(item) -> str:
    if isinstance(item, (AffineMonoid, MonomialIdeal, ProperPair)):
        return item.hash_string
    if isinstance(item, IntMatrix):
        return item.to_token()
    raise ValueError(f"cannot deduplicate objects of type {type(item).__name__}")


def dedup(items: Iterable) -> list:
    """First occurrence of each mathematically distinct object, order kept."""
    items = list(items)
    if items:
        first = type(items[0])
        if not all(isinstance(x, first) for x in items):
            raise ValueError("dedup requires a homogeneous sequence")
    seen = set()
    out = []
    for x in items:
        key = _dedup_key(x)
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# Macaulay2 export

def _monomial(vector, names) -> str:
    parts = []
    for x, name in zip(vector, names):
        if x == 0:
            continue
        parts.append(name if x == 1 else f"{name}^{x}")
    return "*".join(parts) if parts else "1"


def export_macaulay2(I: MonomialIdeal, cover: Cover) -> str:
    """A Macaulay2 script reconstructing the monomial subalgebra, ideal, and cover.

    Rows of the ambient generating matrix become the variables a, b, c, ...;
    each column turns into the corresponding monomial.
    """
    monoid = I.ambient
    if monoid.dim > 26:
        raise ValueError("Macaulay2 export supports at most 26 ambient dimensions")
    names = [chr(ord("a") + i) for i in range(monoid.dim)]
    ring_vars = ",".join(names)
    sub_gens = ", ".join(_monomial(c, names) for c in monoid.gens.columns())
    ideal_gens = ", ".join(_monomial(c, names) for c in I.gens.columns())
    cover_items = []
    for face, ps in cover.entries:
        face_monos = ", ".join(_monomial(monoid.gens.col(j), names) for j in face)
        for p in ps:
            cover_items.append("{" + _monomial(p.base, names) + ", {" + face_monos + "}}")
    cover_text = "{" + ", ".join(cover_items) + "}"
    return "\n".join(
        [
            'needsPackage "Normaliz";',
            f"R = QQ[{ring_vars}];",
            f"S = createMonomialSubalgebra {{{sub_gens}}};",
            f"I = {{{ideal_gens}}};",
            f"C = {cover_text};",
        ]
    ) + "\n"
