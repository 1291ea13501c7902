"""Text persistence, deduplication, and Macaulay2 script export.

Archive format (``STDPAIRS v1``): a line-oriented document of sections.
Integers are space-separated; matrices open with a ``rows cols`` header
followed by one line per row; faces are comma-separated column indices
(empty for the zero face, ``-1`` for the bottom element); pair lines are
``face;base``.  Sections:

    MONOID          generating matrix
    IDEAL           minimal generators of an ideal over that monoid
    COVER           pair count, then one pair line each
    OVERLAP         class count, then per class a ``face;count`` header
                    (count at least 1) and its pair lines, each over
                    the header's face
    ASSOCIATED      face count, then one face line per associated face
    DECOMPOSITION   component count, then one generator matrix each

A document is MONOID, then an optional IDEAL, then each cached section
(COVER, OVERLAP, ASSOCIATED, DECOMPOSITION) at most once.  With only
MONOID it loads to an AffineMonoid; with IDEAL to a MonomialIdeal whose
cache holds the cached sections; without IDEAL it holds at most one
COVER and loads to a Cover whose pairs are anchored to the empty ideal.
Every count is nonnegative.  A malformed line, a pair off its class's
face, a misplaced or repeated section and a repeated item of a cached
section (a COVER pair, a pair anywhere in OVERLAP, an ASSOCIATED face, a
DECOMPOSITION component; ``_Reader.once``) are each an ``ArchiveError``
naming its line number; so is a domain error (a non-pointed monoid, a
zero generator, a generator outside the monoid), named by its section's
header line.  A repeated pair is told by its ``(face, base)``, and a load
builds one ``ProperPair`` per ``(face, base)``: an OVERLAP pair that
COVER listed is COVER's object (``_Reader.take_pair``), and no pair's
hash text is built.  A load parses and checks each distinct face text
once (``_Reader.faces``), reads each line of integers in one pass, and
keeps an IDEAL or DECOMPOSITION matrix as read when its columns are
already the sorted minimal generators, as ``save`` writes them
(``MonomialIdeal``).  A byte that is not ASCII is an ``ArchiveError``
naming its line.  Each cached section's text form lives in one
``_SECTIONS`` entry, which ``document_lines``, ``load`` and ``verify``
all read.  Serialization is deterministic, so saving equal objects twice
produces identical bytes.
"""

from __future__ import annotations

from typing import Iterable

from .covers import Cover
from .decomp import OverlapClass
from .diophantine import IntMatrix
from .ideal import MonomialIdeal
from .monoid import AffineMonoid
from .pairs import ProperPair, is_proper
from .polyhedral import Face, face_sort_key

FORMAT_TAG = "STDPAIRS v1"


class ArchiveError(ValueError):
    """Malformed archive content; the message carries a line number."""


def _integer(token: str, what: str) -> int:
    """``token`` read as an integer; any other token is a ``ValueError``
    naming ``what`` and the token."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{what}: {token.strip()!r} is not an integer") from None


def _integers(text: str, what: str) -> tuple:
    """The space-separated integers of ``text``, read in one pass; a token
    that is not an integer is ``_integer``'s ``ValueError`` for it."""
    try:
        return tuple(map(int, text.split()))
    except ValueError:
        return tuple(_integer(token, what) for token in text.split())


# ---------------------------------------------------------------------------
# writing: each cached section's lines after its name

def _matrix_lines(M: IntMatrix) -> list:
    return [f"{M.rows} {M.cols}", *(" ".join(map(str, r)) for r in M.data)]


def _face_text(face: Face) -> str:
    return ",".join(str(j) for j in face)


def _pair_line(p: ProperPair) -> str:
    return _face_text(p.face) + ";" + " ".join(str(x) for x in p.base)


def _write_cover(cover: Cover) -> list:
    pairs = cover.pairs()
    return [str(len(pairs)), *map(_pair_line, pairs)]


def _write_overlap(classes_by_face: dict) -> list:
    classes = [c for cs in classes_by_face.values() for c in cs]
    lines = [str(len(classes))]
    for c in classes:
        lines += [f"{_face_text(c.face)};{len(c.pairs)}", *map(_pair_line, c.pairs)]
    return lines


def _write_associated(primes: dict) -> list:
    faces = sorted(primes, key=face_sort_key)
    return [str(len(faces)), *map(_face_text, faces)]


def _write_decomposition(components: list) -> list:
    return [str(len(components)), *(line for W in components for line in _matrix_lines(W.gens))]


# ---------------------------------------------------------------------------
# reading

class _Reader:
    def __init__(self, lines: list):
        self.lines = lines
        self.pos = 0
        self.seen: dict = {}  # item key -> its first line, over the section ``build`` reads
        self.pairs: dict = {}  # (face, base) -> the pair built for it, over the whole load
        self.faces: dict = {}  # face text -> the checked face it names, over the whole load

    def eof(self) -> bool:
        return self.pos >= len(self.lines)

    def take(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise ArchiveError(f"line {len(self.lines) + 1}: unexpected end of input while reading {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def take_if(self, section: str) -> bool:
        """Whether the next line is the header ``section``, which is then taken."""
        if self.eof() or self.lines[self.pos].strip() != section:
            return False
        self.pos += 1
        return True

    def once(self, take):
        """``take()``, an item that its section has not read before; a
        repeat is named by the line it starts on.  A pair is keyed by its
        ``(face, base)``, which tells pairs of one ideal apart as their hash
        text does, without building it."""
        line, item = self.pos + 1, take()
        key = (item.face, item.base) if isinstance(item, ProperPair) else item
        if key in self.seen:
            raise ArchiveError(f"line {line}: repeats the item on line {self.seen[key]}")
        self.seen[key] = line
        return item

    def error(self, message: str) -> ArchiveError:
        return ArchiveError(f"line {self.pos}: {message}")

    def build(self, make):
        """``make()``, a domain error in it named by the header line just
        taken; ``once`` checks its items against this call's alone."""
        header = self.pos
        self.seen = {}
        try:
            return make()
        except ArchiveError:
            raise
        except ValueError as exc:
            raise ArchiveError(f"line {header}: {exc}") from exc

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
        try:
            rows, cols = map(int, self.take(what).split())
        except ValueError:
            raise self.error(f"expected 'rows cols' header for {what}")
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
                data.append(tuple(map(int, entries)))
            except ValueError:
                raise self.error(f"non-integer entry in {what}")
        return IntMatrix(rows, cols, tuple(data))

    def take_face(self, text: str, monoid: AffineMonoid) -> Face:
        """The face written in ``text``, which must be a face of ``monoid``,
        the one monoid of the load: each text is parsed and checked on its
        first line only (``faces``), and a bad one on every line."""
        face = self.faces.get(text)
        if face is None:
            stripped = text.strip()
            try:
                face = tuple(map(int, stripped.split(","))) if stripped else ()
            except ValueError:
                raise self.error(f"bad face {stripped!r}")
            if face not in monoid._face_set:
                raise self.error(f"{face} is not a face of the monoid")
            self.faces[text] = face
        return face

    def take_pair(self, ideal: MonomialIdeal, face: Face | None = None) -> ProperPair:
        """A pair line read as an unchecked pair of ``ideal``; with ``face``,
        the pair must lie over it, as an overlap class's pairs do.  Each
        line is parsed and checked, and a ``(face, base)`` that an earlier
        section read (an OVERLAP pair of the COVER) resolves to the pair
        built for it then, so a load builds one pair per ``(face, base)``."""
        line = self.take("pair")
        face_text, semi, base_text = line.partition(";")
        if not semi:
            raise self.error(f"expected 'face;base' pair line, got {line!r}")
        pair_face = self.take_face(face_text, ideal.ambient)
        if face is not None and pair_face != face:
            raise self.error(f"pair over {pair_face} in a class over {face}")
        try:
            base = _integers(base_text, "base")
            pair = self.pairs.get((pair_face, base))
            if pair is None:
                pair = self.pairs[pair_face, base] = ProperPair(base, pair_face, ideal, skip_check=True)
            return pair
        except ValueError as exc:  # a non-integer entry, or a base of another dimension
            raise self.error(f"pair {exc}")


def _read_cover(reader: _Reader, ideal: MonomialIdeal) -> Cover:
    return Cover.from_pairs([reader.once(lambda: reader.take_pair(ideal)) for _ in range(reader.take_int("COVER"))])


def _read_overlap(reader: _Reader, ideal: MonomialIdeal) -> dict:
    classes: dict = {}
    for _ in range(reader.take_int("OVERLAP")):
        face_text, semi, n_text = reader.take("OVERLAP class").partition(";")
        if not semi:
            raise reader.error("expected 'face;count' class header")
        face = reader.take_face(face_text, ideal.ambient)
        npairs = reader.count(n_text, "OVERLAP class pairs", 1)
        pairs = tuple(reader.once(lambda: reader.take_pair(ideal, face)) for _ in range(npairs))
        classes.setdefault(face, []).append(OverlapClass(face, pairs))
    return {f: sorted(classes[f], key=lambda c: c.pairs[0].base) for f in sorted(classes, key=face_sort_key)}


def _read_associated(reader: _Reader, ideal: MonomialIdeal) -> dict:
    monoid = ideal.ambient
    count = reader.take_int("ASSOCIATED")
    faces = [reader.once(lambda: reader.take_face(reader.take("ASSOCIATED"), monoid)) for _ in range(count)]
    return {f: monoid.prime_ideal(f) for f in sorted(faces, key=face_sort_key)}


def _read_decomposition(reader: _Reader, ideal: MonomialIdeal) -> list:
    monoid = ideal.ambient
    count = reader.take_int("DECOMPOSITION")
    return [reader.once(lambda: MonomialIdeal(monoid, reader.take_matrix("DECOMPOSITION", monoid.dim))) for _ in range(count)]


# ---------------------------------------------------------------------------
# the cached sections: (cache key, section name, writer, reader), in the
# order ``save`` writes them

_SECTIONS = (
    ("standard_cover", "COVER", _write_cover, _read_cover),
    ("overlap_classes", "OVERLAP", _write_overlap, _read_overlap),
    ("associated_primes", "ASSOCIATED", _write_associated, _read_associated),
    ("irreducible_decomposition", "DECOMPOSITION", _write_decomposition, _read_decomposition),
)


def document_lines(target) -> list:
    if isinstance(target, AffineMonoid):
        return [FORMAT_TAG, "MONOID", *_matrix_lines(target.gens)]
    if isinstance(target, Cover):
        pairs = target.pairs()
        gens = pairs[0].ideal.ambient.gens if pairs else IntMatrix.zero(0, 0)
        return [FORMAT_TAG, "MONOID", *_matrix_lines(gens), "COVER", *_write_cover(target)]
    if not isinstance(target, MonomialIdeal):
        raise ValueError(f"cannot save object of type {type(target).__name__}")
    lines = [FORMAT_TAG, "MONOID", *_matrix_lines(target.ambient.gens), "IDEAL", *_matrix_lines(target.gens)]
    for key, name, write, _ in _SECTIONS:
        if key in target._cache:
            lines += [name, *write(target._cache[key])]
    return lines


def save(target, path: str) -> bool:
    """Write a monoid, ideal (with any cached results), or cover; returns True."""
    text = "\n".join(document_lines(target)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return True


def load(path: str):
    """Load an AffineMonoid, MonomialIdeal, or Cover from an archive file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:  # ``exc.object`` is the whole file, read in one call
        head = exc.object[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1  # as text mode counts lines
        raise ArchiveError(f"line {line}: byte 0x{exc.object[exc.start]:02x} is not ASCII") from None
    if not lines[-1]:
        lines.pop()  # the final newline; blank lines before it are rows of r x 0 matrices
    reader = _Reader(lines)
    tag = reader.take("format tag").strip()
    if tag != FORMAT_TAG:
        raise ArchiveError(f"line 1: unsupported format tag {tag!r} (expected {FORMAT_TAG!r})")
    if not reader.take_if("MONOID"):
        raise ArchiveError("line 2: expected MONOID section")
    monoid = reader.build(lambda: AffineMonoid(reader.take_matrix("MONOID")))
    sections = {name: (key, read) for key, name, _, read in _SECTIONS}
    if reader.take_if("IDEAL"):
        ideal = reader.build(lambda: MonomialIdeal(monoid, reader.take_matrix("IDEAL", monoid.dim)))
        cache, allowed = ideal._cache, set(sections)
    else:  # a cover document, whose pairs anchor to the empty ideal
        ideal = MonomialIdeal(monoid, IntMatrix.zero(monoid.dim, 0))
        cache, allowed = {}, {"COVER"}
    while not reader.eof():
        name = reader.take("section").strip()
        if name not in allowed:
            raise reader.error(f"section {name!r} is unknown, misplaced or repeated")
        allowed.remove(name)
        key, read = sections[name]
        cache[key] = reader.build(lambda: read(reader, ideal))
    return ideal if cache is ideal._cache else cache.get("standard_cover", monoid)


def verify(obj) -> None:
    """Re-check cached results attached to a loaded object; raises on mismatch.

    For an ideal, every stored cover pair must be proper, and each stored
    section must equal its recomputation by the ``MonomialIdeal`` method of
    the same name, made after every cached result is dropped."""
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
        stored = {key: obj._cache[key] for key, *_ in _SECTIONS if key in obj._cache}
        obj._cache.clear()
        for key, name, _, _ in _SECTIONS:
            if key in stored and getattr(obj, key)() != stored[key]:
                raise ArchiveError(f"stored {name} section disagrees with recomputation")
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
