"""Command-line interface.

Subcommands:
    stdpairs monoid (FILE | --matrix "r c; e11 e12; ...") {info|faces|supports}
    stdpairs ideal FILE {cover|radical|assoc|mult --face CSV|decompose}
    stdpairs pair divides FILE1 FILE2
    stdpairs export-m2 FILE

Results go to stdout; progress lines go to stderr (suppressed by --quiet).
Exit codes: 0 success, 2 parse or domain error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .archive import ArchiveError, export_macaulay2, load, save, verify
from .covers import Cover, standard_cover
from .decomp import associated_primes, irreducible_decomposition, multiplicity
from .diophantine import IntMatrix
from .ideal import MonomialIdeal
from .monoid import AffineMonoid


def parse_matrix_arg(text: str) -> IntMatrix:
    """Parse "r c; e11 e12 ...; e21 e22 ..." into a matrix."""
    chunks = [c.strip() for c in text.split(";")]
    header = chunks[0].split()
    if len(header) != 2:
        raise ValueError('matrix argument must start with "rows cols;"')
    rows, cols = int(header[0]), int(header[1])
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if len(chunks) != rows + 1:
        raise ValueError(f"expected {rows} rows in matrix argument")
    data = []
    for chunk in chunks[1:]:
        entries = chunk.split()
        if len(entries) != cols:
            raise ValueError(f"expected {cols} entries per row in matrix argument")
        data.append(tuple(int(x) for x in entries))
    return IntMatrix(rows, cols, tuple(data))


def parse_face_arg(text: str):
    """Face indices from comma-separated text, sorted and deduplicated, so
    that any order or repetition names the same face."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    return tuple(sorted({int(t) for t in text.split(",")}))


def _load_monoid(args) -> AffineMonoid:
    if args.matrix:
        return AffineMonoid(parse_matrix_arg(args.matrix))
    if not args.file:
        raise ValueError("provide an archive file or --matrix")
    obj = load(args.file)
    if not isinstance(obj, AffineMonoid):
        if isinstance(obj, MonomialIdeal):
            return obj.ambient
        raise ValueError("file does not contain an affine monoid")
    return obj


def _load_ideal(args) -> MonomialIdeal:
    obj = load(args.file)
    if not isinstance(obj, MonomialIdeal):
        raise ValueError("file does not contain a monomial ideal")
    if args.verify:
        verify(obj)
    return obj


def cmd_monoid(args) -> int:
    monoid = _load_monoid(args)
    if args.action == "info":
        print(monoid)
        print(f"pointed: {monoid.is_pointed()}")
        print(f"faces: {len(monoid.faces)}")
        print("minimal generators: ")
        print(monoid.mingens)
        print(f"hash: {monoid.hash_string}")
    elif args.action == "faces":
        print("[" + ", ".join(str(f) for f in monoid.faces) + "]")
    elif args.action == "supports":
        for face, support in monoid.supports.items():
            print(f"{face}: {list(map(list, support.data))}")
    if args.out:
        save(monoid, args.out)
    return 0


def cmd_ideal(args) -> int:
    ideal = _load_ideal(args)
    if args.action == "mult" and args.face is None:
        raise ValueError("mult requires --face")
    cover = standard_cover(ideal)  # memoized: every action reuses it
    if args.action == "cover":
        print(cover)
    elif args.action == "radical":
        print(ideal.radical())
    elif args.action == "assoc":
        for face, prime in associated_primes(ideal).items():
            print(f"{face}:")
            print(prime)
    elif args.action == "mult":
        print(multiplicity(ideal, parse_face_arg(args.face)))
    elif args.action == "decompose":
        for W in irreducible_decomposition(ideal):
            print(W)
    if args.out:
        save(ideal, args.out)
    return 0


def cmd_pair(args) -> int:
    from .pairs import divides

    covers = []
    for path in (args.file1, args.file2):
        obj = load(path)
        if not isinstance(obj, Cover):
            raise ValueError(f"{path} does not contain a cover")
        if args.verify:
            verify(obj)
        pairs = obj.pairs()
        if len(pairs) != 1:
            raise ValueError(f"{path} must contain exactly one pair, found {len(pairs)}")
        covers.append(pairs[0])
    result = divides(covers[0], covers[1])
    if result.rows == 0:
        print("[]")
    else:
        print(result)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(result.to_token() + "\n")
    return 0


def cmd_export_m2(args) -> int:
    ideal = _load_ideal(args)
    script = export_macaulay2(ideal, standard_cover(ideal))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(script)
    else:
        print(script, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stdpairs",
        description="Standard pairs and irreducible decompositions of monomial ideals over pointed affine semigroups.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the (cached) result object to this archive path")
        p.add_argument("--verify", action="store_true", help="re-check cached results on load")

    p_monoid = sub.add_parser("monoid", help="inspect an affine monoid")
    p_monoid.add_argument("file", nargs="?", help="archive file")
    p_monoid.add_argument("--matrix", help='generating matrix as "r c; e11 e12; ..."')
    p_monoid.add_argument("action", choices=["info", "faces", "supports"])
    common(p_monoid)
    p_monoid.set_defaults(func=cmd_monoid)

    p_ideal = sub.add_parser("ideal", help="compute with a monomial ideal")
    p_ideal.add_argument("file", help="archive file with MONOID and IDEAL sections")
    p_ideal.add_argument("action", choices=["cover", "radical", "assoc", "mult", "decompose"])
    p_ideal.add_argument("--face", help="face for mult, as comma-separated indices")
    common(p_ideal)
    p_ideal.set_defaults(func=cmd_ideal)

    p_pair = sub.add_parser("pair", help="pair operations")
    p_pair.add_argument("operation", choices=["divides"])
    p_pair.add_argument("file1", help="cover archive containing one pair")
    p_pair.add_argument("file2", help="cover archive containing one pair")
    common(p_pair)
    p_pair.set_defaults(func=cmd_pair)

    p_m2 = sub.add_parser("export-m2", help="emit a Macaulay2 script for an ideal and its cover")
    p_m2.add_argument("file", help="archive file with MONOID and IDEAL sections")
    common(p_m2)
    p_m2.set_defaults(func=cmd_export_m2)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # progress goes to this call's stderr only: the handler leaves with main
    log = logging.getLogger("stdpairs")
    level = log.level
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        return args.func(args)
    except (ArchiveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
