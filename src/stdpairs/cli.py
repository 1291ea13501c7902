"""Command-line interface.

Subcommands:
    stdpairs monoid (FILE | --matrix "r c; e11 e12; ...") {info|faces|supports}
    stdpairs ideal FILE {cover|radical|assoc|mult --face CSV|decompose}
    stdpairs pair divides FILE1 FILE2
    stdpairs export-m2 FILE

``--matrix`` is the archive's matrix text with ``;`` between its lines, and
its errors name ``line N`` of that text, counting from 1.  Every archive a
subcommand reads goes through one loader, and ``--verify`` re-checks each
one's cached results, ``monoid FILE`` included.  ``--out`` writes an archive
for ``monoid`` and ``ideal``, the witness matrix's one-line token for
``pair divides`` and the Macaulay2 script for ``export-m2``.

Results go to stdout; progress lines go to stderr (suppressed by --quiet).
Exit codes: 0 success, 2 parse or domain error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .archive import ArchiveError, _integer, _Reader, export_macaulay2, load, save, verify
from .covers import Cover, standard_cover
from .decomp import associated_primes, irreducible_decomposition, multiplicity
from .diophantine import IntMatrix
from .ideal import MonomialIdeal
from .monoid import AffineMonoid


def parse_matrix_arg(text: str) -> IntMatrix:
    """Read "r c; e11 e12 ...; e21 e22 ..." as the archive reads a matrix,
    each ``;``-separated chunk one line."""
    reader = _Reader([c.strip() for c in text.split(";")])
    M = reader.take_matrix("--matrix")
    if not reader.eof():
        reader.take("--matrix")
        raise reader.error("more lines than rows in --matrix")
    return M


def parse_face_arg(text: str):
    """Face indices from comma-separated text, sorted and deduplicated, so
    that any order or repetition names the same face; a token that is not
    an integer is a ``ValueError`` naming ``--face`` and the token."""
    text = text.strip()
    if text in ("", "()"):
        return ()
    return tuple(sorted({_integer(token, "--face") for token in text.split(",")}))


def _load(path: str, kind: type, check: bool):
    """The ``kind`` object that archive ``path`` holds, an ideal's ambient
    monoid serving as a monoid; with ``check``, the archive's cached
    results are verified first."""
    obj = load(path)
    held = obj.ambient if kind is AffineMonoid and isinstance(obj, MonomialIdeal) else obj
    if not isinstance(held, kind):
        raise ValueError(f"{path} holds {type(obj).__name__}, not {kind.__name__}")
    if check:
        verify(obj)
    return held


def cmd_monoid(args) -> int:
    if args.file is not None and args.matrix is not None:
        raise ValueError(f"give the archive {args.file} or --matrix, not both")
    if args.file is None and args.matrix is None:
        raise ValueError("provide an archive file or --matrix")
    monoid = _load(args.file, AffineMonoid, args.verify) if args.matrix is None else AffineMonoid(parse_matrix_arg(args.matrix))
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
    ideal = _load(args.file, MonomialIdeal, args.verify)
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
        pairs = _load(path, Cover, args.verify).pairs()
        if len(pairs) != 1:
            raise ValueError(f"{path} must contain exactly one pair, found {len(pairs)}")
        covers.append(pairs[0])
    result = divides(covers[0], covers[1])
    print(result)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(result.to_token() + "\n")
    return 0


def cmd_export_m2(args) -> int:
    ideal = _load(args.file, MonomialIdeal, args.verify)
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
        p.add_argument("--out", help="write an archive (monoid, ideal), the witness matrix's one-line token"
                       " (pair divides) or the Macaulay2 script (export-m2) to this path")
        p.add_argument("--verify", action="store_true", help="re-check the cached results of every archive read")

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
