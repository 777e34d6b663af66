"""Command-line surface: generate, verify, example, mub.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 invalid
parameters or malformed input file, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import family_io, phase_space, verify
from .constructions import ConstructionParams, build_masa_spread, build_recursive, build_spread_2
from .phase_space import span_enumerate
from .weyl import monomial_text

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


def _parse_coords(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from exc


def _positive(kind):
    """An argparse type: the text read as ``kind``, refused (exit 2) unless it is > 0."""
    def positive(text: str):
        value = kind(text)
        if not value > 0:  # NaN too
            raise argparse.ArgumentTypeError(f"expected a positive {kind.__name__}, got {text!r}")
        return value
    return positive


def _make_params(args) -> ConstructionParams:
    poly = _parse_coords(args.poly_override) if args.poly_override else None
    nonres = _parse_coords(args.d_override) if args.d_override else None
    return ConstructionParams.create(args.p, args.k, args.n, poly=poly, nonresidue=nonres)


def cmd_generate(args) -> int:
    try:
        params = _make_params(args)
        family = build_recursive(params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    ff = family_io.from_family(family)
    try:
        family_io.save(ff, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}: {len(family.rows)} members of M_"
          f"{params.p ** (params.k * params.n)}, each a copy of M_{params.p ** params.k}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: malformed family file: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        ff = family_io.parse(text)
        if args.mode in ("symbolic", "both"):  # a span has at most p^rows points: refuse before any elimination
            phase_space._check_index_size(ff.rows)
        family = family_io.to_family(ff)
    except family_io.FamilyFormatError as exc:
        print(f"error: malformed family file: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    ok = True
    bad_rows = family_io.noncanonical_members(ff, family)
    if bad_rows:
        ok = False
        print(f"integrity: FAIL ({len(bad_rows)} members with non-canonical rows)")
        for label, detail in bad_rows[:10]:
            print(f"  {label}: {detail}")
    else:
        print(f"integrity: ok ({len(ff.labels)} members, canonical rows)")

    if args.mode in ("symbolic", "both"):
        try:
            rep, partition = verify.verify_symbolic(family)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
        ok = ok and rep.passed
        print(f"symbolic: {rep.describe()}")
        if partition is None:
            print(f"partition: skipped (ambient has {ff.p ** (2 * ff.k * ff.n)} points)")
        else:
            ok = ok and partition.passed
            print(f"partition: {partition.describe()}")

    if args.mode in ("numeric", "both"):
        dim = ff.p ** (ff.k * ff.n)
        if dim > verify.NUMERIC_MAX_DIM:
            if args.mode == "numeric":
                print(f"error: dimension {dim} exceeds the numeric guard "
                      f"{verify.NUMERIC_MAX_DIM}", file=sys.stderr)
                return EXIT_BAD_INPUT
            print(f"numeric: skipped (dimension {dim} exceeds guard {verify.NUMERIC_MAX_DIM})")
        else:
            rep = verify.verify_qo_numeric(family, args.tol, sample_pairs=args.sample)
            ok = ok and rep.passed
            print(f"numeric: {rep.describe()}")

    print(f"result: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _display_label(label: str) -> str:
    return label.replace("[", "_{").replace("]", "}").replace("inf", "∞")


def cmd_example(args) -> int:
    del args
    params = ConstructionParams.create(3, 1, 2)
    family = build_spread_2(params)
    for mem in family.members:
        names = [monomial_text(pt) for pt in span_enumerate(mem.subspace)]
        print(f"span{{π({_display_label(mem.label)})}} = {{ {', '.join(names)} }}")
    return EXIT_OK


def _basis_text(basis: np.ndarray) -> str:
    """One line per column of ``basis``: its entries as ``+x.xxxe+xx+y.yyye+yyj``,
    space separated: each distinct double (by bit pattern) is formatted once,
    the same bytes as ``f"{x:+.15e}"``, NaN, inf and -0.0 included, and one
    ``%`` format places the tokens of the interleaved real and imaginary parts."""
    rows, cols = basis.shape
    line = " ".join(["%s%sj"] * rows)
    bits = np.ascontiguousarray(basis.T, dtype=complex).view(np.int64).ravel()
    distinct, at = np.unique(bits, return_inverse=True)
    tokens = ["%+.15e" % x for x in distinct.view(np.float64).tolist()]
    return ("\n".join([line] * cols) + "\n") % tuple([tokens[i] for i in at.tolist()])


def cmd_mub(args) -> int:
    try:
        dim = verify._numeric_dim(args.p, 2 * args.k)
        params = ConstructionParams.create(args.p, args.k, 2)
        masas = build_masa_spread(params)
        bases = verify.extract_mub_bases(masas)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rep = verify.check_mub_overlaps(bases, args.tol, masas.labels())
    out = args.out or f"mub_p{args.p}_k{args.k}.txt"
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(f"# {len(bases)} mutually unbiased bases of C^{dim} (p={args.p}, "
                         f"k={args.k}, basis vectors are columns, one per line)\n")
            for mem, basis in zip(masas.members, bases):
                handle.write(f"basis {mem.label}\n")
                handle.write(_basis_text(basis))
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out}: {len(bases)} bases of C^{dim}")
    print(f"unbiasedness: {rep.describe()}")
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qospread",
        description="Construct and verify maximal families of pairwise "
                    "quasi-orthogonal matrix subalgebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a family and write it to a file")
    gen.add_argument("--p", type=int, required=True, help="odd prime, the base dimension")
    gen.add_argument("--k", type=int, default=1, help="field extension degree (default 1)")
    gen.add_argument("--n", type=int, default=2, help="number of M_{p^k} blocks (default 2)")
    gen.add_argument("--out", required=True, help="output family file")
    gen.add_argument("--d-override", help="non-residue coordinates, comma separated")
    gen.add_argument("--poly-override", help="field polynomial low coefficients, comma separated")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="verify a stored family file")
    ver.add_argument("path", help="family file to verify")
    ver.add_argument("--mode", choices=("symbolic", "numeric", "both"), default="both")
    ver.add_argument("--tol", type=_positive(float), default=verify.DEFAULT_TOL)
    ver.add_argument("--sample", type=_positive(int), default=None,
                     help="number of member pairs for the numeric check (default: all, "
                          "or 200 when there are many)")
    ver.set_defaults(func=cmd_verify)

    exa = sub.add_parser("example", help="print the ten M_3 subalgebras of M_9 (D = 2)")
    exa.set_defaults(func=cmd_example)

    mub = sub.add_parser("mub", help="extract mutually unbiased bases from the masa spread")
    mub.add_argument("--p", type=int, required=True)
    mub.add_argument("--k", type=int, default=1)
    mub.add_argument("--out", default=None, help="output file (default mub_p{p}_k{k}.txt)")
    mub.add_argument("--tol", type=_positive(float), default=verify.DEFAULT_TOL)
    mub.set_defaults(func=cmd_mub)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
