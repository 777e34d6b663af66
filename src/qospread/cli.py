"""Command-line surface: generate, verify, example, mub.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 invalid
parameters or malformed input file, 3 I/O failure (a closed stdout included).

When the process was started as qospread (``python -m qospread.cli``, where
argv[0] is this file, or the ``qospread`` console script) and numpy is not
loaded yet, this module imports numpy and the layers with the garbage
collector off, then freezes what they made (``gc.freeze``) and turns it back
on, so neither the run's collections nor the one at exit walk that heap.  It
also sets ``OPENBLAS_NUM_THREADS=1`` before importing numpy, unless the caller
has set it: OpenBLAS then starts no worker threads, which would spin on every
other core, ``--help`` and usage errors included (``mub`` splits its overlap
products over threads of its own, ``verify.check_mub_overlaps``; the other
subcommands make no BLAS call).  Any other program that imports this module
keeps its own collector state and OpenBLAS default.  ``verify`` and ``weyl``
load only in the subcommands that run them.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

_STARTED_AS_QOSPREAD = "numpy" not in sys.modules and (
    sys.argv[0] == __file__ or os.path.splitext(os.path.basename(sys.argv[0]))[0] == "qospread")
if _STARTED_AS_QOSPREAD:
    gc.disable()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import family_io, phase_space
from .constructions import ConstructionParams, build_masa_spread, build_recursive, build_spread_2
from .finite_field import require_odd_prime
from .phase_space import span_enumerate
from .report import DEFAULT_TOL, _power

if _STARTED_AS_QOSPREAD:
    gc.freeze()
    gc.enable()

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


def cmd_generate(args) -> int:
    try:
        require_odd_prime(args.p)  # say that p is not prime before counting its points
        if args.n > 1 and args.k > 0:  # build_recursive's index check, before the field search (seconds at large p^k)
            phase_space._check_index_size(phase_space._nonzero_lines(args.p, 2 * args.k * args.n))
        poly = _parse_coords(args.poly_override) if args.poly_override else None
        nonres = _parse_coords(args.d_override) if args.d_override else None
        params = ConstructionParams.create(args.p, args.k, args.n, poly=poly, nonresidue=nonres)
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
    from . import verify

    try:
        ff = family_io.load(args.path)
        if args.mode != "numeric":  # from the stored row counts, before any elimination, which only lowers them
            phase_space._check_index(ff.rows, ff.labels)
        else:  # the dimension is the header's: refuse before the field
            verify._numeric_dim(ff.p, ff.k * ff.n)
        family = family_io.to_family(ff)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except family_io.FamilyFormatError as exc:
        print(f"error: malformed family file: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    bad_rows = family_io.noncanonical_members(ff)
    ok = not bad_rows
    if bad_rows:
        print(f"integrity: FAIL ({len(bad_rows)} members with non-canonical rows)")
        for label, detail in bad_rows[:10]:
            print(f"  {label}: {detail}")
    else:
        print(f"integrity: ok ({len(ff.labels)} members, canonical rows)")

    if args.mode in ("symbolic", "both"):
        rep, partition = verify.verify_symbolic(family)
        ok = ok and rep.passed
        print(f"symbolic: {rep.describe()}")
        if partition is None:
            print(f"partition: skipped (ambient has {_power(ff.p, 2 * ff.k * ff.n)} points)")
        else:
            ok = ok and partition.passed
            print(f"partition: {partition.describe()}")

    if args.mode in ("numeric", "both"):
        try:
            verify._numeric_dim(ff.p, ff.k * ff.n)  # refused above in numeric mode
        except ValueError as exc:
            print(f"numeric: skipped ({exc})")
        else:
            rep = verify.verify_qo_numeric(family, args.tol, sample_pairs=args.sample)
            ok = ok and rep.passed
            print(f"numeric: {rep.describe()}")

    print(f"result: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _display_label(label: str) -> str:
    return label.replace("[", "_{").replace("]", "}").replace("inf", "∞")


def cmd_example(args) -> int:
    from .weyl import monomial_text

    del args
    params = ConstructionParams.create(3, 1, 2)
    family = build_spread_2(params)
    for mem in family.members:
        names = [monomial_text(pt) for pt in span_enumerate(mem.subspace)]
        print(f"span{{π({_display_label(mem.label)})}} = {{ {', '.join(names)} }}")
    return EXIT_OK


def _basis_bytes(basis: np.ndarray) -> bytes:
    """One line per column of ``basis``: its entries as ``+x.xxxe+xx+y.yyye+yyj``,
    space separated, in ASCII.  Each distinct double (by bit pattern) is formatted
    once, the same bytes as ``f"{x:+.15e}"``, NaN, inf and -0.0 included, into a
    row of a byte table padded with NULs; the entries gather their rows, the
    separators go in after each pair, and the padding is dropped at the end."""
    rows, cols = basis.shape
    bits = np.ascontiguousarray(basis.T, dtype=complex).view(np.int64).ravel()
    ordered = np.sort(bits)  # np.unique takes ten times as long here
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    tokens = ["%+.15e" % x for x in distinct.view(np.float64).tolist()]
    width = max(map(len, tokens))
    table = np.frombuffer("".join(token.ljust(width, "\0") for token in tokens).encode("ascii"), dtype=np.uint8)
    text = np.empty((cols, rows, 2 * width + 2), dtype=np.uint8)  # real token, imaginary token, "j", separator
    text[..., :-2] = table.reshape(-1, width).take(np.searchsorted(distinct, bits), axis=0).reshape(cols, rows, -1)
    text[..., -2], text[..., -1], text[:, -1, -1] = ord("j"), ord(" "), ord("\n")
    return text.tobytes().replace(b"\0", b"")


def cmd_mub(args) -> int:
    from . import verify

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
        with open(out, "wb") as handle:
            handle.write(f"# {len(bases)} mutually unbiased bases of C^{dim} (p={args.p}, "
                         f"k={args.k}, basis vectors are columns, one per line)\n".encode())
            for label, basis in zip(masas.labels(), bases):
                handle.write(f"basis {label}\n".encode())
                handle.write(_basis_bytes(basis))
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {out}: {len(bases)} bases of C^{dim}")
    print(f"unbiasedness: {rep.describe()}")
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        # argparse's own writer drops OSError, which would hide a closed stdout
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    ver.add_argument("--tol", type=_positive(float), default=DEFAULT_TOL)
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
    mub.add_argument("--tol", type=_positive(float), default=DEFAULT_TOL)
    mub.set_defaults(func=cmd_mub)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)  # --help and usage errors leave by SystemExit
            code = args.func(args)
        finally:
            sys.stdout.flush()  # a closed stdout shows here, not at exit
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())  # leaves nothing for the flush at exit to fail on
        os.close(null)
        print("error: cannot write to stdout: broken pipe", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
