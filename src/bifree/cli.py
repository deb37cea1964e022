"""Command-line interface.

Subcommands: ``lattice``, ``cumulants``, ``moments``, ``dq``,
``conjugate-check``, ``gaussian {fisher|entropy|dimension|moments}``,
``bipartite {fisher|conjugate|make-semicircular}``, ``selftest``.

Exit codes, by exception type alone: 0 success, 1 a failing self-test
check, 2 bad input (a ``BifreeInputError``, a missing or unreadable file, a
refused overwrite, or arguments argparse rejects), 3 a
``NonConvergenceError`` (the entropy quadrature reaching its halving cap),
4 any other exception, a stray ``ValueError`` included, reported with its
traceback.  Error text goes to standard error.
``--format`` is ``json`` or ``text``, except for ``make-semicircular``, which
writes ``json`` or a JSON header naming its ``csv`` values; ``--grid`` reads
either form, and ``--grid`` or ``--c`` is required, not both.  JSON output is
compact.  Rationals are serialized as ``"p/q"`` strings in JSON and scalar
floats with 12 significant digits; the ``bipartite conjugate`` arrays and
density values keep full precision.  The quadrature's ``error_bound`` adds
the rounding step of the printed ``entropy`` and is rounded up, so it
bounds the distance from the printed value, not only the computed one, to
the true entropy.  Text output uses 11 significant digits.
Every writer (``--out`` and ``make-semicircular`` in both forms) refuses an
existing file without --force, and leaves no file behind if it fails.
The large outputs (the ``bipartite conjugate`` arrays, the density grids and
the ``lattice`` partitions) are written row by row, to a file or to stdout,
in the same bytes as one ``json.dumps`` of the whole payload.
Each handler imports the modules it runs, so an invocation loads only those:
``lattice`` loads ``bnclattice``; ``cumulants`` and ``moments`` load
``cumulant`` (with the ``ncalg`` and ``bnclattice`` it imports); ``dq`` loads
``ncalg`` and ``derivation``; ``conjugate-check`` loads the four exact
modules; ``gaussian`` loads ``gaussfam`` (with ``bnclattice``) and
``bipartite`` loads ``bipartite_num``, which bring numpy; ``selftest`` loads
every module.  Parsing the arguments (``--help`` included) loads none.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from collections.abc import Iterable
from typing import TYPE_CHECKING

from ._io import BifreeInputError, NonConvergenceError
from ._io import json_object, load_json, write_files, write_stdout

if TYPE_CHECKING:
    from . import bipartite_num as bp


def _fmt_float(v: float) -> str:
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.11g}"


def _jfloat(v: float):
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(f"{v:.12g}")


def _jbound(value: float, bound: float):
    """``bound`` plus the rounding step from ``value`` to ``_jfloat(value)``,
    rounded up to 12 significant digits: a bound on the distance from the
    printed value to the true one."""
    from decimal import ROUND_CEILING, Context, Decimal

    if not (math.isfinite(value) and math.isfinite(bound)):
        return _jfloat(bound)
    step = abs(_jfloat(value) - value)  # exact: the two lie within a factor of 2
    return float(Context(prec=12, rounding=ROUND_CEILING).add(Decimal(bound), Decimal(step)))


def _write_output(text: str | Iterable[str], args) -> None:
    if args.out:
        write_files({args.out: text}, overwrite=args.force)
    else:
        write_stdout(text)


def _emit(payload: dict, args, default_format: str, text_fn) -> None:
    """Write ``payload`` as JSON or ``text_fn(payload)`` (a ``str`` or its
    chunks); a payload value that is a generator of rows is written a row
    at a time (``_io.json_object``)."""
    if (args.format or default_format) == "json":
        _write_output(json_object(payload), args)
    else:
        _write_output(text_fn(payload), args)


def _add_common(parser: argparse.ArgumentParser, handler, formats=("json", "text")) -> None:
    """The output options of a subcommand, and the handler that runs it."""
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--format", choices=formats, default=None)
    parser.add_argument("--force", action="store_true", help="allow overwriting --out")
    parser.add_argument("--quiet", action="store_true", help="suppress warnings")
    parser.set_defaults(handler=handler, parser=parser)


def _infer_mode(poly_text: str, mode_name: str, left_arity, right_arity, extra=()):
    from . import ncalg as nc

    top = {nc.LEFT: 0, nc.RIGHT: 0}
    letters = [l for _, legs in nc._literal_terms(poly_text) for leg in legs for l in leg]
    for side, index in [(l.side, l.index) for l in letters if l.kind == nc.VAR] + list(extra):
        top[side] = max(top[side], index)
    n = left_arity if left_arity is not None else top[nc.LEFT]
    m = right_arity if right_arity is not None else top[nc.RIGHT]
    return nc.AlgebraMode(mode_name, n, m)


# -- subcommand handlers --------------------------------------------------------


def _cmd_lattice(args) -> int:
    from . import bnclattice as bl

    chi = bl.validate_chi(tuple(args.chi))
    partitions = bl.enumerate_bnc(chi)
    payload = {
        "chi": "".join(chi),
        "count": len(partitions),
        "partitions": (p.blocks for p in partitions),  # JSON writes tuples as lists
        "mobius_0_to_1": bl.mobius(bl.zero_partition(chi), bl.one_partition(chi)),
    }

    def text(p):
        yield f"chi = {p['chi']}\ncount = {p['count']}\nmobius(0,1) = {p['mobius_0_to_1']}"
        for blocks in p["partitions"]:
            yield f"\n{list(map(list, blocks))}"

    _emit(payload, args, "json", text)
    return 0


def _functional_from_spec(path: str):
    from . import cumulant as cu
    from . import ncalg as nc

    spec = cu.load_spec(path)
    mode = nc.AlgebraMode("free", spec.n, spec.m)
    return spec, mode, cu.CumulantMomentFunctional(mode, spec)


def _cmd_cumulants(args) -> int:
    from . import cumulant as cu
    from . import ncalg as nc

    spec, mode, phi = _functional_from_spec(args.spec)
    word = nc.parse_word(args.word, mode)
    if not word:
        raise BifreeInputError("cumulants need at least one letter")
    chi = tuple(l.side for l in word)
    value = cu.cumulant_chi(phi, chi, [(l,) for l in word])
    payload = {"word": args.word, "chi": "".join(chi), "value": str(value)}
    _emit(payload, args, "json", lambda p: p["value"])
    return 0


def _cmd_moments(args) -> int:
    from . import ncalg as nc

    spec, mode, phi = _functional_from_spec(args.spec)
    value = phi.phi(nc.parse_word(args.word, mode))
    payload = {"word": args.word, "value": str(value)}
    _emit(payload, args, "json", lambda p: p["value"])
    return 0


def _cmd_dq(args) -> int:
    from . import derivation as dv
    from . import ncalg as nc

    side = nc.LEFT if args.side == "left" else nc.RIGHT
    mode = _infer_mode(
        args.poly, args.mode, args.left_arity, args.right_arity, extra=[(side, args.index)]
    )
    p = nc.parse_poly(args.poly, mode)
    kind = dv.QuotientKind(side, args.index, flipped=args.flipped)
    result = dv.bifree_dq(p, kind, mode)
    literal = nc.format_tensor(result)
    payload = {"input": args.poly, "side": args.side, "index": args.index,
               "flipped": args.flipped, "mode": mode.mode, "tensor": literal}
    _emit(payload, args, "text", lambda pl: pl["tensor"])
    return 0


def _cmd_conjugate_check(args) -> int:
    from . import cumulant as cu
    from . import derivation as dv
    from . import ncalg as nc

    spec = cu.load_spec(args.spec)
    mode = nc.AlgebraMode(args.mode, spec.n, spec.m)
    phi = cu.CumulantMomentFunctional(mode, spec)
    xi = nc.parse_poly(args.xi, mode)
    side = nc.LEFT if args.side == "left" else nc.RIGHT
    report = dv.conjugate_check(phi, dv.QuotientKind(side, args.index), xi, args.max_degree, mode)
    failure = None
    if report.first_failure:
        word, lhs, rhs = report.first_failure
        failure = {"word": nc.format_word(word), "lhs": str(lhs), "rhs": str(rhs)}
    payload = {
        "passed": report.passed,
        "checked": report.checked,
        "max_degree": report.max_degree,
        "first_failure": failure,
    }

    def text(p):
        if p["passed"]:
            return f"PASS ({p['checked']} words up to degree {p['max_degree']})"
        f = p["first_failure"]
        return f"FAIL at {f['word']}: {f['lhs']} != {f['rhs']}"

    _emit(payload, args, "json", text)
    return 0


def _cmd_gaussian_fisher(args) -> int:
    from . import gaussfam as gf

    cov = load_json(args.cov, gf.Covariance.from_json_dict)
    value = gf.fisher(cov) if args.t is None else gf.fisher_perturbed(cov, args.t)
    payload = {"fisher": _jfloat(value), "t": args.t}
    _emit(payload, args, "text", lambda p: _fmt_float(value))
    return 0


def _cmd_gaussian_entropy(args) -> int:
    from . import gaussfam as gf

    cov = load_json(args.cov, gf.Covariance.from_json_dict)
    if args.method == "closed":
        value = gf.entropy_closed(cov)
        payload = {"entropy": _jfloat(value), "method": "closed"}
    else:
        result = gf.entropy_quadrature(
            lambda t: gf.fisher_perturbed(cov, t), cov.size, tol=args.quad_tol
        )
        value = result.value
        payload = {
            "entropy": _jfloat(result.value),
            "error_bound": _jbound(result.value, result.error_bound),
            "evaluations": result.evaluations,
            "method": "quadrature",
        }
    _emit(payload, args, "text", lambda p: _fmt_float(value))
    return 0


def _cmd_gaussian_dimension(args) -> int:
    from . import gaussfam as gf

    cov = load_json(args.cov, gf.Covariance.from_json_dict)
    if args.method == "closed":
        value: float | int = gf.entropy_dimension(cov)
    else:
        value = gf.entropy_dimension_limit(
            lambda t: gf.fisher_perturbed(cov, t), cov.size
        )
    payload = {"dimension": value if isinstance(value, int) else _jfloat(value),
               "method": args.method}
    _emit(payload, args, "text",
          lambda p: str(value) if isinstance(value, int) else _fmt_float(value))
    return 0


def _parse_pattern(text: str):
    pattern = []
    for token in text.split():
        if not re.fullmatch("[lr][0-9]+", token):
            raise BifreeInputError(f"pattern tokens look like l1 or r2, got {token!r}")
        pattern.append((token[0], int(token[1:])))
    return pattern


def _cmd_gaussian_moments(args) -> int:
    from . import gaussfam as gf

    cov = load_json(args.cov, gf.Covariance.from_json_dict)
    pattern = _parse_pattern(args.pattern)
    value = gf.gaussian_moment(cov, pattern)
    payload = {"pattern": args.pattern, "moment": _jfloat(value)}
    if args.depth is not None:
        model = gf.build_fock_model(cov, args.depth)
        payload["fock"] = _jfloat(gf.fock_moment(model, pattern))
    _emit(payload, args, "text", lambda p: _fmt_float(value))
    return 0


def _grid_from_args(args) -> bp.DensityGrid:
    from . import bipartite_num as bp

    if args.grid is not None:
        return bp.load_density(args.grid)
    return bp.semicircular_density(args.c, bp.GridSpec(args.n, args.n))


def _cmd_bipartite_fisher(args) -> int:
    from . import bipartite_num as bp

    grid = _grid_from_args(args)
    value = bp.fisher_numeric(grid, bp.FieldConfig(eps=args.eps, richardson=args.richardson))
    payload = {"fisher": _jfloat(value)}
    _emit(payload, args, "text", lambda p: _fmt_float(value))
    return 0


def _cmd_bipartite_conjugate(args) -> int:
    from . import bipartite_num as bp

    grid = _grid_from_args(args)
    fld = bp.conjugate_field(grid, bp.FieldConfig(eps=args.eps, richardson=args.richardson))
    payload = {
        **bp.axes_to_json_dict(grid),
        "eps_x": fld.eps_x,
        "eps_y": fld.eps_y,
        "xi_left": (row.tolist() for row in fld.xi_left),
        "xi_right": (row.tolist() for row in fld.xi_right),
        "mask": (row.astype(int).tolist() for row in fld.mask),
    }
    _emit(payload, args, "json",
          lambda p: f"conjugate fields on {p['nx']}x{p['ny']} grid")
    return 0


def _cmd_bipartite_make(args) -> int:
    if not args.out:
        raise BifreeInputError("make-semicircular requires --out")
    from . import bipartite_num as bp

    grid = bp.semicircular_density(args.c, bp.GridSpec(args.n, args.n))
    if args.format == "csv":
        bp.save_density_csv(grid, args.out, overwrite=args.force)
    else:
        bp.save_density(grid, args.out, overwrite=args.force)
    if not args.quiet:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(fast=args.fast)


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifree",
        description="Two-faced noncommutative probability: lattices, cumulants, "
        "difference quotients, conjugate variables, Fisher information and entropy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="enumerate a bi-non-crossing lattice")
    p.add_argument("--chi", required=True, help="side sequence, e.g. lrlr")
    _add_common(p, _cmd_lattice)

    p = sub.add_parser("cumulants", help="cumulant of a word under a cumulant spec")
    p.add_argument("--spec", required=True, help="cumulant spec JSON file")
    p.add_argument("--word", required=True, help="letters, e.g. 'X1 Y1 X1'")
    _add_common(p, _cmd_cumulants)

    p = sub.add_parser("moments", help="moment of a word under a cumulant spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--word", required=True)
    _add_common(p, _cmd_moments)

    p = sub.add_parser("dq", help="apply a difference quotient to a polynomial")
    p.add_argument("poly", help="polynomial literal, e.g. 'X1 X1 Y1'")
    p.add_argument("--side", choices=["left", "right"], required=True)
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--flipped", action="store_true")
    p.add_argument("--mode", choices=["free", "bipartite"], default="bipartite")
    p.add_argument("--left-arity", type=int, default=None)
    p.add_argument("--right-arity", type=int, default=None)
    _add_common(p, _cmd_dq)

    p = sub.add_parser("conjugate-check", help="verify a polynomial conjugate variable")
    p.add_argument("--spec", required=True)
    p.add_argument("--xi", required=True, help="candidate polynomial literal")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--index", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=6)
    p.add_argument("--mode", choices=["free", "bipartite"], default="bipartite")
    _add_common(p, _cmd_conjugate_check)

    gaussian = sub.add_parser("gaussian", help="central-limit family computations")
    gsub = gaussian.add_subparsers(dest="gaussian_command", required=True)

    p = gsub.add_parser("fisher")
    p.add_argument("--cov", required=True, help="covariance JSON file")
    p.add_argument("--t", type=float, default=None, help="perturbation time")
    _add_common(p, _cmd_gaussian_fisher)

    p = gsub.add_parser("entropy")
    p.add_argument("--cov", required=True)
    p.add_argument("--method", choices=["closed", "quadrature"], default="closed")
    p.add_argument("--quad-tol", type=float, default=1e-9)
    _add_common(p, _cmd_gaussian_entropy)

    p = gsub.add_parser("dimension")
    p.add_argument("--cov", required=True)
    p.add_argument("--method", choices=["closed", "limit"], default="closed")
    _add_common(p, _cmd_gaussian_dimension)

    p = gsub.add_parser("moments")
    p.add_argument("--cov", required=True)
    p.add_argument("--pattern", required=True, help="e.g. 'l1 r1 l1 r1'")
    p.add_argument("--depth", type=int, default=None,
                   help="also evaluate in the Fock model at this truncation depth")
    _add_common(p, _cmd_gaussian_moments)

    bipartite = sub.add_parser("bipartite", help="joint-density numerics")
    bsub = bipartite.add_subparsers(dest="bipartite_command", required=True)

    for name, run in (("fisher", _cmd_bipartite_fisher), ("conjugate", _cmd_bipartite_conjugate)):
        p = bsub.add_parser(name)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--grid", help="density grid JSON file, with its values inline "
                            "or a header naming its values CSV")
        source.add_argument("--c", type=float,
                            help="build the semicircular family with this covariance")
        p.add_argument("--n", type=int, default=512, help="grid points per axis")
        p.add_argument("--eps", type=float, default=None,
                       help="kernel regularization (default: one grid spacing)")
        p.add_argument("--richardson", action="store_true")
        _add_common(p, run)

    p = bsub.add_parser("make-semicircular")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, default=512)
    _add_common(p, _cmd_bipartite_make, formats=("json", "csv"))

    p = sub.add_parser("selftest", help="run the golden-example suite")
    p.add_argument("--fast", action="store_true",
                   help="smaller grids, looser numeric thresholds")
    p.set_defaults(handler=_cmd_selftest, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # parse_args would report them with the top-level usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    if getattr(args, "quiet", False):
        warnings.simplefilter("ignore")
    try:
        return args.handler(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileExistsError as exc:  # only the writers' exclusive opens raise it
        print(f"error: refusing to overwrite {exc.filename} without --force", file=sys.stderr)
        return 2
    except (BifreeInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
