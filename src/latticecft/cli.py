"""Command-line front end.

Every subcommand emits one canonical JSON report on stdout (or to
--output): {"format": 1, "command", "inputs_digest", "seed", "results"}.
Exit codes: 0 success, 1 a verified identity failed, 2 input error (with
a machine-readable {"error_kind", "detail"} report).  Reports are
byte-identical across runs for identical inputs and seed.

Only lattices and surfaces load with this module: each handler imports
its own layer when it runs, so a subcommand's start-up pays for that
layer alone, and `accept` loads all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import lattices
from .errors import LatticeCftError
from .lattices import DEFAULT_SEED, as_int, discriminant_group, validate_even_lattice
from .surfaces import BlockLabel, Surface


class _ParseError(Exception):
    """An argv, or a JSON value, that is not the shape its option asks for."""


class _TooLarge(Exception):
    """A report with an integer past the int-to-str limit."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(message)


def _encode(obj):
    """Arrays as nested lists and Fraction as a string; json itself writes
    tuples as lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not a report value")


def canonical_json(obj) -> str:
    """The one writer of reports: sorted keys, no spaces, and `_encode`'s rules."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_encode)


def _digest(inputs) -> str:
    return hashlib.sha256(canonical_json(inputs).encode()).hexdigest()[:16]


def _load_json_arg(value: str):
    """Inline JSON, or a path to a JSON file."""
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        pass
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ParseError(f"{value!r} is neither inline JSON nor a readable "
                          f"file: {exc}") from exc


def _check_format(data):
    if isinstance(data, dict) and data.get("format", 1) != 1:
        raise _ParseError(f"unsupported format {data['format']!r}")


def _json_list(data, shape: str, ok=lambda item: True) -> list:
    """data, if it is a JSON list whose items pass `ok`."""
    if not (isinstance(data, list) and all(map(ok, data))):
        raise _ParseError(f"expected {shape}")
    return data


def _load_lattice(value: str):
    data = _load_json_arg(value)
    _check_format(data)
    gram = data.get("gram") if isinstance(data, dict) else data
    lat = validate_even_lattice(_json_list(gram, 'a list of Gram rows, or {"gram": rows}',
                                           lambda row: isinstance(row, list)))
    return lat, discriminant_group(lat)


def _surface(data) -> Surface:
    _check_format(data)
    try:
        return Surface.from_json(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise _ParseError(f"malformed surface: {exc!r}") from exc


def _load_labels(value: str | None, disc) -> BlockLabel:
    if value is None:
        return BlockLabel(())
    data = _load_json_arg(value)
    _check_format(data)
    if not isinstance(data, dict):
        raise _ParseError("labels are a JSON object {circle id: coordinates}")
    out = {}
    for cid, coords in data.items():
        if cid != "format":  # a bare coordinate is the shorthand {"c0": 1}
            coords = coords if isinstance(coords, list) else [coords]
            out[cid] = disc.element([as_int(c, f"coordinate of label {cid!r}") for c in coords])
    return BlockLabel.from_dict(out)


def _label_inputs(labels: BlockLabel) -> dict:
    return {cid: e.coords for cid, e in labels.items()}


def _as_fraction(x) -> Fraction:
    if isinstance(x, (str, int)):
        return Fraction(x)
    if isinstance(x, float) and math.isfinite(x):  # Fraction(inf) raises OverflowError
        return Fraction(x).limit_denominator(10 ** 6)
    raise ValueError(f"characteristic entry {x!r} is not a string or a finite number")


def _parse_char(value: str, g: int):
    try:
        pair = json.loads(f"[{value}]")
    except json.JSONDecodeError as exc:
        raise _ParseError(f"cannot parse characteristic {value!r}") from exc
    if len(pair) != 2:
        raise _ParseError("characteristic must be 'a,b'")
    out = []
    for part in pair:
        if not isinstance(part, list):
            part = [part] * g
        out.append(tuple(_as_fraction(x) for x in part))
    return out[0], out[1]


def _parse_complex_array(data):
    try:
        if isinstance(data, dict):
            parts = np.broadcast_arrays(np.asarray(data.get("re", 0.0), dtype=float),
                                        np.asarray(data.get("im", 0.0), dtype=float))
            return np.stack(parts, axis=-1).view(complex)[..., 0]  # no product: inf stays inf
        return np.asarray(data, dtype=complex)
    except (TypeError, OverflowError) as exc:  # OverflowError: an int past the floats
        raise _ParseError(f"not a complex array: {exc}") from exc


def _writable_powers(disc, *surfaces) -> None:
    """Refuse an |A|^g (g a total genus) past twice the int-to-str limit, unformed."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    genus = max(sum(c.genus for c in s.components) for s in surfaces)
    if limit and genus * math.log10(disc.order) > 2 * limit:
        raise _TooLarge


# ---------------------------------------------------------------------------
# command handlers: each returns (inputs, results, verified_or_None), in the
# library's own values; canonical_json writes them


def _cmd_disc(args: argparse.Namespace):
    lat, disc = _load_lattice(args.lattice)
    g = lattices.gauss_sum(disc)
    results = {
        "invariant_factors": disc.invariant_factors,
        "order": disc.order,
        "rank": lat.rank,
        "det": lat.det,
        "level_ell": lat.level_ell,
        "bilinear_mod1": disc.bilinear_matrix,
        "quadratic_mod2": disc.quadratic_diag,
        "gauss_sum_re": g.real,
        "gauss_sum_im": g.imag,
        "signature_mod8": lattices.signature_mod8(disc),
    }
    return {"gram": lat.gram}, results, None


def _labelled(args: argparse.Namespace):
    """The lattice, its discriminant group, the surface and its labels of
    a `labelled` subcommand, with the surface's |A|^g checked writable."""
    lat, disc = _load_lattice(args.lattice)
    s = _surface(_load_json_arg(args.surface))
    labels = _load_labels(args.labels, disc)
    _writable_powers(disc, s)
    return lat, disc, s, labels


def _cmd_blocks(args: argparse.Namespace):
    from . import blocks
    lat, disc, s, labels = _labelled(args)
    dim = blocks.block_dimension(s, labels, disc)
    inputs = {"gram": lat.gram, "surface": s.to_json(), "labels": _label_inputs(labels)}
    return inputs, {"dimension": dim}, None


def _cmd_factorize(args: argparse.Namespace):
    from . import blocks
    lat, disc = _load_lattice(args.lattice)
    s = _surface(_load_json_arg(args.surface))
    pieces = tuple(map(_surface, _json_list(_load_json_arg(args.pieces), "a list of surfaces")))
    matching = [(str(a), str(b)) for a, b in _json_list(
        _load_json_arg(args.matching), "a list of [circle id, circle id] pairs",
        lambda pair: isinstance(pair, list) and len(pair) == 2)]
    labels = _load_labels(args.labels, disc)
    _writable_powers(disc, s, *pieces)
    rep = blocks.verify_factorization(s, pieces, matching, labels, disc,
                                      keep_terms=args.terms)
    results = {"lhs": rep.lhs, "rhs": rep.rhs, "equal": rep.equal}
    if rep.terms is not None:
        results["terms"] = [{"assignment": assign, "value": value}
                            for assign, value in rep.terms]
    inputs = {"gram": lat.gram, "surface": s.to_json(),
              "pieces": [p.to_json() for p in pieces], "matching": matching,
              "labels": _label_inputs(labels)}
    return inputs, results, rep.equal


def _cmd_modular(args: argparse.Namespace):
    from . import blocks
    lat, disc = _load_lattice(args.lattice)
    rep = blocks.genus1_mcg_rep(disc)
    results = {
        "labels": disc.coordinates(),
        "S_re": rep.S.real,
        "S_im": rep.S.imag,
        "T_diag_re": rep.T.real,
        "T_diag_im": rep.T.imag,
        "signature_mod8": rep.signature,
        "central_charge_exponent": str(lat.level_ell * lat.rank),
        "s4_deviation": rep.s4_deviation,
        "st3_deviation": rep.st3_deviation,
        "charge_conjugation_deviation": rep.s2_is_charge_conjugation,
        "unitarity_deviation": rep.unitarity_deviation,
        "ok": rep.ok,
    }
    return {"gram": lat.gram}, results, rep.ok


def _cmd_verlinde(args: argparse.Namespace):
    from . import blocks
    lat, disc, s, labels = _labelled(args)
    rep = blocks.verlinde_check(s, labels, disc)
    results = {"verlinde_re": rep.verlinde_raw.real, "verlinde_im": rep.verlinde_raw.imag,
               "deviation": rep.deviation}
    # JSON has no inf or NaN: past the float range these read null
    results = {k: v if np.isfinite(v) else None for k, v in results.items()}
    results.update(rounded=rep.rounded, block_dimension=rep.block_dim, equal=rep.equal)
    inputs = {"gram": lat.gram, "surface": s.to_json(), "labels": _label_inputs(labels)}
    return inputs, results, rep.equal


def _cmd_theta(args: argparse.Namespace):
    from . import theta
    tau = theta.SiegelPoint.make(np.atleast_2d(_parse_complex_array(
        _load_json_arg(args.tau))))
    z = np.atleast_1d(_parse_complex_array(_load_json_arg(args.z)))
    a, b = _parse_char(args.char, tau.g)
    spec = theta.ThetaSpec.make(a, b)
    val = theta.theta(spec, z, tau, tol=args.tol)
    inputs = {"tau_re": tau.tau.real, "tau_im": tau.tau.imag,
              "z_re": z.real, "z_im": z.imag, "a": a, "b": b, "tol": args.tol}
    results = {"value_re": val.value.real, "value_im": val.value.imag,
               "tail_bound": val.tail_bound, "R": val.radius}
    return inputs, results, None


def _cmd_fock(args: argparse.Namespace):
    from . import fock
    lat, disc = _load_lattice(args.lattice)
    coords = [int(c) for c in args.phi.split(",")]
    k = len(disc.invariant_factors)
    if coords == [0] and k != 1:
        coords = [0] * k
    phi = disc.element(tuple(coords))
    ch = fock.sector_character(lat, disc, phi, args.max_energy)
    inputs = {"gram": lat.gram, "phi": phi.coords, "max_energy": args.max_energy}
    results = {"ground_energy": ch.ground_energy, "coefficients": ch.coefficients,
               "lift": ch.lift}
    return inputs, results, None


def _cmd_heisenberg(args: argparse.Namespace):
    from . import heisenberg
    lat, disc = _load_lattice(args.lattice)
    rep = heisenberg.schroedinger_irrep(disc, args.genus, chi=args.chi)
    inputs = {"gram": lat.gram, "genus": args.genus, "chi": args.chi}
    return inputs, rep.to_json(), None


def _cmd_accept(args: argparse.Namespace):
    from . import acceptance
    results = acceptance.run_all(seed=args.seed, tolerance=args.tolerance)
    rows = []
    for r in results:
        # wall times go to stderr only: reports must be byte-reproducible
        rows.append({"id": r.cid, "name": r.name, "passed": r.passed,
                     "details": r.details})
        print(f"criterion {r.cid:02d} [{'PASS' if r.passed else 'FAIL'}] "
              f"{r.name} ({r.seconds:.2f}s)", file=sys.stderr)
    all_ok = all(r.passed for r in results)
    inputs = {"tolerance": args.tolerance}
    return inputs, {"criteria": rows, "all_passed": all_ok}, all_ok


HANDLERS = {
    "disc": _cmd_disc,
    "blocks": _cmd_blocks,
    "factorize": _cmd_factorize,
    "modular": _cmd_modular,
    "verlinde": _cmd_verlinde,
    "theta": _cmd_theta,
    "fock": _cmd_fock,
    "heisenberg": _cmd_heisenberg,
    "accept": _cmd_accept,
}


@cache  # one argparse tree per process: parsing leaves no state in it
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--output", default=None,
                        help="write the JSON report to this path")
    labelled = _Parser(add_help=False, parents=[common])  # a surface and its labels
    labelled.add_argument("--surface", required=True)
    labelled.add_argument("--lattice", default="[[2]]")
    labelled.add_argument("--labels", default=None)

    parser = _Parser(prog="latticecft",
                     description="Abelian lattice CFT computations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc", parents=[common],
                       help="discriminant group of an even lattice")
    p.add_argument("--lattice", required=True)

    sub.add_parser("blocks", parents=[labelled],
                   help="conformal-block dimension")

    p = sub.add_parser("factorize", parents=[labelled],
                       help="verify the factorization identity")
    p.add_argument("--pieces", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--terms", action="store_true")

    p = sub.add_parser("modular", parents=[common],
                       help="S/T matrices and their relations")
    p.add_argument("--lattice", required=True)

    sub.add_parser("verlinde", parents=[labelled],
                   help="Verlinde sum vs block dimension")

    p = sub.add_parser("theta", parents=[common],
                       help="numerical theta function")
    p.add_argument("--tau", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--char", default="0,0")
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("fock", parents=[common],
                       help="truncated loop-group characters")
    p.add_argument("action", choices=["character"])
    p.add_argument("--lattice", required=True)
    p.add_argument("--phi", default="0")
    p.add_argument("--max-energy", type=int, default=10)

    p = sub.add_parser("heisenberg", parents=[common],
                       help="export a Schroedinger irrep")
    p.add_argument("--lattice", required=True)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--chi", type=int, default=1)

    p = sub.add_parser("accept", parents=[common],
                       help="run the acceptance suite")
    p.add_argument("--tolerance", type=float, default=None)
    return parser


def run(argv) -> tuple[int, bytes, str | None]:
    parser = build_parser()
    command = "?"
    output = None
    try:
        args = parser.parse_args(argv)
        command = args.command
        output = args.output
        if output and (problem := _unwritable(output)):
            return 2, _line(_refusal(command, "output", problem)), None
        inputs, results, verified = HANDLERS[command](args)
        report = {"format": 1, "command": command, "inputs_digest": _digest(inputs),
                  "seed": args.seed, "results": results}
        try:
            return (0 if verified in (None, True) else 1), _line(report), output
        except ValueError:  # an int past sys.get_int_max_str_digits()
            raise _TooLarge from None
    except _TooLarge:  # refused on stdout
        digits = sys.get_int_max_str_digits()
        return 2, _line(_refusal(command, "output", "the result is too large to write: "
                                 f"it holds an integer of over {digits} digits")), None
    except (_ParseError, LatticeCftError, ValueError) as exc:
        kind = ("parse" if isinstance(exc, (_ParseError, json.JSONDecodeError)) else
                type(exc).__name__ if isinstance(exc, LatticeCftError) else "validation")
        return 2, _line(_refusal(command, kind, str(exc))), output


def _unwritable(path: str) -> str | None:
    """Why a report could not be written to path, found without opening it;
    `main` still refuses a write that fails."""
    if os.path.isdir(path):
        return f"{path!r} is a directory"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"directory {parent!r} does not exist"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return f"{path!r} is not writable"
    return None


def _refusal(command: str, kind: str, detail: str) -> dict:
    return {"format": 1, "command": command, "error_kind": kind, "detail": detail}


def _line(report) -> bytes:
    return (canonical_json(report) + "\n").encode()


def render_report(argv) -> bytes:
    """The report bytes a run would print; used by the determinism check."""
    return run(argv)[1]


def main() -> None:
    argv = sys.argv[1:]
    code, payload, output = run(argv)
    if output:
        try:
            with open(output, "wb") as fh:
                fh.write(payload)
        except OSError as exc:  # the report has nowhere to go: refuse on stdout
            command = build_parser().parse_args(argv).command
            code = 2
            sys.stdout.buffer.write(_line(_refusal(command, "output", str(exc))))
    else:
        sys.stdout.buffer.write(payload)
    sys.exit(code)


if __name__ == "__main__":
    main()
