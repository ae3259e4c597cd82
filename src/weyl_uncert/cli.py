"""Command-line front end: verification suites, scans, extrema, figure
datasets and qubit reports, emitting CSV or a versioned JSON envelope.
The parser is built once per process, at the first :func:`main` call.

Exit codes: 0 success, 1 violated invariant (verify), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import re
import stat
import sys
import tempfile
from dataclasses import asdict, fields, replace

from . import analysis, families, reports, spin, verify
from .analysis import ScanTable

CSV_HEADER = "param,U,Uprime,Udoubleprime,V,absPhi,absPhiTilde,absOmega,Pik,nbar"

# A scan row's values in CSV column order: ScanRow's fields are the columns.
_row_values = operator.attrgetter(*(f.name for f in fields(analysis.ScanRow)))
_CSV_ROW = ",".join("{:.17g}" for _ in CSV_HEADER.split(","))

_QUBIT_CROSS_NOTE = (
    "cross_char follows the operator definition tr(rho clock^-ell shift^k), which is "
    "i*s_y at k=ell=1; the product form i*s_x*s_y*s_z sometimes quoted for this "
    "quantity differs for generic Bloch vectors and is reported only for reference."
)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            # A new file gets the mode open() would give it; umask can only be read by setting it.
            mask = os.umask(0)
            os.umask(mask)
            mode = stat.S_IFREG | (0o666 & ~mask)
        if not stat.S_ISREG(mode):
            # A FIFO or device node is written in place: replacing it would destroy it.
            with open(path, "w", newline="") as handle:
                handle.write(text)
            return
        # A regular file is replaced whole, at the end of any symlinks, keeping its mode.
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".weyl-uncert-")
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
                handle.write(text)
            os.replace(tmp, target)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        # err names the temporary file, or both files; report the user's path.
        raise OSError(f"cannot write {path!r}: {err.strerror or err}") from None


def _envelope(command: str, parameters: dict, payload: dict, notes: list[str] | None = None) -> str:
    doc = {"schema_version": "1", "command": command, "parameters": parameters}
    doc.update(payload)
    doc["notes"] = notes or []
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _table_csv(table: ScanTable) -> str:
    rows = (_CSV_ROW.format(*_row_values(r)) for r in table.rows)
    return "\n".join((CSV_HEADER, *rows)) + "\n"


def _table_rows(table: ScanTable) -> list[dict]:
    names = CSV_HEADER.split(",")
    return [dict(zip(names, _row_values(r))) for r in table.rows]


def _emit_table(args, command: str, parameters: dict, table: ScanTable) -> None:
    if args.format == "csv":
        _write_text(args.out, _table_csv(table))
    else:
        parameters = dict(parameters)
        parameters["swept_parameter"] = table.swept_parameter
        _write_text(args.out, _envelope(command, parameters, {"rows": _table_rows(table)}))


def _resolve_phi(phi_over_pi: float | None, k: int) -> tuple[float, float]:
    if k > sys.float_info.max:  # 1/k and k*phi would raise OverflowError
        raise ValueError(f"--k out of range: k must be at most 1.8e308, got a {len(str(k))}-digit k")
    x = phi_over_pi if phi_over_pi is not None else 1.0 / k
    phi = x * math.pi
    # k >= 1, so a finite k*phi means a finite phi too.
    if not math.isfinite(k * phi):
        raise ValueError(f"phase out of range: k*phi must be finite, got phi_over_pi = {x!r}, k = {k}")
    return x, phi


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    results = verify.run(args.suite, args.samples, args.seed)
    failed = False
    for res in results:
        status = "ok" if res.passed else "FAILED"
        print(f"{res.name}: {res.checks} checks, {len(res.failures)} failures [{status}]")
        for key, value in sorted(res.stats.items()):
            print(f"  {key} = {float(value):.17g}")
        for message in res.failures:
            failed = True
            print(f"  FAIL: {message}")
    return 1 if failed else 0


def _cmd_scan(args) -> int:
    spec = families.parse_spec(args.family)
    x, phi = _resolve_phi(args.phi_over_pi, args.k)
    table = analysis.scan(
        spec, args.param, args.lo, args.hi, args.steps, args.k, phi, log_spaced=args.log_spaced
    )
    parameters = {
        "family": args.family,
        "param": args.param,
        "from": args.lo,
        "to": args.hi,
        "steps": args.steps,
        "k": args.k,
        "phi_over_pi": x,
        "log_spaced": args.log_spaced,
    }
    _emit_table(args, "scan", parameters, table)
    return 0


def _cmd_figure(args) -> int:
    _emit_table(args, "figure", {"id": args.id}, analysis.figure_dataset(args.id))
    return 0


def _cmd_extremum(args) -> int:
    spec = families.parse_spec(args.family)
    x, phi = _resolve_phi(args.phi_over_pi, args.k)
    res = analysis.find_extremum(
        spec, args.param, args.functional, args.kind, args.lo, args.hi, args.k, phi
    )
    parameters = {
        "family": args.family,
        "param": args.param,
        "functional": args.functional,
        "kind": args.kind,
        "from": args.lo,
        "to": args.hi,
        "k": args.k,
        "phi_over_pi": x,
    }
    _write_text(args.out, _envelope("extremum", parameters, {"result": asdict(res)}))
    return 0


def _cmd_qubit(args) -> int:
    cs = spin.qubit_char((args.sx, args.sy, args.sz), args.k, args.ell)
    gamma = spin.weyl_angle(spin.SpinSystem(2), args.k, args.ell)
    u, u_prime, _, v = reports.functionals(cs)
    product_form = 1j * args.sx * args.sy * args.sz
    _, product_u_prime, _, _ = reports.functionals(replace(cs, cross_char=product_form))
    payload = {
        "report": {
            "number_char": [cs.number_char.real, cs.number_char.imag],
            "phase_char": [cs.phase_char.real, cs.phase_char.imag],
            "cross_char": [cs.cross_char.real, cs.cross_char.imag],
            "cross_char_product_form": [product_form.real, product_form.imag],
            "gamma": gamma,
            "bound": spin.certainty_bound(gamma),
            "U": u,
            "Uprime": u_prime,
            "V": v,
            "sum_relation_product_form": product_u_prime,
        }
    }
    parameters = {"sx": args.sx, "sy": args.sy, "sz": args.sz, "k": args.k, "ell": args.ell}
    _write_text(args.out, _envelope("qubit", parameters, payload, notes=[_QUBIT_CROSS_NOTE]))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line on stderr, without the usage text, and exit 2.

    A value such as ``-5e-05`` reads as a negative number, not as an option,
    like argparse's own ``-12`` and ``-1.5``; subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's private matcher (Python 3.11: ``-12``, ``-1.5``); extended
        # with an e-notation alternative, never narrowed.
        default = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(rf"(?:{default})|^-(\d+\.?\d*|\.\d+)[eE][+-]?\d+$")

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _int_at_least(least: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _add_range_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, help="family spec tag:key=value,... (see --help)")
    p.add_argument("--param", required=True, help="swept parameter name")
    p.add_argument("--from", dest="lo", type=_finite_float, required=True)
    p.add_argument("--to", dest="hi", type=_finite_float, required=True)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--phi-over-pi", type=_finite_float, default=None,
                   help="phase in units of pi (default 1/k, so k*phi = pi)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weyl-uncert",
        description="Certainty relations for phase-number variables from Weyl "
        "commutation relations.",
        epilog="Family specs are 'tag:key=value,...' with no spaces; tags and keys:\n"
        + "".join(f"  {tag}: {', '.join(keys)}\n" for tag, keys in families.SPEC_KEYS.items())
        + f"The truncation cap (default {families.DEFAULT_TRUNCATION_CAP}) can be "
        f"overridden via {families.TRUNCATION_CAP_ENV}.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", choices=("spin", "fock", "families", "all"), required=True)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="sweep a family parameter and tabulate functionals")
    _add_range_args(p)
    p.add_argument("--steps", type=_positive_int, required=True)
    p.add_argument("--log-spaced", action="store_true")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("figure", help="write one of the standard figure datasets")
    p.add_argument("--id", type=int, choices=analysis.FIGURE_IDS, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("extremum", help="locate a functional extremum over a parameter range")
    _add_range_args(p)
    p.add_argument("--functional", choices=analysis.FUNCTIONALS, required=True)
    p.add_argument("--kind", choices=("min", "max"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_extremum)

    p = sub.add_parser("qubit", help="report the qubit characteristic set and relations")
    p.add_argument("--sx", type=_finite_float, default=0.0)
    p.add_argument("--sy", type=_finite_float, default=0.0)
    p.add_argument("--sz", type=_finite_float, default=0.0)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--ell", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qubit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except families.FamilySpecError as err:
        print(f"error: invalid family spec: {err}", file=sys.stderr)
        return 2
    except (ValueError, MemoryError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
