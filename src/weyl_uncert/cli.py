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
import os
import re
import stat
import sys
import tempfile
from dataclasses import asdict, replace

from . import analysis, families, reports, spin, verify
from .analysis import ScanTable

CSV_HEADER = ",".join(analysis.COLUMNS)

_CSV_ROW = ",".join("{:.17g}" for _ in analysis.COLUMNS)

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
    rows = (_CSV_ROW.format(*vars(r).values()) for r in table.rows)
    return "\n".join((CSV_HEADER, *rows)) + "\n"


def _table_rows(table: ScanTable) -> list[dict]:
    return [dict(zip(analysis.COLUMNS, vars(r).values())) for r in table.rows]


def _parameters(args, keys: str, **resolved) -> dict:
    """A command's JSON "parameters": each of ``keys`` in order, the argument of that name
    (``from`` and ``to`` are --from's and --to's) or the value resolved from it."""
    given = vars(args) | resolved
    return {key: given[{"from": "lo", "to": "hi"}.get(key, key)] for key in keys.split()}


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
    return x, x * math.pi  # fock.weyl_phase checks k*phi


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    results = verify.run(args.suite, args.samples, args.seed)
    for res in results:
        status = "ok" if res.passed else "FAILED"
        print(f"{res.name}: {res.checks} checks, {len(res.failures)} failures [{status}]")
        for key, value in sorted(res.stats.items()):
            print(f"  {key} = {float(value):.17g}")
        for message in res.failures:
            print(f"  FAIL: {message}")
    return 0 if all(res.passed for res in results) else 1


# scan, figure and extremum read the truncation cap override first, once per
# command, so a bad value is reported as itself and not as a failed row.
def _cmd_scan(args) -> int:
    cap = families.truncation_cap()
    spec = families.parse_spec(args.family)
    x, phi = _resolve_phi(args.phi_over_pi, args.k)
    table = analysis.scan(spec, args.param, args.lo, args.hi, args.steps, args.k, phi, args.log_spaced, cap)
    parameters = _parameters(args, "family param from to steps k phi_over_pi log_spaced", phi_over_pi=x)
    _emit_table(args, "scan", parameters, table)
    return 0


def _cmd_figure(args) -> int:
    cap = families.truncation_cap()
    _emit_table(args, "figure", _parameters(args, "id"), analysis.figure_dataset(args.id, cap))
    return 0


def _cmd_extremum(args) -> int:
    cap = families.truncation_cap()
    spec = families.parse_spec(args.family)
    x, phi = _resolve_phi(args.phi_over_pi, args.k)
    res = analysis.find_extremum(
        spec, args.param, args.functional, args.kind, args.lo, args.hi, args.k, phi, cap
    )
    parameters = _parameters(args, "family param functional kind from to k phi_over_pi", phi_over_pi=x)
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
    parameters = _parameters(args, "sx sy sz k ell")
    _write_text(args.out, _envelope("qubit", parameters, payload, notes=[_QUBIT_CROSS_NOTE]))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors print one line on stderr, without the usage text, and exit 2.

    ``-5e-05``, ``-inf`` and ``-nan`` read as negative numbers, not as options, like argparse's
    own ``-12`` and ``-1.5``, and reach the check that names them; subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's private matcher (Python 3.11: ``-12``, ``-1.5``); extended with
        # e-notation and -inf, -infinity and -nan in any case, never narrowed.
        default = self._negative_number_matcher.pattern
        self._negative_number_matcher = re.compile(
            rf"(?:{default})|^-(\d+\.?\d*|\.\d+)[eE][+-]?\d+$|^-(?i:inf|infinity|nan)$")

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


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
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--phi-over-pi", type=float, default=None,
                   help="phase in units of pi (default 1/k, so k*phi = pi)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="weyl-uncert",
        description="Certainty relations for phase-number variables from Weyl "
        "commutation relations.",
        epilog="Family specs are 'tag:key=value,...' with no spaces; tags and keys:\n"
        + "".join(f"  {tag}: {', '.join(keys)}\n" for tag, keys in families.SPEC_KEYS.items())
        + f"The n_max cap of scan, figure and extremum (default {families.DEFAULT_TRUNCATION_CAP}) "
        f"can be\noverridden via {families.TRUNCATION_CAP_ENV}.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run randomized property suites")
    p.add_argument("--suite", choices=verify.SUITES, required=True)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scan", help="sweep a family parameter and tabulate functionals")
    _add_range_args(p)
    p.add_argument("--steps", type=int, required=True)
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
    p.add_argument("--sx", type=float, default=0.0)
    p.add_argument("--sy", type=float, default=0.0)
    p.add_argument("--sz", type=float, default=0.0)
    p.add_argument("--k", type=_positive_int, default=1)
    p.add_argument("--ell", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qubit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, MemoryError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
