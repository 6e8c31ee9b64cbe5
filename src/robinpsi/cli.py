"""Command-line front end emitting deterministic CSV or JSON tables.

Each command returns (fields, rows, exit code), its rows tuples in field
order; every check it makes runs before it returns, and the writer then
streams the rows, to --output opened only at that point.

Exit codes: 0 success, 1 mathematical falsification, 2 sieve or budget
exhausted, 64 usage error or an --output or stdout that cannot be opened or
written, such as a full disk or a pipe closed by `head`.  A stderr that
cannot take the one-line report leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext, suppress

from . import bounds, primorial, robin
from .errors import CoverageError, ResourceError
from .multiplicative import check_sweep, factorize, psi_over_n
from .primes import build_table, nth_prime_bound
from .tabular import rows_to_csv, rows_to_json

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 64

_SIEVE_CAP = 1 << 25  # table1's default --sieve-cap; the budget of every index command


def _detach(stream) -> None:
    """Point stream's file descriptor at /dev/null, so that the interpreter's
    last flush of a stream that has failed cannot fail again at exit."""
    with suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _report(line: str) -> None:
    """Write line to stderr; a stderr that cannot take it, such as a pipe
    closed by `head`, is detached and the line dropped."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _detach(sys.stderr)


class _Parser(argparse.ArgumentParser):
    """argparse front end that reports usage problems with exit code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        _report(f"{self.prog}: error: {message}")
        self.exit(EXIT_USAGE)


def _int_type(name: str, least: int, greatest: int | None, message: str):
    """argparse type for an integer in [least, greatest]; message takes the value.

    argparse names the function (its __name__) when the text is not an integer.
    """

    def check(text: str) -> int:
        v = int(text)
        if v < least or (greatest is not None and v > greatest):
            raise argparse.ArgumentTypeError(message.format(v))
        return v

    check.__name__ = name
    return check


_t_value = _int_type("_t_value", 2, 64, "t must be in [2, 64], got {}")
_scan_point = _int_type("_scan_point", 3, None, "scan domain starts at 3, got {}")
_index_value = _int_type("_index_value", 2, None, "primorial index must be >= 2, got {}")
_positive = _int_type("_positive", 1, None, "need a positive integer, got {}")
_sieve_size = _int_type("_sieve_size", 2, None, "sieve size must be >= 2, got {}")


_COMMANDS = ("table1", "champions", "robin-scan", "ratio", "verify-bounds", "admissible-t")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The grammar of every subcommand, or only of command where it names
    one: that parses command's argv alike, as _Parser.error never prints the
    usage line that lists the choices."""
    parser = _Parser(prog="robinpsi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(
        name: str, help: str, run, budget: str | None = None
    ) -> argparse.ArgumentParser | None:
        """The subparser of name with its output options and command, if built."""
        if command in _COMMANDS and command != name:
            return None
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", metavar="PATH", default=None)
        p.set_defaults(run=run, budget=budget)  # budget: the option its budget errors say to lower
        return p

    if p := add("table1", "crossover indices and primorial magnitudes per t", cmd_table1):
        p.add_argument("--t-min", type=_t_value, default=3)
        p.add_argument("--t-max", type=_t_value, default=7)
        p.add_argument("--floor-n0", action="store_true", help="search only from index 2263 up")
        p.add_argument(
            "--sieve-cap", type=_sieve_size, default=_SIEVE_CAP,
            help="largest sieve size; the sieve bound on p_n1 is clamped to it",
        )

    if p := add("champions", "left-to-right maxima of psi_t(m)/m", cmd_champions, "--limit"):
        p.add_argument("--limit", type=_positive, required=True)
        p.add_argument("--t", type=_t_value, required=True)
        p.add_argument("--weak", action="store_true", help="count ties as champions")

    if p := add("robin-scan", "scan a range for Robin violators", cmd_robin_scan, "--to"):
        p.add_argument("--from", dest="scan_start", type=_scan_point, required=True)
        p.add_argument("--to", dest="scan_stop", type=_scan_point, required=True)

    if p := add("ratio", "normalized primorial ratio curve for one t", cmd_ratio, "--n-max"):
        p.add_argument("--t", type=_t_value, required=True)
        p.add_argument("--n-max", type=_index_value, required=True)

    if p := add(
        "verify-bounds", "margin sweeps of every explicit bound", cmd_verify_bounds, "--n-max"
    ):
        p.add_argument("--n-max", type=_index_value, default=10**5)
        p.add_argument("--t-max", type=_t_value, default=10)

    if p := add(
        "admissible-t", "largest t whose criterion holds at given indices", cmd_admissible_t, "--n"
    ):
        p.add_argument("--n", dest="n_values", type=_index_value, nargs="+", required=True)

    return parser


def _prime_reach(n: int) -> int:
    """nth_prime_bound(n), or ResourceError before any sieving past _SIEVE_CAP."""
    reach = nth_prime_bound(n)
    if reach > _SIEVE_CAP:
        raise ResourceError(
            f"index {n} needs primes to {reach}, past the sieve budget 2^25 = {_SIEVE_CAP}"
        )
    return reach


Output = tuple[tuple[str, ...], Iterable[tuple], int]  # (fields, rows in field order, exit code)


def cmd_table1(args: argparse.Namespace) -> Output:
    # a cap below the reach may still do; if not, the search raises CoverageError
    table = build_table(int(min(bounds.crossover_reach(args.t_max), args.sieve_cap)))
    rows = []
    for t in range(args.t_min, args.t_max + 1):
        n1 = bounds.find_crossover_index(t, table, floored=args.floor_n0)
        mant, exp10 = bounds.primorial_magnitude(n1, table)
        report = bounds.criterion(t, n1, table)
        rows.append((t, n1, report.p_n, mant, exp10, report.margin))
    return ("t", "n1", "p_n1", "mantissa", "exponent10", "margin"), rows, EXIT_OK


def cmd_champions(args: argparse.Namespace) -> Output:
    mode = "weak" if args.weak else "strict"
    champs = primorial.champion_scan(args.limit, args.t, mode)
    table = build_table(math.isqrt(args.limit) + 1)
    ratios = [psi_over_n(factorize(m, table), args.t) for m in champs]
    rows = [(m, f"{r.numerator}/{r.denominator}") for m, r in zip(champs, ratios)]
    return ("m", "ratio"), rows, EXIT_OK


def cmd_robin_scan(args: argparse.Namespace) -> Output:
    check_sweep(args.scan_start, args.scan_stop)  # before the sieve to sqrt(stop)
    table = build_table(max(math.isqrt(args.scan_stop) + 1, 2))
    violators = robin.robin_scan(args.scan_start, args.scan_stop, table)
    rows = [(v.n, v.sigma, v.threshold, v.margin) for v in violators]
    code = EXIT_FALSIFIED if any(v.n > 5040 for v in violators) else EXIT_OK
    return ("n", "sigma", "threshold", "margin"), rows, code


def cmd_ratio(args: argparse.Namespace) -> Output:
    table = build_table(_prime_reach(args.n_max))
    rows = bounds.ratio_curve(table, args.t, args.n_max)
    return ("n", "p_n", "ratio", "limit_value", "deviation"), rows, EXIT_OK


def cmd_verify_bounds(args: argparse.Namespace) -> Output:
    n_max = args.n_max
    table = build_table(max(_prime_reach(n_max), bounds.MERTENS_CAP))
    table.theta_upto(n_max)  # formed before the suites' arrays, not among them
    results = [
        bounds.mertens_bound_suite(table),
        bounds.zeta_tail_bound_suite(table, range(2, args.t_max + 1), min(n_max, 10**4)),
        bounds.log_substitution_suite(table, n_max=n_max),
        bounds.psi_ratio_bound_suite(table, n_max=n_max),
    ]
    rows = [
        (
            r.name,
            r.points,
            None if r.skipped else r.worst_margin,
            r.worst_at,
            r.rechecked,
            "SKIPPED" if r.skipped else ("PASS" if r.passed else "FAIL"),
        )
        for r in results
    ]
    failed = any(not r.passed and not r.skipped for r in results)
    fields = ("suite", "points", "worst_margin", "worst_at", "rechecked", "status")
    return fields, rows, EXIT_FALSIFIED if failed else EXIT_OK


def cmd_admissible_t(args: argparse.Namespace) -> Output:
    table = build_table(_prime_reach(max(args.n_values)))
    rows = [
        (n, int(table.primes[n - 1]), bounds.admissible_t(n, table)) for n in sorted(args.n_values)
    ]
    return ("n", "p_n", "t_max"), rows, EXIT_OK


def _usage_problem(args: argparse.Namespace) -> str | None:
    """Checks across options that argparse cannot make on its own."""
    if args.command == "table1" and args.t_min > args.t_max:
        return f"need 2 <= t_min <= t_max <= 64, got [{args.t_min}, {args.t_max}]"
    if args.command == "robin-scan" and args.scan_stop < args.scan_start:
        return f"empty scan range [{args.scan_start}, {args.scan_stop}]"
    return None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    problem = _usage_problem(args)
    if problem:
        _report(f"robinpsi: error: {problem}")
        return EXIT_USAGE
    try:
        fields, rows, code = args.run(args)
    except CoverageError as exc:
        _report(f"robinpsi: {exc}")
        return EXIT_RESOURCE
    except ResourceError as exc:
        _report(f"robinpsi: {exc}; lower {args.budget}")
        return EXIT_RESOURCE
    write = rows_to_csv if args.format == "csv" else rows_to_json
    try:  # --output is opened only now, when every check has passed
        out = open(args.output, "w", encoding="utf-8") if args.output else nullcontext(sys.stdout)
        with out as fh:
            write(fh, fields, rows)
            fh.flush()  # a stdout that cannot take the rows fails here, not at exit
    except OSError as exc:
        if not args.output:
            _detach(sys.stdout)
        dest = f"--output {args.output}" if args.output else "stdout"
        _report(f"robinpsi: error: cannot write {dest}: {exc.strerror}")
        return EXIT_USAGE
    return code


def run() -> None:
    raise SystemExit(main())
