"""Command-line interface: cap, bounds, sweep, verify.

Sets are given inline as ``a1:b1,a2:b2,...`` or as a JSON file
``{"intervals": [[a1, b1], ...]}``.  Exit codes: 0 success, 1 domain
error, 2 parse error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .bounds import all_bounds
from .errors import DomainError, LogcapError, ParseError, ValidationError
from .exact import AKHIEZER, WIDOM, capacity
from .sets import IntervalUnion, _check_two_interval, make_interval_union
from .verify import _check_count, run_verify

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_IO = 3

_METHODS = ("auto", AKHIEZER, WIDOM)


def parse_inline_set(text: str) -> IntervalUnion:
    """Parse ``a1:b1,a2:b2,...`` into an interval union."""
    pairs = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ParseError(f"expected 'a:b', got {chunk!r}")
        pairs.append(parts)
    try:
        return make_interval_union(pairs)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def format_inline_set(e: IntervalUnion) -> str:
    return ",".join(f"{a:.17g}:{b:.17g}" for a, b in e.intervals)


def _load_set(args) -> IntervalUnion:
    if args.set is not None and args.json is not None:
        raise ParseError("give the set by -e/--set or by --json, not both")
    if args.set is not None:
        return parse_inline_set(args.set)
    if args.json is not None:
        with open(args.json, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # bad JSON or UTF-8, or an integer of over 4300 digits
                raise ParseError(f"invalid JSON in {args.json}: {exc}") from exc
        try:
            return IntervalUnion.from_json_dict(data)
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError("no set given; use -e/--set or --json")


def _cmd_cap(args) -> int:
    e = _load_set(args)
    res = capacity(e, method=args.method)
    print(f"{res.value:.17g} {res.method} {res.est_error:.3g}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    e = _load_set(args)
    exact = capacity(e, method=args.method)
    reports = all_bounds(e)
    rows = [
        (rep.name, rep.kind, rep.value, rep.value - exact.value)
        for rep in reports
    ]
    print(f"set: {format_inline_set(e)}")
    print(f"exact: {exact.value:.17g} ({exact.method})")
    print(f"{'name':<24} {'kind':<6} {'value':<22} gap-to-exact")
    for name, kind, value, gap in rows:
        print(f"{name:<24} {kind:<6} {value:<22.17g} {gap:+.3e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,kind,value,gap_to_exact\n")
            for name, kind, value, gap in rows:
                fh.write(f"{name},{kind},{value:.17g},{gap:.17g}\n")
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad grid {text!r}") from exc
    return start, stop, count


FAMILIES = ("moving_gap", "spreading_gap", "moving_two_gaps")


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter family of sets: moving gap, spreading gap, or two moving gaps.

    ``grid`` is (start, stop, count) over the family parameter; ``width``
    fixes the gap width for the moving families and ``center`` the gap
    center for the spreading one.
    """

    family: str
    grid: tuple[float, float, int]
    width: float = 0.4
    center: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParseError(f"unknown family {self.family!r}")
        if self.grid[2] < 2:
            raise ParseError("grid count must be at least 2")
        for x in (self.grid[0], self.grid[1]):
            self.set_at(x)  # reject grids leaving the admissible domain

    def set_at(self, x: float) -> IntervalUnion:
        w, c = self.width, self.center
        if self.family == "moving_two_gaps":
            ends = [-1.0, -x - 0.5 * w, -x + 0.5 * w, x - 0.5 * w, x + 0.5 * w, 1.0]
            if not all(lo < hi for lo, hi in zip(ends, ends[1:])):
                raise DomainError(f"gap position {x} with width {w} infeasible")
            return make_interval_union(zip(ends[::2], ends[1::2]))
        alpha, beta = (x, x + w) if self.family == "moving_gap" else (c - 0.5 * x, c + 0.5 * x)
        _check_two_interval(alpha, beta)
        return make_interval_union([(-1.0, alpha), (beta, 1.0)])

    def parameters(self) -> list[float]:
        start, stop, count = self.grid
        return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _cmd_sweep(args) -> int:
    spec = SweepSpec(args.family, _parse_grid(args.grid), args.width, args.center)
    rows, names = [], []
    for x in spec.parameters():
        e = spec.set_at(x)
        exact, reports = capacity(e).value, all_bounds(e)
        # rows whose gap is 1 ulp wide lack bounds: merge the names in row order
        for i, rep in enumerate(reports):
            if rep.name not in names:
                names.insert(names.index(reports[i - 1].name) + 1 if i else 0, rep.name)
        rows.append((x, exact, {rep.name: f"{rep.value:.17g}" for rep in reports}))
    lines = ["param,exact," + ",".join(names)]
    for x, exact, values in rows:
        lines.append(",".join([f"{x:.17g}", f"{exact:.17g}", *(values.get(n, "") for n in names)]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        _check_count(args.count)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc
    report, ok = run_verify(seed=args.seed, count=args.count)
    sys.stdout.write(report)
    return EXIT_OK if ok else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcap",
        description="Logarithmic capacity of finite unions of real intervals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_set_args(p):
        p.add_argument("-e", "--set", help="inline set a1:b1,a2:b2,...")
        p.add_argument("--json", help="path to JSON file {'intervals': [[a,b],...]}")

    p_cap = sub.add_parser("cap", help="compute the capacity of a set")
    add_set_args(p_cap)
    p_cap.add_argument("--method", choices=_METHODS, default="auto")
    p_cap.set_defaults(func=_cmd_cap)

    p_bounds = sub.add_parser("bounds", help="tabulate every bound against the exact value")
    add_set_args(p_bounds)
    p_bounds.add_argument("--method", choices=_METHODS, default="auto")
    p_bounds.add_argument("--out", help="also write the table as CSV")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_sweep = sub.add_parser("sweep", help="capacity and bounds along a parameter sweep (CSV)")
    p_sweep.add_argument(
        "--family",
        choices=FAMILIES,
        required=True,
    )
    p_sweep.add_argument("--grid", required=True, help="start:stop:count")
    p_sweep.add_argument("--width", type=float, default=0.4,
                         help="gap width (moving families)")
    p_sweep.add_argument("--center", type=float, default=0.0,
                         help="gap center (spreading_gap)")
    p_sweep.add_argument("--out", help="output CSV path (default: stdout)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the seeded self-verification suites")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--count", type=int, default=200)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


# flags whose values may start with '-' (negative endpoints, grids); argparse
# needs them glued to the flag to not mistake them for options
_DASH_VALUE_FLAGS = {"-e", "--set", "--grid", "--json", "--out"}


def _merge_dash_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            nxt = argv[i + 1]
            out.append(f"{tok}={nxt}" if tok.startswith("--") else f"{tok}{nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LogcapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
