"""CLI behavior: parsing, output formats, exit codes, determinism."""

import json
import shlex

import pytest

from logcap import all_bounds, verify
from logcap.cli import SweepSpec, format_inline_set, main, parse_inline_set
from logcap.errors import DomainError, ParseError
from logcap.sets import make_interval_union
from logcap.verify import SANDWICH_SLACK


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_inline_basic():
    e = parse_inline_set("-1:-0.5,0.5:1")
    assert e.intervals == ((-1.0, -0.5), (0.5, 1.0))


def test_parse_inline_errors():
    with pytest.raises(ParseError):
        parse_inline_set("nonsense")
    with pytest.raises(ParseError):
        parse_inline_set("1:2:3")
    with pytest.raises(ParseError):
        parse_inline_set("0.5:0.1")


def test_inline_round_trip():
    e = make_interval_union([(-1, -0.123456789012345), (0.5, 1)])
    assert parse_inline_set(format_inline_set(e)) == e


def test_cap_json_input(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"intervals": [[-1, -0.5], [0.5, 1]]}))
    code, out, _ = run_cli(capsys, "cap", "--json", str(path))
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(0.4330127018922193, abs=1e-11)


def test_cap_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # not JSON, JSON in bytes that are not UTF-8, and an integer past
    # Python's int-from-string digit limit
    for data in (b"{not json", b'\xff\xfe{"intervals": [[0, 1]]}',
                 b'{"intervals": [[0, 1' + b"0" * 5000 + b']]}'):
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "cap", "--json", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


@pytest.mark.parametrize("data", [{"intervals": 3}, {"intervals": [1, 2]},
                                  {"intervals": [[0, 1, 2]]}, {"intervals": [[0, 10**400]]}])
def test_cap_malformed_json_set_exit_2(tmp_path, capsys, data):
    path = tmp_path / "set.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "cap", "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_cap_set_and_json_together_exit_2(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"intervals": [[-1, -0.5], [0.5, 1]]}))
    code, out, err = run_cli(capsys, "cap", "-e", "-1:-0.6,0.5:1", "--json", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not both" in err


NINE_INTERVALS = (
    "-1:-0.993475,-0.80172:-0.694607,-0.547577:-0.381191,-0.174204:-0.162129,-0.040587:0.201589,"
    "0.362609:0.47974,0.577006:0.660432,0.678002:0.696589,0.955077:1"
)
TWENTY_COMPONENTS = (
    "-1.00:-0.96,-0.90:-0.86,-0.80:-0.76,-0.70:-0.66,-0.60:-0.56,-0.50:-0.46,-0.40:-0.36,"
    "-0.30:-0.26,-0.20:-0.16,-0.10:-0.06,0.00:0.04,0.10:0.14,0.20:0.24,0.30:0.34,0.40:0.44,"
    "0.50:0.54,0.60:0.64,0.70:0.74,0.80:0.84,0.90:0.94"
)

# Each row is a command line, its exit code, and what it prints: on exit 0
# either the whole stdout line or, for rows of the bounds table, the value
# column by name (a str exactly, a float as a floor, None for a row left
# out); on any other exit a prefix of stderr.  A change that moves a pinned
# value records the old and the new one.
CONSOLE_LINES = [
    ('cap -e "-1:-0.5,0.5:1"', 0, "0.4330127018922193 akhiezer 5e-14"),
    ('cap -e "-1:1"', 0, "0.5 closed_form 0"),
    # two intervals on the Widom route, and three off the unit hull, which
    # the route maps onto it
    ('cap -e "-1:-0.5,0.5:1" --method widom', 0, "0.43301270189221963 widom 4.62e-15"),
    ('cap -e "0:10,10.000005:20,30:40"', 0, "9.6590419499883886 widom 9.57e-14"),
    # six gaps beside components 1e-5 wide climb the moment ladder
    # together, in kernel calls split to the per-call node limit
    ('cap -e "-1:-0.5,-0.4:-0.39999,-0.3:-0.29999,-0.2:-0.19999,-0.1:-0.09999,0:0.00001,0.2:1"',
     0, "0.48260459272423523 widom 6.69e-13"),
    # the first moment level in one kernel call on the cached index layout,
    # the tail's root product endpoint-major
    (f'cap -e "{TWENTY_COMPONENTS}"', 0, "0.47405175473941702 widom 1.48e-11"),
    # hulls beyond about 9e307, and a subnormal hull, whose half-width
    # neither overflows nor rounds; a subnormal value's est_error is its ulp
    ('cap -e "1e308:1.2e308,1.5e308:1.7e308"', 0, "1.58113883008419e+307 akhiezer 1.78e+294"),
    ('cap -e "1e308:1.2e308,1.3e308:1.4e308,1.5e308:1.7e308"', 0,
     "1.7094034263253439e+307 widom 1.57e+293"),
    ('cap -e "-1.7e308:1.7e308"', 0, "8.4999999999999997e+307 closed_form 0"),
    # one subnormal interval: (b - a)/4 rounded once, not each quarter
    ('cap -e "3.2023e-319:2.39698e-318"', 0, "5.1918888393227393e-319 closed_form 0"),
    ('cap -e "1e-310:2e-310,2.5e-310:2.7e-310,3e-310:4e-310"', 0,
     "7.3430997502013353e-311 widom 4.94e-324"),
    # the chain kernels of both optimized bounds, and the partition bound
    ('bounds -e "-1:-0.6,-0.1:0.2,0.5:1"', 0, {
        "solynin_lower": "0.47357416419262183",
        "gap_division_lower": "0.4736533522813729",
        "partition_uniform_lower": "0.41448901441104491",
    }),
    # two intervals: one ascent serves both optimized bounds
    ('bounds -e "-1:-0.3,0.2:1"', 0, {
        "solynin_lower": "0.48407921576208524",
        "gap_division_lower": "0.48407921576208524",
        "projection_upper": "0.48407976042743123",
    }),
    ('bounds -e "0:1,2:4"', 0, {}),
    # an outer component 1 ulp wide: the elliptic modulus of Schiefermayr's
    # upper bound rounds to 1
    ('bounds -e "-1:-0.5,0.9999999999999999:1"', 0, {}),
    # the uniform partition's middle point lies on a component end
    ('bounds -e "-1:6.123233995736766e-17,0.5:1"', 0, {}),
    # a gap 4 ulp wide: the centre of its angle box can round onto its ends
    ('bounds -e "-1:-0.5,-0.49999999999999956:1"', 0, {}),
    # a gap 1 ulp wide holds no division point
    ('bounds -e "-1:-0.5,-0.49999999999999994:1"', 0,
     {"solynin_lower": None, "gap_division_lower": None}),
    # a component 1e-8 wide, beside which the Newton ascent runs
    ('bounds -e "-1:-0.8,-0.6:-0.5,-0.49999:-0.49998999,-0.49998:0.1,0.2:0.3,0.4:0.5,0.6:0.7,0.8:1"',
     0, {}),
    # a climb from the centres of the angle boxes stopped at 0.448024; the
    # split points' small-gap start reaches 0.448127
    (f'bounds -e "{NINE_INTERVALS}"', 0, {"solynin_lower": 0.448127}),
    ("sweep --family moving_two_gaps --grid 0.2:0.8:5 --width 0.15", 0, {}),
    # a Lobatto node rounds onto an endpoint: the ladder's error, not a
    # traceback from a numpy warning
    ('cap -e "-1:-0.5,0:1e-20,0.6:1"', 1, "error: gap moments"),
    ('bounds -e "-1:-0.6,-0.1:0.2,0.5:1" --method akhiezer', 1,
     "error: theta-quotient formula needs exactly two intervals"),
    ("cap -e garbage", 2, "error: expected 'a:b'"),
    ("cap", 2, "error: no set given"),
    ('cap -e "a:b"', 2, "error: not a number"),
    ("sweep --family moving_gap --grid 0:1:x", 2, "error: bad grid"),
]


@pytest.mark.parametrize("text, code, want", CONSOLE_LINES, ids=[row[0] for row in CONSOLE_LINES])
def test_console_line(capsys, text, code, want):
    got, out, err = run_cli(capsys, *shlex.split(text))
    assert got == code
    if code:
        assert out == "" and err.startswith(want)
        return
    assert err == ""
    if isinstance(want, str):
        assert out == want + "\n"
        return
    table = {cells[0]: cells[2] for cells in map(str.split, out.splitlines()) if len(cells) == 4}
    for name, value in want.items():
        if isinstance(value, float):
            assert float(table[name]) >= value
        else:
            assert table.get(name) == value


TWO_INTERVAL_BOUNDS = [
    "classical_lower", "schiefermayr_lower", "solynin_lower", "partition_uniform_lower",
    "gap_division_lower", "classical_upper", "polarization_upper", "gillis_upper",
    "schiefermayr_upper", "projection_upper",
]


@pytest.mark.parametrize("text", ["-3:0,1:2", "0:1,2:4", "-0.9:-0.2,0.1:0.8"])
def test_bounds_any_hull_lists_every_two_interval_bound(capsys, text):
    code, out, _ = run_cli(capsys, "bounds", "-e", text)
    assert code == 0
    rows = out.splitlines()[3:]
    assert [row.split()[0] for row in rows] == TWO_INTERVAL_BOUNDS
    exact = float(out.splitlines()[1].split()[1])
    for row in rows:
        _, kind, value, _ = row.split()
        if kind == "lower":
            assert float(value) <= exact + SANDWICH_SLACK
        else:
            assert float(value) >= exact - SANDWICH_SLACK


def test_bounds_table_and_round_trip(capsys):
    code, out, _ = run_cli(capsys, "bounds", "-e", "-1:-0.5,0.5:1")
    assert code == 0
    set_line = next(line for line in out.splitlines() if line.startswith("set: "))
    reparsed = parse_inline_set(set_line[len("set: "):])
    assert reparsed.intervals == ((-1.0, -0.5), (0.5, 1.0))
    assert "schiefermayr_lower" in out
    assert "projection_upper" in out


def test_bounds_three_intervals_filters_rows(capsys):
    code, out, _ = run_cli(capsys, "bounds", "-e", "-1:-0.6,-0.1:0.2,0.5:1")
    assert code == 0
    assert "polarization_upper" not in out
    assert "gap_division_lower" in out


def test_bounds_csv_output(tmp_path, capsys):
    path = tmp_path / "bounds.csv"
    code, _, _ = run_cli(capsys, "bounds", "-e", "-1:-0.5,0.5:1", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "name,kind,value,gap_to_exact"
    assert len(lines) == 11


def test_sweep_moving_gap(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "moving_gap", "--grid", "-0.95:0.55:11",
        "--width", "0.4", "--out", str(path)
    )
    assert code == 0
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["param", "exact"]
    assert len(lines) == 12
    # row-wise sandwich: lower columns <= exact <= upper columns
    lower_idx = [i for i, name in enumerate(header) if name.endswith("_lower")]
    upper_idx = [i for i, name in enumerate(header) if name.endswith("_upper")]
    for line in lines[1:]:
        cells = [float(x) for x in line.split(",")]
        exact = cells[1]
        for i in lower_idx:
            assert cells[i] <= exact + SANDWICH_SLACK
        for i in upper_idx:
            assert cells[i] >= exact - SANDWICH_SLACK


def test_sweep_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(
            capsys, "sweep", "--family", "spreading_gap", "--grid", "0.1:0.9:9",
            "--center", "0.1", "--out", str(p)
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_spreading_gap_small_width_near_half(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "spreading_gap", "--grid", "0.001:0.2:3"
    )
    assert code == 0
    first_row = out.splitlines()[1].split(",")
    assert float(first_row[1]) == pytest.approx(0.5, abs=1e-3)


def test_sweep_moving_two_gaps(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "moving_two_gaps", "--grid", "0.25:0.75:5",
        "--width", "0.15"
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert "gap_division_lower" in header
    assert "schiefermayr_lower" not in header


def test_sweep_columns_stay_aligned_where_a_gap_is_one_ulp_wide(capsys):
    # at -0.5 and 0.25 the gap is 1 ulp wide and all_bounds leaves out
    # the Solynin and gap-division bounds
    code, out, _ = run_cli(
        capsys, "sweep", "--family", "moving_gap", "--grid", "-0.5:0.25:4", "--width", "6e-17"
    )
    assert code == 0
    header, *rows = [line.split(",") for line in out.splitlines()]
    spec = SweepSpec("moving_gap", (-0.5, 0.25, 4), width=6e-17)
    assert header == ["param", "exact"] + [rep.name for rep in all_bounds(spec.set_at(0.0))]
    assert len(rows) == 4
    for x, row in zip(spec.parameters(), rows):
        assert len(row) == len(header)
        reports = {rep.name: rep.value for rep in all_bounds(spec.set_at(x))}
        for name, cell in zip(header[2:], row[2:]):
            assert cell == ("" if name not in reports else f"{reports[name]:.17g}")
    assert [row[header.index("solynin_lower")] == "" for row in rows] == [True, False, False, True]


def test_sweep_unwritable_path_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--family", "moving_gap", "--grid", "-0.5:0.5:3",
        "--out", "/nonexistent-dir/x.csv"
    )
    assert code == 3


def test_sweep_bad_grid_exit_2(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--family", "moving_gap", "--grid", "0:1")
    assert code == 2


def test_sweep_spec_validation():
    spec = SweepSpec("moving_gap", (-0.9, 0.5, 11), width=0.4)
    assert len(spec.parameters()) == 11
    assert spec.set_at(-0.2).intervals == ((-1.0, -0.2), (0.2, 1.0))
    with pytest.raises(ParseError):
        SweepSpec("unknown", (0.0, 1.0, 5))
    with pytest.raises(ParseError):
        SweepSpec("moving_gap", (0.0, 0.1, 1))
    with pytest.raises(DomainError):
        SweepSpec("moving_gap", (-0.9, 0.99, 5), width=0.4)  # beta would exceed 1
    # gaps of width <= 0, or too thin to survive rounding, would merge the
    # three intervals into [-1, 1]
    for width in (-0.1, 0.0, 1e-300):
        with pytest.raises(DomainError):
            SweepSpec("moving_two_gaps", (0.2, 0.8, 3), width=width)


def test_verify_zero_count_trivial_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--count", "0")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_negative_count_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--count", "-3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("count", [-3, -1, 2.5, "7"])
def test_run_verify_rejects_a_bad_count_before_any_suite(monkeypatch, count):
    def no_suite(*args):
        raise AssertionError("a suite ran")

    for name in ("sandwich_suite", "equality_suite", "dominance_suite", "cross_method_suite"):
        monkeypatch.setattr(verify, name, no_suite)
    with pytest.raises(DomainError, match="count"):
        verify.run_verify(1, count)


def test_run_verify_reports_a_seed_too_long_to_print():
    # the report's first line named the seed, and Python refuses to print
    # an integer of more than 4300 digits: a bare ValueError after every suite ran
    report, ok = verify.run_verify(10**5000, 0)
    assert report.startswith("logcap verify: seed=<int of 5001 digits> count=0\n") and ok


def test_verify_domain_error_in_a_suite_exit_1(capsys, monkeypatch):
    """Only the count is a bad argument: a suite's DomainError keeps exit 1."""
    def failing_suite(*args):
        raise DomainError("a suite failed")

    monkeypatch.setattr(verify, "sandwich_suite", failing_suite)
    code, out, err = run_cli(capsys, "verify", "--count", "3")
    assert code == 1
    assert out == ""
    assert "a suite failed" in err


def test_suite_result_counts_failures_and_keeps_five_notes():
    suite = verify.SuiteResult("demo")
    for i, margin in enumerate([0.5, -1.0, -3.0, 2.0, -0.5, -2.0, -0.1, -0.2, -0.3]):
        suite.record(margin, f"note {i}")
    assert (suite.checks, suite.failures, suite.worst) == (9, 7, -3.0)
    assert suite.notes == ["note 1", "note 2", "note 4", "note 5", "note 6"]
    assert not suite.ok
    assert suite.line() == "demo           FAIL: 2/9 checks passed (worst margin -3.000e+00)"


def test_verify_deterministic_report(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--count", "6", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "verify", "--count", "6", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
