"""CLI behavior: parsing, output formats, exit codes, determinism."""

import json

import pytest

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


def test_cap_symmetric_pair(capsys):
    code, out, _ = run_cli(capsys, "cap", "-e", "-1:-0.5,0.5:1")
    assert code == 0
    value, method = out.split()[:2]
    assert float(value) == pytest.approx(0.4330127018922193, abs=1e-11)
    assert method == "akhiezer"


def test_cap_single_interval(capsys):
    code, out, _ = run_cli(capsys, "cap", "-e", "-1:1")
    assert code == 0
    tokens = out.split()
    assert float(tokens[0]) == 0.5
    assert tokens[1] == "closed_form"


def test_cap_forced_widom_agrees(capsys):
    _, out_a, _ = run_cli(capsys, "cap", "-e", "-1:-0.5,0.5:1")
    _, out_w, _ = run_cli(capsys, "cap", "-e", "-1:-0.5,0.5:1", "--method", "widom")
    va, vw = float(out_a.split()[0]), float(out_w.split()[0])
    assert abs(va - vw) <= 1e-8
    assert out_w.split()[1] == "widom"


def test_cap_json_input(tmp_path, capsys):
    path = tmp_path / "set.json"
    path.write_text(json.dumps({"intervals": [[-1, -0.5], [0.5, 1]]}))
    code, out, _ = run_cli(capsys, "cap", "--json", str(path))
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(0.4330127018922193, abs=1e-11)


def test_cap_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "cap", "-e", "garbage")
    assert code == 2
    assert "error" in err


def test_cap_missing_set_exit_2(capsys):
    code, _, err = run_cli(capsys, "cap")
    assert code == 2


def test_cap_bad_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "cap", "--json", str(path))
    assert code == 2


@pytest.mark.parametrize("data", [{"intervals": 3}, {"intervals": [1, 2]},
                                  {"intervals": [[0, 1, 2]]}])
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


def test_bounds_domain_error_exit_1(capsys):
    code, _, err = run_cli(capsys, "bounds", "-e", "-1:-0.6,-0.1:0.2,0.5:1", "--method", "akhiezer")
    assert code == 1
    assert "error" in err


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
            assert cells[i] <= exact + 1e-9
        for i in upper_idx:
            assert cells[i] >= exact - 1e-9


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


def test_verify_zero_count_trivial_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--count", "0")
    assert code == 0
    assert "RESULT: PASS" in out


def test_verify_deterministic_report(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--count", "6", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "verify", "--count", "6", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
