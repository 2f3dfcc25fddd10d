"""Command-line behavior: exit codes, determinism, stage commands."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from padic_oracles import FAMILY_P29, MIXED_RANK

from orbitgap import gaps, normalization, pipeline, reduction
from orbitgap.cli import main
from orbitgap.errors import InputError
from orbitgap.problemfile import (
    MAX_DEGREE,
    MAX_DIMENSION,
    MAX_N_MAX,
    MAX_PRECISION,
    MAX_PRIME,
    MAX_PROBLEM_BYTES,
    MAX_SCREEN_PRIMES,
    load_problem,
    parse_problem,
)

WORKED = {
    "dimension": 1,
    "map": [[[[2], 1], [[0], -2]]],
    "initial_point": [3],
    "variety": [[[[1], 1], [[0], -7]]],
    "periodic_points": [],
    "parameters": {
        "prime_range": [3, 20],
        "precision": 16,
        "n_max": 300,
        "screen_primes": 3,
        "density_m": 1,
    },
}


ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = sorted((ROOT / "problems").glob("*.json"))


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


def test_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path):
    doc = dict(WORKED)
    doc["typo_key"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


def test_float_coefficient_rejected(tmp_path):
    doc = json.loads(json.dumps(WORKED))
    doc["map"][0][0][1] = 1.5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


def test_string_coefficients_parse_as_exact_rationals():
    doc = json.loads(json.dumps(WORKED))
    doc["map"][0][0][1] = "1/2"
    inst, _ = parse_problem(doc)
    assert inst.mapping.polys[0][(2,)] == Fraction(1, 2)
    for bad in ("abc", "1/0"):
        doc["map"][0][0][1] = bad
        with pytest.raises(InputError, match="not a rational literal"):
            parse_problem(doc)


@pytest.mark.parametrize("literal", ["-3", "+3", "7/2", "-7/2", "007"])
def test_rational_literal_forms_parse(literal):
    doc = json.loads(json.dumps(WORKED))
    doc["map"][0][0][1] = literal
    inst, _ = parse_problem(doc)
    assert inst.mapping.polys[0][(2,)] == Fraction(literal)


@pytest.mark.parametrize("literal", ["1.5", "1e3", "1_000", "1e10000000", " 3", "3/-2", "١٢"])
def test_other_string_literals_are_refused(tmp_path, literal):
    # Fraction reads decimals, exponents and underscores too; "1e10000000"
    # took 11 s to build before the problem file refused it
    doc = json.loads(json.dumps(WORKED))
    doc["map"][0][0][1] = literal
    with pytest.raises(InputError, match="not a rational literal"):
        parse_problem(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


#: An integer literal one digit over Python's int-string conversion limit.
BIG_LITERAL = "1" + "0" * 4300


@pytest.mark.parametrize(
    "old, new",
    [
        ("[[0], -2]", f"[[0], -{BIG_LITERAL}]"),
        ('"n_max": 300', f'"n_max": {BIG_LITERAL}'),
        ('"initial_point": [3]', '"initial_point": ' + "[" * 100_000 + "]" * 100_000),
    ],
    ids=["coefficient", "n_max", "deep-nesting"],
)
def test_unreadable_problem_file_exits_2(tmp_path, capsys, old, new):
    text = json.dumps(WORKED)
    assert old in text
    path = tmp_path / "bad.json"
    path.write_text(text.replace(old, new))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: unreadable problem file")


def test_problem_file_not_in_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps({**WORKED, "café": 1}, ensure_ascii=False).encode("latin-1"))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: unreadable problem file")


def test_oversized_problem_file_exits_2(tmp_path, capsys):
    # the file is read and parsed whole before any other cap applies, so its
    # size is refused first: a file of MAX_PROBLEM_BYTES still loads, one
    # byte more exits 2, and an endless stream is read no further than that
    text = json.dumps(WORKED)
    path = tmp_path / "cap.json"
    path.write_text(text + " " * (MAX_PROBLEM_BYTES - len(text)))
    assert main(["primes", str(path)]) == 0
    capsys.readouterr()
    for big in (str(path), "/dev/zero"):
        with open(path, "a") as fh:
            fh.write(" ")
        assert main(["analyze", big]) == 2
        assert capsys.readouterr().err == (
            f"error: problem file exceeds the cap of {MAX_PROBLEM_BYTES} bytes\n"
        )


def test_periodic_point_off_the_variety_exits_2(tmp_path, capsys):
    # 5 is not on V: x = 7, and used to become an avoidance target (exit 0)
    doc = dict(WORKED, periodic_points=[[7], [5]])
    with pytest.raises(InputError, match=r"periodic_points\[1\] does not lie on the variety"):
        parse_problem(doc)
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    # a constant map coordinate is still refused first, as a hypothesis (exit 1)
    path.write_text(json.dumps(dict(doc, map=[[[[0], 4]]])))
    assert main(["analyze", str(path)]) == 1


def _leaf_paths(node, path=()):
    """The key paths of the scalars and empty lists of a JSON document."""
    if isinstance(node, (dict, list)) and node:
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaf_paths(child, (*path, key))
    else:
        yield path


#: JSON texts no problem file may hold at a leaf of the worked example.
_HOSTILE_LEAVES = st.one_of(
    st.integers(4301, 4400).map(lambda digits: "7" * digits),
    st.integers(sys.getrecursionlimit() + 1, 100_000).map(lambda depth: "[" * depth + "]" * depth),
    st.from_regex(r"[+-]?[0-9]{1,3}(\.[0-9]{1,3}|[eE][+-]?[0-9]{1,4}|_[0-9]{3})", fullmatch=True)
    .map(json.dumps),
    st.sampled_from(["true", "false", "null"]),
    st.floats().map(json.dumps),
)


@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_problem_fuzz(tmp_path, data):
    """The worked example with some leaves replaced by over-long integers,
    over-deep nesting, decimal/exponent/underscore strings, booleans, floats
    or null loads or raises InputError, nothing else."""
    doc = json.loads(json.dumps(WORKED))
    texts = {}
    leaves = list(_leaf_paths(doc))
    for k, path in enumerate(data.draw(st.lists(st.sampled_from(leaves), max_size=3, unique=True))):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = marker = f"leaf-{k}"
        texts[json.dumps(marker)] = data.draw(_HOSTILE_LEAVES)
    text = json.dumps(doc)
    for marker, leaf in texts.items():
        text = text.replace(marker, leaf)
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    try:
        load_problem(str(path))
    except InputError:
        pass


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


#: Values a fuzzed leaf of a problem file may take: small enough that every
#: run stays quick, of every JSON type.
_FUZZ_VALUES = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(["1/2", "-3/7", "0", "1/0", "x", "", "certified", None, True, 2.5,
                     [], {}, [0], [[0]], [3, 50], [[[0], 1]]]),
)


def _mutated(data, doc, leaves):
    """doc with one to three of its leaves replaced by fuzz values or dropped;
    a path that an earlier change cut off is skipped."""
    doc = json.loads(json.dumps(doc))
    for path in data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3, unique=True)):
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if data.draw(st.booleans()):
                node[path[-1]] = data.draw(_FUZZ_VALUES)
            else:
                del node[path[-1]]
        except (KeyError, IndexError, TypeError):
            pass
    return doc


def _exit_codes(runs, capsys):
    """The exit code of main on each argument list, in process."""
    codes = set()
    for argv in runs:
        codes.add(main(argv))
        capsys.readouterr()
    return codes


@given(st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_problem_file(tmp_path, capsys, data):
    """Every command on a mutated worked example exits 0 to 4."""
    doc = _mutated(data, WORKED, list(_leaf_paths(WORKED)))
    path, out = tmp_path / "fuzz.json", tmp_path / "fuzz.jsonl"
    path.write_text(json.dumps(doc))
    path, out = str(path), str(out)
    runs = [["primes", path], ["returns", path], ["analyze", path, "--out", out]]
    assert _exit_codes(runs, capsys) <= {0, 1, 2, 3, 4}


@pytest.mark.parametrize("key", ["map", "variety"])
def test_oversized_degree_exits_2(tmp_path, key):
    # analyze on the map x^3000 - 2 runs for more than 30 s; the cap refuses
    # it while parsing, and degree MAX_DEGREE itself still parses
    doc = json.loads(json.dumps(WORKED))
    doc[key][0] = [[[MAX_DEGREE], 1], [[0], -2]]
    parse_problem(doc)
    doc[key][0] = [[[3000], 1], [[0], -2]]
    with pytest.raises(InputError, match="exceeds the cap"):
        parse_problem(doc)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


def test_oversized_dimension_exits_2(tmp_path, capsys):
    # analyze time grows steeply with the dimension (see MAX_DIMENSION); the
    # cap is checked before any polynomial is read, so a map that would not
    # parse is refused for its dimension, and dimension MAX_DIMENSION parses
    def doc(n, map_polys):
        return {"dimension": n, "map": map_polys, "initial_point": [0] * n,
                "variety": [[[[1] + [0] * (n - 1), 1]]]}

    def shift(n):  # x_i -> x_(i+1) + i
        return [[[[int(j == (i + 1) % n) for j in range(n)], 1], [[0] * n, i]]
                for i in range(n)]

    parse_problem(doc(MAX_DIMENSION, shift(MAX_DIMENSION)))
    big = doc(MAX_DIMENSION + 1, "not a map")
    with pytest.raises(InputError, match=f"dimension {MAX_DIMENSION + 1} exceeds the cap"):
        parse_problem(big)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    assert main(["analyze", str(path)]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, cap, flag",
    [
        ("precision", MAX_PRECISION, ["--precision"]),
        ("prime_range", MAX_PRIME, ["--prime-range", "3"]),
        ("n_max", MAX_N_MAX, ["--n-max"]),
        ("screen_primes", MAX_SCREEN_PRIMES, ["--screen-primes"]),
    ],
)
def test_oversized_parameters_exit_2(tmp_path, key, cap, flag):
    # analyze on the worked example with precision 3000, or primes up to
    # 3,000,000, runs for more than 20 s, and return screening time grows
    # with n_max and with screen_primes; the caps refuse such values while parsing, from a problem
    # file or a flag, and the cap itself still runs
    path = tmp_path / "cap.json"
    for value, code in ((cap, 0), (cap + 1, 2)):
        doc = json.loads(json.dumps(WORKED))
        doc["parameters"][key] = [3, value] if key == "prime_range" else value
        path.write_text(json.dumps(doc))
        assert main(["primes", str(path)]) == code
        path.write_text(json.dumps(WORKED))
        assert main(["primes", str(path), *flag, str(value)]) == code
    with pytest.raises(InputError, match="exceeds the cap"):
        parse_problem(doc)


@pytest.mark.parametrize(
    "key", ["mahler_terms", "exact_budget", "enumeration_guard", "shift_cap", "compat_samples"]
)
def test_resource_limits_are_not_parameters(tmp_path, key):
    # every resource limit is a module constant, so no problem file can raise
    # a guard: a file that sets one is refused like any unknown parameter
    doc = json.loads(json.dumps(WORKED))
    doc["parameters"][key] = 8
    with pytest.raises(InputError, match="unknown parameters"):
        parse_problem(doc)
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


@pytest.mark.parametrize("flag", ["--mahler-terms", "--exact-budget"])
def test_resource_limit_flags_are_refused(worked_file, flag):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", worked_file, flag, "8"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [*pipeline.COMMANDS, "interpolate", "gaps", "bogus"])
def test_one_parser_takes_every_command(worked_file, tmp_path, command):
    # every command of the stage table parses and runs from the problem file
    # and refuses --replay; any other word, the retired interpolate and gaps
    # among them, is a usage error.  A usage error writes no records.
    out = tmp_path / "run.jsonl"
    argv = [command, worked_file, "--out", str(out)]
    if command in pipeline.COMMANDS:
        assert main(argv) == 0
        argv += ["--replay", str(out)]
        out.unlink()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("dimension, points", [(1, [3]), (2, ["35"])])
def test_periodic_point_must_be_a_list(tmp_path, dimension, points):
    # a bare number used to escape as a TypeError, and a string was read
    # as its characters: ["35"] became the point (3, 5)
    unit = [[int(i == j) for j in range(dimension)] for i in range(dimension)]
    doc = {
        "dimension": dimension,
        "map": [[[unit[i], 2]] for i in range(dimension)],
        "initial_point": [1] * dimension,
        "variety": [[[unit[0], 1]]],
        "periodic_points": points,
    }
    with pytest.raises(InputError):
        parse_problem(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2


def test_analyze_worked_example(worked_file, tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["analyze", worked_file, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=1: certified-exact" in text
    assert "gap verdict: too-few-returns" in text
    records = [json.loads(line) for line in out.read_text().splitlines()]
    kinds = [r["record"] for r in records]
    for expected in ("bad_primes", "certificates", "model", "interpolant", "returns",
                     "gap_report", "density", "summary"):
        assert expected in kinds
    summary = records[-1]
    assert summary["returns"] == [1]
    assert summary["gap_verdict"] == "too-few-returns"


def test_analyze_deterministic_bytes(worked_file, tmp_path):
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["analyze", worked_file, "--out", str(out1)]) == 0
    assert main(["analyze", worked_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_analyze_matches_golden_records(problem, tmp_path):
    """Each sample's records, byte for byte, as tests/golden holds them.

    A change that alters a record on purpose regenerates the file with
    `orbitgap analyze problems/NAME.json --out tests/golden/NAME.jsonl` and
    names the changed field in CHANGES.md.
    """
    out = tmp_path / "run.jsonl"
    assert main(["analyze", str(problem), "--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "golden" / f"{problem.stem}.jsonl").read_bytes()


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_analyze_matches_golden_stdout(problem, capsys):
    """Each sample's human summary, byte for byte, as tests/golden holds it.

    The summary is rendered from the records alone, so a record change that
    keeps the summary must leave this file as it is.  A change to the summary
    on purpose regenerates it with `orbitgap analyze problems/NAME.json >
    tests/golden/NAME.txt`.
    """
    capsys.readouterr()
    assert main(["analyze", str(problem)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (ROOT / "tests" / "golden" / f"{problem.stem}.txt").read_text()
    assert captured.err == ""


def _residue(terms, point, p: int) -> int:
    """A polynomial as the problem file writes it, at an integer point, mod p."""
    value = Fraction(0)
    for exps, coeff in terms:
        term = Fraction(coeff)
        for x, e in zip(point, exps):
            term *= x**e
        value += term
    return value.numerator * pow(value.denominator, -1, p) % p


@pytest.mark.parametrize(
    "doc, on_variety",
    [
        (FAMILY_P29, set(range(1, 14, 2))),
        (MIXED_RANK, {2, 5, 8}),
        (json.loads((ROOT / "problems" / "square_minus_two.json").read_text()), set()),
    ],
    ids=["family-p29", "mixed-rank", "square_minus_two"],
)
def test_off_variety_certificate_checks_from_the_records(doc, on_variety, tmp_path):
    """Each off_variety entry of the gap report is checked from the records
    and V alone: its polynomial is nonzero mod p at the shift's model center,
    with the residue given, and the polynomials before it vanish there.  Every
    other shift has its center on V mod p and an interpolant.  When no shift
    is on V (square_minus_two) every shift is listed, and still interpolated.
    No class of a listed shift has a member."""
    path, out = tmp_path / "problem.json", tmp_path / "run.jsonl"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    [gap] = [r for r in records if r["record"] == "gap_report"]
    [p] = [r["prime"] for r in records if r["record"] == "diagnostics"]
    variety = doc["variety"]
    centers = {r["shift"]: r["center"] for r in records if r["record"] == "model"}
    interpolated = {r["shift"] for r in records if r["record"] == "interpolant"}
    off = {o["shift"]: o for o in gap["off_variety"]}
    for shift, o in off.items():
        residues = [_residue(q, centers[shift], p) for q in variety]
        i = o["polynomial"]
        assert residues[i] == o["residue"] != 0 and not any(residues[:i])
    assert centers.keys() - off.keys() == on_variety
    for shift in on_variety:
        assert not any(_residue(q, centers[shift], p) for q in variety)
    assert interpolated == (on_variety or centers.keys())
    assert not any(cl["members_original"] for cl in gap["classes"] if cl["shift"] in off)


#: Each stage command and the records it writes.
STAGE_COMMANDS = [
    ("primes", ("bad_primes", "certificates")),
    ("returns", ("bad_primes", "returns")),
]

@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_stage_commands_match_golden_records(problem, tmp_path):
    """Each stage command writes, byte for byte, the records of its kinds
    that tests/golden holds for analyze, and no other."""
    golden = (ROOT / "tests" / "golden" / f"{problem.stem}.jsonl").read_text().splitlines()
    for command, kinds in STAGE_COMMANDS:
        out = tmp_path / f"{command}.jsonl"
        assert main([command, str(problem), "--out", str(out)]) == 0
        want = [line for line in golden if json.loads(line)["record"] in kinds]
        assert out.read_text().splitlines() == want


def test_identity_map_rejected_preperiodic(tmp_path):
    doc = {
        "dimension": 1,
        "map": [[[[1], 1]]],
        "initial_point": [4],
        "variety": [[[[1], 1], [[0], -7]]],
        "parameters": {"prime_range": [3, 10], "precision": 8, "n_max": 50},
    }
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 1


def test_periodic_target_aborts_at_avoidance(tmp_path, capsys):
    doc = {
        "dimension": 1,
        "map": [[[[2], 1]]],
        "initial_point": [3],
        "variety": [[[[1], 1]]],
        "periodic_points": [[0]],
        "parameters": {"prime_range": [3, 20], "precision": 8, "n_max": 50},
    }
    path = tmp_path / "per.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(path) + ".jsonl"]) == 1
    text = capsys.readouterr().out
    assert "failed-periodic" in text


def test_two_dim_scan_above_the_guard_exits_3(monkeypatch, tmp_path, capsys):
    """ENUM_GUARD = 2^20 points admits F_p^N for every p up to MAX_PRIME in
    1-d, p <= 1021 in 2-d and p <= 101 in 3-d.  At p = 1031 the swap map's
    declared target (1, 1) is not periodic mod p, so it needs a scan of
    1031^2 points: the run refuses it with exit 3 and builds no table."""
    assert MAX_PRIME <= reduction.ENUM_GUARD
    assert 1021**2 <= reduction.ENUM_GUARD < 1031**2
    assert 101**3 <= reduction.ENUM_GUARD < 103**3
    tables = []
    monkeypatch.setattr(reduction, "horner_table", lambda *args: tables.append(args))
    doc = json.loads((ROOT / "problems" / "two_dim_swap.json").read_text())
    doc["periodic_points"] = [[1, 1]]
    doc["parameters"] = {"prime_range": [1031, 1031], "precision": 8, "n_max": 100}
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "guard.jsonl"
    assert main(["analyze", str(path), "--out", str(out)]) == 3
    assert (
        "FAILED at stage avoidance: space size 1062961 exceeds the enumeration guard"
        in capsys.readouterr().out
    )
    assert tables == []


def test_primes_subcommand(tmp_path, capsys):
    doc = {
        "dimension": 1,
        "map": [[[[2], 1], [[0], 1]]],
        "initial_point": [0],
        "variety": [[[[1], 1], [[0], -3]]],
        "periodic_points": [[3]],
        "parameters": {"prime_range": [3, 20], "precision": 8, "n_max": 50},
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["primes", str(path)]) == 0
    text = capsys.readouterr().out
    assert "certified" in text


def test_returns_subcommand(worked_file, tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    assert main(["returns", worked_file, "--out", str(out), "--n-max", "100"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    rec = next(r for r in records if r["record"] == "returns")
    assert rec["entries"] == [[1, "certified-exact"]]
    assert rec["n_max"] == 100


def _usage_error(argv, capsys) -> str:
    """The stderr of a command line the parser refuses: exit 2 before any
    stage runs, with nothing on stdout."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def _replay_refused(worked_file, tmp_path, capsys, records) -> None:
    """analyze handed a file of records, as the retired --replay took them:
    a usage error that writes no records, whatever the file holds."""
    out = tmp_path / "out.jsonl"
    err = _usage_error(["analyze", worked_file, "--replay", str(records), "--out", str(out)],
                       capsys)
    assert "unrecognized arguments: --replay" in err
    assert not out.exists()


def test_interpolate_requires_replay(worked_file, tmp_path, capsys):
    # interpolate read its prime from replayed records and is retired: with
    # records or without, it is a usage error
    primes_out = tmp_path / "primes.jsonl"
    assert main(["primes", worked_file, "--out", str(primes_out)]) == 0
    for argv in (["interpolate", worked_file], ["interpolate", worked_file, "--replay",
                                                str(primes_out)]):
        assert "invalid choice: 'interpolate'" in _usage_error(argv, capsys)


@pytest.mark.parametrize("command", ["primes", "returns", "analyze"])
def test_unused_replay_rejected(worked_file, tmp_path, capsys, command):
    # no command reads replay records, so every one refuses --replay
    out = tmp_path / "out.jsonl"
    missing = tmp_path / "missing.jsonl"
    err = _usage_error([command, worked_file, "--replay", str(missing), "--out", str(out)],
                       capsys)
    assert not out.exists()
    assert "unrecognized arguments: --replay" in err


def test_stale_replay_rejected(worked_file, tmp_path, capsys):
    # the records of one problem handed over with another are refused
    # unread, like any records
    primes_out = tmp_path / "primes.jsonl"
    assert main(["primes", worked_file, "--out", str(primes_out)]) == 0
    other = dict(WORKED)
    other["initial_point"] = [5]
    other_file = tmp_path / "other.json"
    other_file.write_text(json.dumps(other))
    _replay_refused(str(other_file), tmp_path, capsys, primes_out)


def _drop(key, kind=None):
    """A record edit that removes key from every record (of one kind, if given)."""
    def edit(rec):
        if kind is None or rec["record"] == kind:
            rec.pop(key, None)
        return rec
    return edit


def _set(key, value, kind):
    """A record edit that sets key on every record of one kind."""
    def edit(rec):
        if rec["record"] == kind:
            rec[key] = value
        return rec
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda rec: [1],
        _drop("rows", "certificates"),
        _drop("problem_sha"),
        _drop("shift", "interpolant"),
        _drop("entries", "returns"),
        _set("entries", [["1", "certified-exact"]], "returns"),
        _set("entries", [[-5, "certified-exact"], [1, "certified-exact"]], "returns"),
    ],
    ids=["not-a-record", "no-rows", "no-problem-sha", "no-shift", "no-entries", "str-index",
         "negative-index"],
)
def test_malformed_replay_exits_2(worked_file, tmp_path, capsys, edit):
    # records come from outside the program and no command reads them: a
    # malformed record file is refused before any stage runs
    analyzed = tmp_path / "analyze.jsonl"
    assert main(["analyze", worked_file, "--out", str(analyzed)]) == 0
    path = tmp_path / "replay.jsonl"
    path.write_text("".join(json.dumps(edit(rec)) + "\n" for rec in _records(analyzed)))
    _replay_refused(worked_file, tmp_path, capsys, path)


@pytest.mark.parametrize(
    "old, new",
    [('"n_max":300', f'"n_max":{BIG_LITERAL}'), ('"n_max":300', '"n_max":' + "[" * 100_000)],
    ids=["n_max", "deep-nesting"],
)
def test_unreadable_replay_exits_2(worked_file, tmp_path, capsys, old, new):
    # a record file that no JSON reader could take is refused unread
    analyzed = tmp_path / "analyze.jsonl"
    assert main(["analyze", worked_file, "--out", str(analyzed)]) == 0
    text = analyzed.read_text()
    assert old in text
    analyzed.write_text(text.replace(old, new, 1))
    _replay_refused(worked_file, tmp_path, capsys, analyzed)


def test_missing_upstream_artifact(worked_file, tmp_path, capsys):
    # gaps read its return set from replayed records and is retired; analyze
    # runs the returns stage itself
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    err = _usage_error(["gaps", worked_file, "--replay", str(empty)], capsys)
    assert "invalid choice: 'gaps'" in err


# interpolate, which also ran the interpolation stage, is retired
@pytest.mark.parametrize("command", ["analyze"])
def test_super_attracting_orbit_exits_3(tmp_path, capsys, command):
    # 3x^2 from 3: the orbit super-attracts to 0 and the finite-difference
    # interpolant cannot meet the decay schedule; the run stops honestly
    doc = {
        "dimension": 1,
        "map": [[[[2], 3]]],
        "initial_point": [3],
        "variety": [[[[1], 1], [[0], -1]]],
        "parameters": {"prime_range": [3, 3], "precision": 16, "n_max": 50},
    }
    path = tmp_path / "attract.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run.jsonl"
    assert main([command, str(path), "--out", str(out)]) == 3
    assert "FAILED at stage interpolation" in capsys.readouterr().out
    failure = [json.loads(line) for line in out.read_text().splitlines()][-1]
    assert failure["record"] == "failure"
    assert failure["stage"] == "interpolation"


def test_bound_shortfall_beyond_the_window_exits_3(tmp_path, capsys):
    # x^2 + x - 2 from 5 at precision 8 passes the decay gate on 9 terms and
    # misses the bound at n = 9, in the uncertified tail: precision ran short
    doc = {
        "dimension": 1,
        "map": [[[[2], 1], [[1], 1], [[0], -2]]],
        "initial_point": [5],
        "variety": [[[[1], 1], [[0], -7]]],
        "parameters": {"precision": 8},
    }
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run.jsonl"
    assert main(["analyze", str(path), "--out", str(out)]) == 3
    assert "FAILED at stage interpolation" in capsys.readouterr().out
    failure = [json.loads(line) for line in out.read_text().splitlines()][-1]
    assert failure["stage"] == "interpolation"
    assert failure["message"].startswith("approximation bound failed at n=9")


def test_stage_commands_match_analyze(worked_file, tmp_path):
    def lines(command, *extra):
        out = tmp_path / f"{command}.jsonl"
        assert main([command, worked_file, "--out", str(out), *extra]) == 0
        return out.read_text().splitlines()

    def kind(line):
        return json.loads(line)["record"]

    analyze = lines("analyze")
    for command, _ in STAGE_COMMANDS:
        stage_lines = lines(command)
        kinds = {kind(line) for line in stage_lines}
        assert stage_lines == [line for line in analyze if kind(line) in kinds]


def test_screening_primes_skip_run_bad_primes(tmp_path):
    # 101 divides a map coefficient, so screening must pass over it rather
    # than reject its own choice
    doc = {
        "dimension": 1,
        "map": [[[[2], 1], [[1], "1/101"]]],
        "initial_point": [1],
        "variety": [[[[1], 1]]],
        "periodic_points": [],
        "parameters": {"prime_range": [3, 110], "screen_primes": 3},
    }
    path = tmp_path / "den.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.jsonl"
    assert main(["returns", str(path), "--out", str(out)]) == 0
    records = _records(out)
    assert records[0]["primes"] == [101]
    assert records[-1]["screening_primes"] == [103, 107, 109]


@pytest.mark.parametrize("command", ["analyze", "primes"])
def test_prime_range_without_a_prime_exits_2(worked_file, tmp_path, command):
    out = tmp_path / "r.jsonl"
    assert main([command, worked_file, "--prime-range", "24", "28", "--out", str(out)]) == 2
    failure = _records(out)[-1]
    assert failure["record"] == "failure" and failure["stage"] == "avoidance"
    assert failure["message"] == "prime_range [24, 28] holds no prime"


def test_large_prime_denominator_is_not_factored(tmp_path):
    # trial division would need about 1.5e9 steps to factor 2^61 - 1
    doc = json.loads(json.dumps(WORKED))
    doc["initial_point"] = [f"3/{2**61 - 1}"]
    path, out = tmp_path / "big.json", tmp_path / "r.jsonl"
    path.write_text(json.dumps(doc))
    assert main(["primes", str(path), "--out", str(out)]) == 0
    bad = _records(out)[0]
    assert bad["record"] == "bad_primes"
    assert all(p <= WORKED["parameters"]["prime_range"][1] for p in bad["primes"])


def test_denominator_prime_above_the_range_is_not_a_screening_prime(tmp_path):
    doc = json.loads(json.dumps(WORKED))
    doc["initial_point"] = ["3/103"]
    doc["parameters"]["prime_range"] = [3, 50]
    path, out = tmp_path / "den.json", tmp_path / "r.jsonl"
    path.write_text(json.dumps(doc))
    assert main(["returns", str(path), "--out", str(out)]) == 0
    records = _records(out)
    assert 103 not in records[0]["primes"]
    assert records[-1]["screening_primes"] == [101, 107, 109]


def test_stages_are_looked_up_on_the_module(monkeypatch):
    # the benchmark's per-layer spans wrap the module's stage_* attributes
    calls = []
    original = pipeline.stage_returns

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pipeline, "stage_returns", counting)
    inst, params = parse_problem(WORKED)
    report = pipeline.run_analyze(inst, params, "sha")
    assert report.error is None
    assert len(calls) == 1


def test_flag_overrides(worked_file, tmp_path):
    out = tmp_path / "o.jsonl"
    assert main(["analyze", worked_file, "--precision", "12", "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    rec = next(r for r in records if r["record"] == "interpolant")
    assert rec["precision"] == 12


def test_broken_invariant_exits_4(monkeypatch, tmp_path, capsys):
    # the leaves of a class partition it, so a return member in no leaf is a
    # bug; leaves that hold no model index make the swap sample's return 0 one
    nowhere = gaps.ZeroLocalization(-1, 64, 0, 0)
    localize = pipeline.localize_zeros

    def misplaced(*args):
        return [(nowhere,) if leaves else leaves for leaves in localize(*args)]

    monkeypatch.setattr(pipeline, "localize_zeros", misplaced)
    out = tmp_path / "run.jsonl"
    problem = ROOT / "problems" / "two_dim_swap.json"
    assert main(["analyze", str(problem), "--out", str(out)]) == 4
    assert "FAILED at stage gaps" in capsys.readouterr().out
    failure = [json.loads(line) for line in out.read_text().splitlines()][-1]
    assert failure["record"] == "failure"
    assert failure["stage"] == "gaps"
    assert "lies in no leaf" in failure["message"]


def test_model_not_linear_mod_p_exits_4(monkeypatch, worked_file, tmp_path):
    # every chart is linear mod p by construction, so a model with c = 0 is
    # a broken invariant, not a property of the input
    rotations = normalization._rotation_series

    def c_zero(*args):
        return {s: (series, 0) for s, (series, _) in rotations(*args).items()}

    monkeypatch.setattr(normalization, "_rotation_series", c_zero)
    out = tmp_path / "run.jsonl"
    assert main(["analyze", worked_file, "--out", str(out)]) == 4
    failure = [json.loads(line) for line in out.read_text().splitlines()][-1]
    assert (failure["record"], failure["stage"]) == ("failure", "normalization")
    assert "c < 1" in failure["message"]


def test_long_cycle_exits_3_at_normalization(tmp_path):
    # x -> x + 1 from 0 has a cycle of all 101^2 residues mod 101^2
    doc = {
        "dimension": 1,
        "map": [[[[1], 1], [[0], 1]]],
        "initial_point": [0],
        "variety": [[[[1], 1], [[0], -7]]],
        "parameters": {"prime_range": [101, 101], "precision": 8, "n_max": 50},
    }
    path, out = tmp_path / "cycle.json", tmp_path / "run.jsonl"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "--out", str(out)]) == 3
    failure = [json.loads(line) for line in out.read_text().splitlines()][-1]
    assert (failure["record"], failure["stage"]) == ("failure", "normalization")
    assert failure["message"] == "mod-p^2 cycle length k1 = 10201 exceeds the cap 10000"


def test_corrupted_window_point_exits_4(monkeypatch, worked_file, tmp_path, capsys):
    # every model of the worked example has E = I, where the congruence
    # lemma proves v(a_k) >= min(k c, K): a window point off by 1 gives a
    # coefficient of valuation 0, a program error, not a precision shortfall
    walk = normalization._model_points

    def corrupted(inst, chain, ctx, k_total, shifts, count):
        points = walk(inst, chain, ctx, k_total, shifts, count)
        shift, window = next(iter(points.items()))
        bad = tuple((x + 1) % ctx.modulus for x in window[5])
        return {**points, shift: (*window[:5], bad, *window[6:])}

    monkeypatch.setattr(normalization, "_model_points", corrupted)
    out = tmp_path / "run.jsonl"
    assert main(["analyze", worked_file, "--out", str(out)]) == 4
    assert "FAILED at stage interpolation" in capsys.readouterr().out
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {str(r["linear"]) for r in records if r["record"] == "model"} == {"[[1]]"}
    assert (records[-1]["record"], records[-1]["stage"]) == ("failure", "interpolation")
    assert records[-1]["message"].startswith("interpolant coefficient 5 has valuation 0 < ")


@pytest.mark.parametrize("step, check", [(1, "translate-scale"), (None, "base-point")])
def test_broken_normalization_invariant_exits_4(monkeypatch, worked_file, tmp_path, capsys,
                                                step, check):
    # the cycle mod p^2 is exact by construction; a point moved by 1 breaks
    # the chart steps, and one moved by p (still a chart center) the base point
    stabilized = normalization.stabilize_orbit

    def moved(inst, p):
        k1, m0, cycle = stabilized(inst, p)
        eta = tuple(x + (step or p) for x in cycle[0])
        return k1, m0, [eta, *cycle[1:]]

    monkeypatch.setattr(normalization, "stabilize_orbit", moved)
    out = tmp_path / "run.jsonl"
    assert main(["analyze", worked_file, "--out", str(out)]) == 4
    assert "FAILED at stage normalization" in capsys.readouterr().out
    failure = [json.loads(line) for line in out.read_text().splitlines()][-1]
    assert failure["record"] == "failure"
    assert failure["stage"] == "normalization"
    assert failure["message"].startswith(f"normalization/{check}:")


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_optimized_interpreter_gives_the_same_run(problem, tmp_path):
    # python -O strips assert statements, so a check kept in one would
    # vanish here and could change the records or the exit code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = []
    for flags in ([], ["-O"]):
        out = tmp_path / f"run{len(runs)}.jsonl"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "orbitgap.cli", "analyze", str(problem),
             "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )
        runs.append((proc.returncode, proc.stdout, out.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("extra, code", [([], 0), (["--prime-range", "24", "28"], 2)],
                         ids=["success", "failed-stage"])
def test_closed_stdout_keeps_the_exit_code(tmp_path, extra, code):
    # a reader that stops reading (orbitgap analyze ... | head -1) is no
    # hypothesis violation: the records are complete, no traceback is
    # printed, and the run exits with its own code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    problem, out = ROOT / "problems" / "square_minus_two.json", tmp_path / "run.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitgap.cli", "analyze", str(problem), "--out", str(out),
         *extra],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == code
    assert err == b""
    assert main(["analyze", str(problem), "--out", str(tmp_path / "again.jsonl"), *extra]) == code
    assert out.read_bytes() == (tmp_path / "again.jsonl").read_bytes()


def test_package_has_no_assert_statements():
    # python -O strips assert statements; a broken invariant must raise
    # InvariantViolation so that it exits 4 under every interpreter flag
    found = []
    for path in sorted((ROOT / "src" / "orbitgap").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_draws_no_pseudo_random_numbers():
    # every verdict is an integer comparison that a reader can check again:
    # no module of the package imports a source of random numbers.  The
    # syntax trees are read, not sys.modules, which a site hook of the
    # interpreter may fill with `random` before the package is imported.
    found = []
    for path in sorted((ROOT / "src" / "orbitgap").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("random", "secrets")]
    assert found == []


#: A 2-d map whose chosen prime 3 gives a family of models with rank-1
#: idempotent linear parts E.
def test_mixed_rank_run_names_the_proved_range(tmp_path, capsys):
    """(2 - y + 3x^2 + xy - 2y^2, -2 + y - x^2 - 3xy - 2y^2) from (-2, -1),
    V: x + 2 = 0, at p = 3: no model has E = I, so the congruence lemma does
    not apply, and the ledger names the range n <= 2K = 32 that the bound
    table proves.  The run is otherwise unchanged.  The samples, whose
    models all have E = I, carry no such line."""
    path, out = tmp_path / "mixed.json", tmp_path / "mixed.jsonl"
    path.write_text(json.dumps(MIXED_RANK))
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["linear"] != [[1, 0], [0, 1]] for r in records if r["record"] == "model")
    summary = records[-1]
    assert summary["record"] == "summary"
    assert (summary["prime"], summary["returns"], summary["gap_verdict"]) == (
        3, [0], "too-few-returns"
    )
    line = (
        "the linear part E of the model is not the identity: the interpolation "
        "bound min(n c, K) is proved for n <= 32 only"
    )
    assert summary["assumptions"].count(line) == 1
    assert f"  assumption: {line}\n" in capsys.readouterr().out
    for golden in sorted((ROOT / "tests" / "golden").glob("*.jsonl")):
        assert "is not the identity" not in golden.read_text()


def test_gaps_on_screened_returns_names_them(monkeypatch, worked_file, tmp_path, capsys):
    """The gaps stage names returns that are modular-screened only in the
    ledger, once: with an exact bit budget too small for the orbit point
    f(3) = 7, the worked example's one return is screened, not certified."""
    monkeypatch.setattr(gaps, "EXACT_BIT_BUDGET", 3)
    out = tmp_path / "run.jsonl"
    assert main(["analyze", worked_file, "--out", str(out)]) == 0
    records = _records(out)
    [returns] = [rec for rec in records if rec["record"] == "returns"]
    assert returns["entries"] == [[1, "modular-screened"]]
    summary = records[-1]
    line = next(a for a in summary["assumptions"] if a.startswith("some returns are modular"))
    assert summary["assumptions"].count(line) == 1
    assert f"  assumption: {line}\n" in capsys.readouterr().out


@pytest.mark.parametrize("out", ["missing/run.jsonl", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_exits_2(monkeypatch, worked_file, tmp_path, capsys, out):
    """A records path that cannot be opened for writing is an input error
    found before any stage runs: one error line, nothing on stdout."""
    stages = []
    monkeypatch.setattr(pipeline, "stage_bad_primes", lambda *args: stages.append(args))
    assert main(["analyze", worked_file, "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write records: ")
    assert captured.err.count("\n") == 1
    assert stages == []
