"""Command-line behavior: exit codes, determinism, stage replay."""

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


@pytest.mark.parametrize(
    "old, new",
    [('"n_max":300', f'"n_max":{BIG_LITERAL}'), ('"n_max":300', '"n_max":' + "[" * 100_000)],
    ids=["n_max", "deep-nesting"],
)
def test_unreadable_replay_exits_2(worked_file, tmp_path, capsys, old, new):
    out = tmp_path / "run.jsonl"
    assert main(["analyze", worked_file, "--out", str(out)]) == 0
    text = out.read_text()
    assert old in text
    out.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    assert main(["gaps", worked_file, "--replay", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: malformed replay records")
    assert captured.out == ""


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


#: Values a fuzzed leaf of a problem file or a replay record may take: small
#: enough that every run stays quick, of every JSON type.
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
    """Every command on a mutated worked example, with interpolate and gaps
    replaying the mutated problem's own analyze records, exits 0 to 4."""
    doc = _mutated(data, WORKED, list(_leaf_paths(WORKED)))
    path, out = tmp_path / "fuzz.json", tmp_path / "fuzz.jsonl"
    path.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    path, out = str(path), str(out)
    runs = [["primes", path], ["returns", path], ["analyze", path, "--out", out],
            ["interpolate", path, "--replay", out], ["gaps", path, "--replay", out]]
    assert _exit_codes(runs, capsys) <= {0, 1, 2, 3, 4}


@pytest.fixture(scope="module")
def worked_records(tmp_path_factory):
    """The worked example's problem file and its analyze records."""
    tmp = tmp_path_factory.mktemp("worked")
    path, out = tmp / "worked.json", tmp / "run.jsonl"
    path.write_text(json.dumps(WORKED))
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    return str(path), _records(out)


@given(st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_replay_records(worked_records, tmp_path, capsys, data):
    """Every command on the worked example, replaying its analyze records
    with a read record mutated or dropped, exits 0 to 4."""
    problem, records = worked_records
    read = [i for i, r in enumerate(records)
            if r["record"] in ("certificates", "interpolant", "returns")]
    i = data.draw(st.sampled_from(read))
    records = list(records)
    if data.draw(st.integers(0, 9)) == 0:
        del records[i]
    else:
        records[i] = _mutated(data, records[i], list(_leaf_paths(records[i])))
    replay = tmp_path / "replay.jsonl"
    replay.write_text("".join(json.dumps(r) + "\n" for r in records))
    runs = [[command, problem, "--replay", str(replay)]
            for command in ("primes", "returns", "analyze", "interpolate", "gaps")]
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
    p, variety = gap["prime"], doc["variety"]
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


#: Each stage command, the records it writes, and the commands whose records it replays.
STAGE_COMMANDS = [
    ("primes", ("bad_primes", "certificates"), ()),
    ("returns", ("bad_primes", "returns"), ()),
    ("interpolate", ("model", "interpolant"), ("primes",)),
    ("gaps", ("model", "interpolant", "gap_report", "density"),
     ("primes", "returns", "interpolate")),
]

#: The starts of the ledger lines that the diagnostics stage writes; no
#: stage command runs it.
DIAGNOSTICS_LINES = ("no periodic points declared", "warning: ")


def _split_ledger(lines: list[str], analyze: list[str]) -> list[str]:
    """A stage command's records less its closing ledger record, if it wrote
    one; the ledger must hold the lines of analyze's summary, in order, less
    those of the diagnostics stage (no input it is given has screened
    returns, whose line interpolate would lack)."""
    summary = json.loads(analyze[-1])
    want = [a for a in summary["assumptions"] if not a.startswith(DIAGNOSTICS_LINES)]
    if not (lines and json.loads(lines[-1])["record"] == "assumptions"):
        return lines
    assert json.loads(lines[-1]) == {
        "record": "assumptions", "assumptions": want, "problem_sha": summary["problem_sha"],
    }
    return lines[:-1]


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_stage_commands_match_golden_records(problem, tmp_path):
    """Each stage command writes, byte for byte, the records of its kinds
    that tests/golden holds for analyze; interpolate and gaps rebuild the
    models from replayed records, and end with their ledger."""
    golden = (ROOT / "tests" / "golden" / f"{problem.stem}.jsonl").read_text().splitlines()
    outputs = {}
    for command, kinds, replayed in STAGE_COMMANDS:
        argv = [command, str(problem), "--out", str(tmp_path / f"{command}.jsonl")]
        if replayed:
            replay = tmp_path / f"{command}.replay.jsonl"
            replay.write_text("".join(outputs[name] for name in replayed))
            argv += ["--replay", str(replay)]
        assert main(argv) == 0
        outputs[command] = (tmp_path / f"{command}.jsonl").read_text()
        lines = outputs[command].splitlines()
        assert (json.loads(lines[-1])["record"] == "assumptions") == bool(replayed)
        want = [line for line in golden if json.loads(line)["record"] in kinds]
        assert _split_ledger(lines, golden) == want


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


def test_interpolate_requires_replay(worked_file):
    assert main(["interpolate", worked_file]) == 2


@pytest.mark.parametrize("command", ["primes", "returns", "analyze"])
def test_unused_replay_rejected(worked_file, tmp_path, capsys, command):
    out = tmp_path / "out.jsonl"
    missing = tmp_path / "missing.jsonl"
    assert main([command, worked_file, "--replay", str(missing), "--out", str(out)]) == 2
    assert not out.exists()
    assert "reads no replay records" in capsys.readouterr().err


def test_stage_replay_flow(worked_file, tmp_path):
    primes_out = tmp_path / "primes.jsonl"
    assert main(["primes", worked_file, "--out", str(primes_out)]) == 0
    interp_out = tmp_path / "interp.jsonl"
    assert (
        main(["interpolate", worked_file, "--replay", str(primes_out), "--out", str(interp_out)])
        == 0
    )
    returns_out = tmp_path / "returns.jsonl"
    assert main(["returns", worked_file, "--out", str(returns_out)]) == 0
    # gaps replays certificates + returns and re-verifies the interpolant
    combined = tmp_path / "combined.jsonl"
    combined.write_text(primes_out.read_text() + returns_out.read_text() + interp_out.read_text())
    gaps_out = tmp_path / "gaps.jsonl"
    assert main(["gaps", worked_file, "--replay", str(combined), "--out", str(gaps_out)]) == 0
    records = [json.loads(line) for line in gaps_out.read_text().splitlines()]
    assert any(r["record"] == "gap_report" for r in records)

    # replayed interpolation is deterministic: same coefficients both times
    interp1 = [json.loads(l) for l in interp_out.read_text().splitlines() if '"interpolant"' in l]
    interp2 = [json.loads(l) for l in gaps_out.read_text().splitlines() if '"interpolant"' in l]
    assert interp1 and interp1[0]["coefficients"] == interp2[0]["coefficients"]


def test_stale_replay_rejected(worked_file, tmp_path):
    primes_out = tmp_path / "primes.jsonl"
    assert main(["primes", worked_file, "--out", str(primes_out)]) == 0
    other = dict(WORKED)
    other["initial_point"] = [5]
    other_file = tmp_path / "other.json"
    other_file.write_text(json.dumps(other))
    assert main(["interpolate", str(other_file), "--replay", str(primes_out)]) == 2


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
    "command, stages, edit, message",
    [
        ("interpolate", ["primes"], lambda rec: [1], "entry 1 is not a record"),
        ("interpolate", ["primes"], _drop("rows", "certificates"), "certificates record has no"),
        ("interpolate", ["primes"], _drop("problem_sha"), "stale replay: a bad_primes record"),
        ("interpolate", ["primes", "interpolate"], _drop("shift", "interpolant"),
         "interpolant record has no"),
        ("gaps", ["primes", "returns"], _drop("entries", "returns"), "returns record has no"),
        ("gaps", ["primes", "returns", "interpolate"],
         _set("entries", [["1", "certified-exact"]], "returns"),
         "returns record: '1' is not an integer"),
    ],
    ids=["not-a-record", "no-rows", "no-problem-sha", "no-shift", "no-entries", "str-index"],
)
def test_malformed_replay_exits_2(worked_file, tmp_path, capsys, command, stages, edit, message):
    # replay files come from outside the program: a malformed record is an
    # input error that names its kind, before any stage runs
    records = []
    for stage in stages:
        out = tmp_path / f"{stage}.jsonl"
        replay = ["--replay", str(tmp_path / "primes.jsonl")] if stage == "interpolate" else []
        assert main([stage, worked_file, "--out", str(out), *replay]) == 0
        records += [json.loads(line) for line in out.read_text().splitlines()]
    path = tmp_path / "replay.jsonl"
    path.write_text("".join(json.dumps(edit(rec)) + "\n" for rec in records))
    capsys.readouterr()
    assert main([command, worked_file, "--replay", str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("entries", [[1.0, "certified-exact"]]),
        ("entries", [[1, "certified"]]),
        ("n_max", "100000"),
        ("exact_horizon", None),
        ("screening_primes", [101, "103"]),
        ("refuted", [True]),
    ],
)
def test_replayed_returns_are_type_checked(key, value):
    # the fields gaps reads from a returns record: integers and the two statuses
    rec = {"n_max": 100000, "entries": [[1, "certified-exact"]], "screening_primes": [101],
           "refuted": [], "exact_horizon": 1}
    assert pipeline._replayed_returns([rec]).indices() == [1]
    with pytest.raises((TypeError, ValueError)):
        pipeline._replayed_returns([{**rec, key: value}])


@pytest.mark.parametrize(
    "shift, garble, code, message",
    [
        (0, False, 0, None),
        ("0", True, 2, "interpolant record: shift '0' is not an integer"),
        (0, True, 2, "stale replay"),
        (5, False, 2, "stale replay"),
    ],
    ids=["as-recorded", "str-shift", "garbled", "no-such-model"],
)
def test_replayed_interpolant_shift_is_checked(tmp_path, capsys, shift, garble, code, message):
    # gaps rebuilds the interpolant of every shift and compares it with the
    # recorded one: a shift that is no integer is malformed (it matched no
    # model, so garbled coefficients passed), and a shift that names no model
    # of the rebuilt family is stale
    problem = str(ROOT / "problems" / "square_minus_two.json")
    analyzed = tmp_path / "analyze.jsonl"
    assert main(["analyze", problem, "--out", str(analyzed)]) == 0
    records = [json.loads(line) for line in analyzed.read_text().splitlines()]
    for rec in records:
        if rec["record"] == "interpolant":
            rec["shift"] = shift
            if garble:
                rec["coefficients"][1][0] += 1
    path = tmp_path / "replay.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    assert main(["gaps", problem, "--replay", str(path)]) == code
    if message:
        # a malformed record is refused before any stage, a stale one by a stage
        captured = capsys.readouterr()
        assert message in captured.err + captured.out


def test_missing_upstream_artifact(worked_file, tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["gaps", worked_file, "--replay", str(empty)]) == 2


@pytest.mark.parametrize("command", ["analyze", "interpolate"])
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
    argv = [command, str(path), "--out", str(out)]
    if command == "interpolate":
        primes_out = tmp_path / "primes.jsonl"
        assert main(["primes", str(path), "--out", str(primes_out)]) == 0
        argv += ["--replay", str(primes_out)]
        capsys.readouterr()
    assert main(argv) == 3
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
    primes = lines("primes")
    returns = lines("returns")
    replay = tmp_path / "replay.jsonl"
    replay.write_text("\n".join(primes + returns) + "\n")
    interpolate = lines("interpolate", "--replay", str(replay))
    gaps = lines("gaps", "--replay", str(replay))
    for stage_lines in (primes, returns, interpolate, gaps):
        stage_lines = _split_ledger(stage_lines, analyze)
        kinds = {kind(line) for line in stage_lines}
        assert stage_lines == [line for line in analyze if kind(line) in kinds]
    assert kind(interpolate[-1]) == kind(gaps[-1]) == "assumptions"


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


@pytest.mark.parametrize("command", ["interpolate", "gaps"])
def test_stage_commands_end_with_the_ledger(tmp_path, capsys, command):
    """A stage command writes no summary, so it ends its records with the
    ledger, and prints it: on the mixed-rank input both name the range
    n <= 32."""
    path, run_out, out = tmp_path / "mixed.json", tmp_path / "run.jsonl", tmp_path / "out.jsonl"
    path.write_text(json.dumps(MIXED_RANK))
    assert main(["analyze", str(path), "--out", str(run_out)]) == 0
    capsys.readouterr()
    assert main([command, str(path), "--replay", str(run_out), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert _split_ledger(lines, run_out.read_text().splitlines()) == lines[:-1]
    line = next(a for a in json.loads(lines[-1])["assumptions"] if "n <= 32 only" in a)
    assert f"  assumption: {line}\n" in capsys.readouterr().out


def test_gaps_on_screened_returns_names_them(worked_records, tmp_path, capsys):
    """The screened-returns line is written by the gaps stage, so gaps on
    replayed returns that are modular-screened only carries it too."""
    path, records = worked_records
    records = [dict(rec) for rec in records]  # the fixture is shared
    for rec in records:
        if rec["record"] == "returns":
            rec["entries"] = [[n, "modular-screened"] for n, _ in rec["entries"]]
    replay, out = tmp_path / "run.jsonl", tmp_path / "gaps.jsonl"
    replay.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    capsys.readouterr()
    assert main(["gaps", path, "--replay", str(replay), "--out", str(out)]) == 0
    ledger = _records(out)[-1]
    assert ledger["record"] == "assumptions"
    line = next(a for a in ledger["assumptions"] if a.startswith("some returns are modular"))
    assert f"  assumption: {line}\n" in capsys.readouterr().out
