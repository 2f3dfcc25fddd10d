"""Records are NamedTuples, plain classes and plain JSON values: copies are
checked, and start-up is cheap.

The types whose constructor checks or derives a field are plain classes, and
their copy helper `_replace` builds the copy through the constructor, so a
copy with a bad field fails exactly as construction with it fails.  No
record is a dataclass, so importing the CLI loads neither `dataclasses` nor
the `inspect` module it imports, and a NamedTuple's annotations are the
types themselves, so declaring one compiles no annotation string.  Reading
a problem file through the package namespace loads the problem-file layer
and no stage.  The problem file's digest comes from the interpreter's
built-in SHA-256 module, so no command loads `hashlib` and the OpenSSL
library under it.  Each kind of record that `analyze` writes has one fixed
set of keys, and the avoidance, gap and density reports are built as the
bodies of their records, which a JSON round trip leaves unchanged.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from padic_oracles import FAMILY_P29, map_from_lists

from orbitgap import gaps, interpolation, normalization, padic, pipeline, reduction
from orbitgap.errors import HypothesisViolation, InputError, OrbitgapError
from orbitgap.padic import PadicContext
from orbitgap.pipeline import run
from orbitgap.polynomials import PolyMap
from orbitgap.problemfile import (
    MAX_PRECISION,
    MAX_PRIME,
    MAX_SCREEN_PRIMES,
    ProblemInstance,
    RunParameters,
    load_problem,
    parse_problem,
    problem_hash,
)

SRC = Path(__file__).resolve().parents[1] / "src"
PROBLEMS = sorted((SRC.parent / "problems").glob("*.json"))

SQUARE_MINUS_TWO = map_from_lists(1, [{(2,): 1, (0,): -2}])
VARIETY = ({(1,): Fraction(1), (0,): Fraction(-7)},)
INSTANCE = ProblemInstance(1, SQUARE_MINUS_TWO, (Fraction(3),), VARIETY)
CONSTANT = map_from_lists(1, [{(0,): 5}])

# name -> (record, bad fields, the construction with the same fields)
BAD_COPIES = {
    "params-precision-above-cap": (
        RunParameters(), {"precision": MAX_PRECISION + 1},
        lambda: RunParameters(precision=MAX_PRECISION + 1),
    ),
    "params-prime-range-above-cap": (
        RunParameters(), {"prime_range": (3, MAX_PRIME + 1)},
        lambda: RunParameters(prime_range=(3, MAX_PRIME + 1)),
    ),
    "params-screen-primes-above-cap": (
        RunParameters(precision=16), {"screen_primes": MAX_SCREEN_PRIMES + 1},
        lambda: RunParameters(precision=16, screen_primes=MAX_SCREEN_PRIMES + 1),
    ),
    "params-n-max-zero": (
        RunParameters(), {"n_max": 0}, lambda: RunParameters(n_max=0),
    ),
    "instance-target-arity": (
        INSTANCE, {"targets": ((Fraction(1), Fraction(2)),)},
        lambda: ProblemInstance(
            1, SQUARE_MINUS_TWO, (Fraction(3),), VARIETY, ((Fraction(1), Fraction(2)),)
        ),
    ),
    "instance-constant-coordinate": (
        INSTANCE, {"mapping": CONSTANT},
        lambda: ProblemInstance(1, CONSTANT, (Fraction(3),), VARIETY),
    ),
    "instance-dimension": (
        INSTANCE, {"dimension": 2},
        lambda: ProblemInstance(2, SQUARE_MINUS_TWO, (Fraction(3),), VARIETY),
    ),
    "polymap-too-many-polynomials": (
        SQUARE_MINUS_TWO, {"polys": SQUARE_MINUS_TWO.polys * 2},
        lambda: PolyMap(1, SQUARE_MINUS_TWO.polys * 2),
    ),
    "polymap-exponent-arity": (
        SQUARE_MINUS_TWO, {"polys": ({(2, 0): Fraction(1)},)},
        lambda: PolyMap(1, ({(2, 0): Fraction(1)},)),
    ),
    "context-precision-zero": (
        PadicContext(5, 8), {"precision": 0}, lambda: PadicContext(5, 0),
    ),
    "context-composite-prime": (
        PadicContext(5, 8), {"prime": 9}, lambda: PadicContext(9, 8),
    ),
}


def _failure(call):
    with pytest.raises(OrbitgapError) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(BAD_COPIES))
def test_copy_with_a_bad_field_fails_as_construction_does(name):
    record, changes, construct = BAD_COPIES[name]
    expected = _failure(construct)
    assert expected[0] in (InputError, HypothesisViolation)
    assert _failure(lambda: record._replace(**changes)) == expected


def test_copy_derives_fields_as_construction_does():
    ctx = PadicContext(5, 3)._replace(precision=4)
    assert (ctx.prime, ctx.precision, ctx.modulus) == (5, 4, 5**4)
    params = RunParameters()._replace(n_max=7)
    assert (params.prime_range, params.precision, params.n_max) == ((3, 50), 64, 7)
    inst = INSTANCE._replace(targets=((Fraction(7),),))
    assert (inst.mapping, inst.targets) == (SQUARE_MINUS_TWO, ((Fraction(7),),))


def test_cli_import_loads_no_dataclass_machinery():
    # every orbitgap command is a fresh process: a dataclass declaration
    # generates its methods by exec at import, and `import dataclasses`
    # imports `inspect`, which nothing else of the program needs
    code = "import sys, orbitgap.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


NAMED_TUPLES = [
    cls
    for module in (gaps, interpolation, normalization, padic, reduction)
    for cls in vars(module).values()
    if isinstance(cls, type) and cls.__module__ == module.__name__ and hasattr(cls, "_fields")
]


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=[c.__qualname__ for c in NAMED_TUPLES])
def test_named_tuple_annotations_are_types_not_strings(cls):
    # typing.NamedTuple compiles each string annotation into a ForwardRef,
    # each time the module is imported, that is on every command
    assert cls.__annotations__
    strings = [n for n, t in cls.__annotations__.items() if isinstance(t, (str, typing.ForwardRef))]
    assert strings == []


def test_package_import_loads_only_the_problem_file_layer():
    # a process that only reads a problem file compiles no stage; the CLI,
    # imported after it in the same process, still brings in every stage
    code = (
        "import sys, orbitgap\n"
        "orbitgap.load_problem('problems/square_minus_two.json')\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'orbitgap'))\n"
        "import orbitgap.cli\n"
        "print('gaps' in vars(orbitgap) and 'pipeline' in vars(orbitgap))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=SRC.parent, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded, full = done.stdout.splitlines()
    assert loaded == str(
        ["orbitgap", "orbitgap.errors", "orbitgap.polynomials", "orbitgap.problemfile"]
    )
    assert full == "True"


def _run_bare(code: str, *args: str) -> list[str]:
    """Run code in a fresh `python -S` at the root of the checkout (no site
    hook, so sys.modules holds only what the interpreter and the code
    load); returns its stdout lines."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args], env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=SRC.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.splitlines()


def test_analyze_loads_no_openssl_digest(tmp_path):
    # importing hashlib maps OpenSSL's libcrypto, the largest part of an
    # orbitgap process's own memory, for one digest of the problem file; the
    # interpreter's built-in SHA-256 module gives the same digest
    code = (
        "import sys\n"
        "from orbitgap.cli import main\n"
        "code = main(['analyze', 'problems/square_minus_two.json', '--out', sys.argv[1]])\n"
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "import importlib.util\n"
        "builtin = any(importlib.util.find_spec(m) for m in ('_sha256', '_sha2'))\n"
        "print(code, builtin, loaded)\n"
    )
    code, builtin, loaded = _run_bare(code, str(tmp_path / "run.jsonl"))[-1].split(" ", 2)
    assert code == "0"
    if builtin == "True":
        assert loaded == "[]"


def _canonical_sha(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_problem_sha_is_the_sha256_of_the_canonical_document(problem):
    assert load_problem(str(problem))[2] == _canonical_sha(json.loads(problem.read_text()))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON)
@settings(max_examples=100, deadline=None)
def test_problem_hash_is_the_sha256_of_the_canonical_document(doc):
    assert problem_hash(doc) == _canonical_sha(doc)


def test_problem_hash_falls_back_to_hashlib():
    # an interpreter without a built-in SHA-256 module takes hashlib's
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from orbitgap.problemfile import load_problem\n"
        "print(load_problem('problems/square_minus_two.json')[2], 'hashlib' in sys.modules)\n"
    )
    sha = load_problem(str(SRC.parent / "problems" / "square_minus_two.json"))[2]
    assert _run_bare(code) == [f"{sha} True"]


def test_problem_hash_takes_the_sha2_module_of_newer_interpreters():
    # CPython 3.12+ has `_sha2` in place of `_sha256`; a stand-in `_sha2`
    # that carries this interpreter's built-in digest takes that branch
    code = (
        "import sys, types\n"
        "try:\n"
        "    from _sha256 import sha256\n"
        "except ImportError:\n"
        "    from _sha2 import sha256\n"
        "sys.modules['_sha256'] = None\n"
        "sys.modules['_sha2'] = types.ModuleType('_sha2')\n"
        "sys.modules['_sha2'].sha256 = sha256\n"
        "from orbitgap import problemfile\n"
        "print(problemfile.sha256 is sha256, 'hashlib' in sys.modules)\n"
    )
    if not any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    assert _run_bare(code) == ["True False"]


#: The keys of each record kind that analyze writes, besides `record` and
#: `problem_sha`; a change to one of them is a change to the record format.
RECORD_KEYS = {
    "bad_primes": {"primes"},
    "certificates": {"rows"},
    "diagnostics": {"prime", "bound", "residue_periodic_on_variety"},
    "model": {"shift", "m0", "k1", "k2", "center", "base_point", "congruence_exponent", "linear"},
    "interpolant": {"shift", "prime", "precision", "terms", "congruence_exponent", "decay_onset",
                    "coefficients", "constant"},
    "returns": {"n_max", "entries", "screening_primes", "refuted", "exact_horizon"},
    "gap_report": {"congruence_exponent", "verdict", "prefix_members", "uncovered_members",
                   "off_variety", "classes"},
    "density": {"m", "max_ratio", "diverging", "rows"},
    "summary": {"prime", "avoidance_bound", "returns", "gap_verdict", "density_max_ratio",
                "density_diverging", "assumptions"},
}

#: The keys of the records' list entries that are objects: (kind, field) -> keys.
ENTRY_KEYS = {
    ("certificates", "rows"): {"prime", "verdict", "bound", "depths"},
    ("gap_report", "off_variety"): {"shift", "polynomial", "residue", "refuted"},
    ("gap_report", "classes"): {"shift", "class", "members_model", "members_original",
                                "verdict", "gap_constant", "member_bound", "pairs"},
}


@pytest.mark.parametrize("problem", PROBLEMS, ids=[p.name for p in PROBLEMS])
def test_analyze_record_keys_are_fixed(problem):
    inst, params, sha = load_problem(str(problem))
    records = run("analyze", inst, params, sha).records
    assert {rec["record"] for rec in records} == RECORD_KEYS.keys()
    for rec in records:
        assert rec.keys() == RECORD_KEYS[rec["record"]] | {"record", "problem_sha"}
        for (kind, field), keys in ENTRY_KEYS.items():
            if rec["record"] == kind:
                assert all(entry.keys() == keys for entry in rec[field]), (kind, field)


#: The inputs whose reports must be plain JSON values: the samples and the
#: family-p29 input, each as (instance, parameters).
REPORT_INPUTS = {
    **{p.name: lambda p=p: load_problem(str(p))[:2] for p in PROBLEMS},
    "family-p29": lambda: parse_problem(FAMILY_P29),
}


@pytest.mark.parametrize("name", REPORT_INPUTS)
def test_reports_survive_a_json_round_trip(name, monkeypatch):
    """avoidance_search, build_gap_report and build_density_report return the
    bodies of the certificates, gap_report and density records: lists, dicts,
    strings, numbers, booleans and None, so that decoding their JSON gives
    them back equal (a tuple would come back as a list, an int key as a
    string)."""
    results = {}
    for builder in ("avoidance_search", "build_gap_report", "build_density_report"):
        def capture(*args, builder=builder, build=getattr(pipeline, builder)):
            results[builder] = build(*args)
            return results[builder]
        monkeypatch.setattr(pipeline, builder, capture)
    inst, params = REPORT_INPUTS[name]()
    assert run("analyze", inst, params, "round-trip").exit_code == 0
    assert len(results) == 3
    for builder, result in results.items():
        assert result == json.loads(json.dumps(result)), builder
