"""Pipeline orchestration and structured reporting.

One table, `COMMANDS`, names the stages each command runs, in order, and
`run` runs them with every stage failure handled in one place.  `analyze`
runs the whole chain; `primes` and `returns` run its first stages; and
`interpolate` and `gaps` start mid-chain, reading the prime and the return
set from the `--replay` records of an earlier run.  Each stage takes the
report and the run state, stores what later stages need in the state, and
appends machine-readable records (plain dicts, serialized as sorted-key JSON
lines).  The parsers of replayed records sit next to the stages that write
them.  The CLI renders a human summary from the same records, so no value is
computed at the CLI layer.  A failed stage ends the report with a failure
record naming the stage; the exception class determines the exit code.
"""

from __future__ import annotations

import json

from .errors import (
    BudgetExceeded,
    HypothesisViolation,
    InputError,
    InvariantViolation,
    OrbitgapError,
    PrecisionExhausted,
)
from .gaps import (
    ReturnEntry,
    ReturnSet,
    build_density_report,
    build_gap_report,
    compute_returns,
    default_screening_primes,
    localize_zeros,
    residue_witness,
)
from .interpolation import build_interpolant, constancy_test, verify_compatibility
from .normalization import build_model_family, ensure_not_preperiodic
from .padic import is_prime
from .polynomials import reduce_poly
from .problemfile import ProblemInstance, RunParameters
from .reduction import (
    avoidance_search,
    bad_primes,
    periodic_points_on_variety,
    reduce_instance,
)

#: Each command: the state fields it reads from --replay records, and the
#: stages it runs, in order.  A stage name `x` runs the function `stage_x`.
#: A command whose stages add to the assumption ledger ends with the stage
#: that writes it: summary in analyze, assumptions in the others (primes and
#: returns add none).
COMMANDS = {
    "primes": ((), ("bad_primes", "avoidance")),
    "returns": ((), ("bad_primes", "returns")),
    "interpolate": (("prime", "recorded"), ("normalization", "interpolation", "assumptions")),
    "gaps": (("prime", "recorded", "returns"),
             ("normalization", "interpolation", "gaps", "density", "assumptions")),
    "analyze": ((), ("bad_primes", "avoidance", "choose_prime", "diagnostics",
                     "normalization", "interpolation", "returns", "gaps", "density",
                     "summary")),
}

#: The stage a failure record names, where it is not the stage name itself.
_FAILURE_LABELS = {"bad_primes": "bad-primes", "choose_prime": "avoidance"}

#: Largest space F_p^N that diagnostics scans for residue-periodic points on V.
#: On a 2-core Intel Xeon, periodic_points_on_variety on the two_dim_swap map
#: took 0.09 s at p = 313 (97,969 points) and 1.7 s at p = 1021 (1,042,441
#: points, just under ENUM_GUARD = 2^20).
DIAGNOSTIC_SCAN_CAP = 100_000


class RunReport:
    """The records a run appends, its assumptions, and the error that ended it."""

    __slots__ = ("problem_sha", "records", "assumptions", "error")

    def __init__(self, problem_sha: str):
        self.problem_sha = problem_sha
        self.records: list[dict] = []
        self.assumptions: list[str] = []
        self.error: OrbitgapError | None = None

    def add(self, record: dict) -> None:
        record["problem_sha"] = self.problem_sha
        self.records.append(record)

    def fail(self, stage: str, exc: OrbitgapError) -> None:
        self.error = exc
        self.add({"record": "failure", "stage": stage, "message": str(exc)})

    @property
    def exit_code(self) -> int:
        return exit_code_for(self.error)


class RunState:
    """The run's inputs, and what each stage hands to the stages after it."""

    __slots__ = ("inst", "params", "recorded", "bad", "certs", "prime", "bound", "family",
                 "interps", "returns", "gap", "density")

    def __init__(
        self,
        inst: ProblemInstance,
        params: RunParameters,
        prime: int | None = None,
        recorded: dict[int, list] | None = None,  # replayed interpolant coefficients by shift
        returns: ReturnSet | None = None,
    ):
        self.inst = inst
        self.params = params
        self.prime = prime
        self.recorded = recorded
        self.returns = returns
        self.bad = self.certs = self.bound = self.family = self.interps = None
        self.gap = self.density = None


def exit_code_for(exc: Exception | None) -> int:
    if exc is None:
        return 0
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, (PrecisionExhausted, BudgetExceeded)):
        return 3
    if isinstance(exc, InvariantViolation):
        return 4
    return 1


def run(command: str, inst: ProblemInstance, params: RunParameters, sha: str,
        replay: str | None = None) -> RunReport:
    """Run a command's stages; `replay` is the path of an earlier run's records.

    Missing or unusable replay records, and replay records given to a
    command that reads none, raise InputError before any stage runs.  A
    stage that raises ends the report with a failure record.
    """
    replayed, stages = COMMANDS[command]
    if replay and not replayed:
        raise InputError(f"{command} reads no replay records; drop --replay")
    resumed = {}
    if replayed:
        if not replay:
            raise InputError(f"{command} needs --replay records from earlier stages")
        records = load_replay(replay, sha)
        for name in replayed:
            kind, parse = _REPLAY_PARSERS[name]
            try:
                resumed[name] = parse(records.get(kind, []))
            except KeyError as exc:
                raise InputError(f"malformed replay records: a {kind} record has no {exc}") from None
            except (TypeError, ValueError) as exc:
                raise InputError(f"malformed replay records: a {kind} record: {exc}") from None
    state = RunState(inst, params, **resumed)
    report = RunReport(sha)
    for name in stages:
        try:
            # looked up at call time, so wrappers installed on the module apply
            globals()[f"stage_{name}"](report, state)
        except OrbitgapError as exc:
            report.fail(_FAILURE_LABELS.get(name, name), exc)
            break
    return report


def run_analyze(inst: ProblemInstance, params: RunParameters, sha: str) -> RunReport:
    return run("analyze", inst, params, sha)


def load_replay(path: str, sha: str) -> dict[str, list[dict]]:
    """Records of a previous run, grouped by kind; each must carry this
    problem's hash (a record without one is stale too)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        raise InputError(f"cannot read replay records: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, deep nesting
        raise InputError(f"malformed replay records: {exc}") from None
    records: dict[str, list] = {}
    for number, rec in enumerate(lines, 1):
        if not (isinstance(rec, dict) and isinstance(rec.get("record"), str)):
            raise InputError(f"malformed replay records: entry {number} is not a record")
        if rec.get("problem_sha") != sha:
            raise InputError(
                f"stale replay: a {rec['record']} record was not produced from this problem file"
            )
        records.setdefault(rec["record"], []).append(rec)
    return records


def stage_bad_primes(report: RunReport, state: RunState) -> None:
    state.bad = bad = bad_primes(state.inst, search_bound=state.params.prime_range[1])
    report.add({"record": "bad_primes", "primes": sorted(bad.primes)})


def stage_avoidance(report: RunReport, state: RunState) -> None:
    lo, hi = state.params.prime_range
    primes = [p for p in range(lo, hi + 1) if is_prime(p)]
    if not primes:
        raise InputError(f"prime_range [{lo}, {hi}] holds no prime")
    state.certs = avoidance_search(state.inst, primes, state.bad)
    report.add({"record": "certificates", "rows": state.certs})


def _first_certified(rows: list[dict]) -> dict | None:
    """The first certified row of a certificates record: the smallest
    certified prime, since rows are in prime order."""
    return next((row for row in rows if row["verdict"] == "certified"), None)


def stage_choose_prime(report: RunReport, state: RunState) -> None:
    """Smallest certified prime in the scan and its avoidance bound."""
    row = _first_certified(state.certs)
    if row is None:
        verdicts = sorted({r["verdict"] for r in state.certs})
        raise HypothesisViolation(
            f"no prime in the scanned range was certified (verdicts seen: {verdicts})"
        )
    state.prime, state.bound = row["prime"], row["bound"]


def _replayed_prime(certificates: list[dict]) -> int:
    if not certificates:
        raise InputError("missing upstream artifact: run the primes stage first")
    row = _first_certified(certificates[-1]["rows"])
    if row is None:
        raise InputError("replay records contain no certified prime")
    if type(row["prime"]) is not int:
        raise TypeError(f"prime {row['prime']!r} is not an integer")
    return row["prime"]


def stage_diagnostics(report: RunReport, state: RunState) -> None:
    """Residue-level periodic points on the variety at the chosen prime.

    The residue orbit of the initial point needs no check: the prime's
    certificate proves that no point of F_p^N reaches a target at an
    iterate >= bound, and a target on the cycle of that orbit would be
    periodic, so the prime would be failed-periodic, not certified.
    """
    inst, prime, bound = state.inst, state.prime, state.bound
    discovered: list | None = None
    if prime**inst.dimension <= DIAGNOSTIC_SCAN_CAP:
        fp, _, _ = reduce_instance(inst, prime, state.bad)
        variety_p = [reduce_poly(q, prime) for q in inst.variety]
        discovered = periodic_points_on_variety(fp, variety_p)
    if not inst.targets:
        report.assumptions.append(
            "no periodic points declared on the variety; the user asserts there are none"
        )
        if discovered:
            report.assumptions.append(
                f"warning: {len(discovered)} residue-periodic points lie on the variety "
                f"mod {prime}; if any lifts to a periodic point it must be declared"
            )
    report.add(
        {
            "record": "diagnostics",
            "prime": prime,
            "bound": bound,
            "residue_periodic_on_variety": [list(pt) for pt in (discovered or [])]
            if discovered is not None
            else None,
        }
    )


def stage_normalization(report: RunReport, state: RunState) -> None:
    depth = ensure_not_preperiodic(state.inst)
    report.assumptions.append(
        f"non-preperiodicity verified heuristically to orbit depth {depth}"
    )
    state.family = family = build_model_family(state.inst, state.prime, state.params.precision)
    if len(family) == 1 and family[0].k_total > 1:
        report.assumptions.append(
            f"stride {family[0].k_total} exceeds the shift cap; only the residue class "
            "of the stabilized orbit index is analyzed"
        )
    for model in family:
        report.add(
            {
                "record": "model",
                "shift": model.shift,
                "m0": model.m0,
                "k1": model.k1,
                "k2": model.steps_per_iterate,
                "center": list(model.center),
                "base_point": list(model.base_point),
                "congruence_exponent": model.congruence_exponent,
                "linear": [list(row) for row in model.linear],
            }
        )


def stage_interpolation(report: RunReport, state: RunState) -> None:
    """Certified interpolants of the shifts on V; replayed ones must match
    the rebuilt ones bit for bit.

    A shift whose cycle point is off V mod p holds no return
    (gaps.residue_witness), so it gets no interpolant.  Each model's one
    difference table gives its coefficients and certifies them; its window
    checks at 0, 1 and K build their binomial rows from small exact
    integers.  When E is the identity the congruence lemma proves the error
    bound at every n, and the model holds only the window; otherwise the
    table checks it at every n <= 2K, and the ledger names that range.  A
    recorded shift that names no rebuilt interpolant is stale.
    """
    old = state.recorded or {}
    state.interps = {}
    stale = False
    lemma = True
    ctx = state.family[0].ctx
    on_variety = [m for m in state.family if residue_witness(m, state.inst.variety) is None]
    # With no shift on V the residue test alone proves that no index >= m0
    # returns.  Every shift is still interpolated and localized, listing no
    # class, because bench/test_bench.py traces square_plus_one, where no
    # shift is on V at p = 3, and requires every traced kernel to take time.
    for model in on_variety or state.family:
        interp = build_interpolant(model)
        lemma &= verify_compatibility(interp)
        record = interp.to_record()
        record.update(
            {
                "record": "interpolant",
                "shift": model.shift,
                "constant": constancy_test(interp),
            }
        )
        report.add(record)
        state.interps[model.shift] = interp
        stale = stale or (
            model.shift in old and old[model.shift] != record["coefficients"]
        )
    if not lemma:
        report.assumptions.append(
            "the linear part E of the model is not the identity: the interpolation "
            f"bound min(n c, K) is proved for n <= {2 * ctx.precision} only"
        )
    # no later stage reads the model points; base_point is points[0]
    slim = {model.shift: model._replace(points=model.points[:1]) for model in state.family}
    state.family = list(slim.values())
    state.interps = {s: i._replace(model=slim[s]) for s, i in state.interps.items()}
    if stale or not old.keys() <= state.interps.keys():
        raise InputError("stale replay: recorded interpolant disagrees with the rebuilt one")


def stage_returns(report: RunReport, state: RunState) -> None:
    params = state.params
    screening = default_screening_primes(state.bad, params.screen_primes)
    state.returns = returns = compute_returns(
        state.inst, params.n_max, screening, bad=state.bad
    )
    report.add(
        {
            "record": "returns",
            "n_max": returns.n_max,
            "entries": [[e.index, e.status] for e in returns.entries],
            "screening_primes": list(returns.screening_primes),
            "refuted": list(returns.refuted),
            "exact_horizon": returns.exact_horizon,
        }
    )


def _replayed_returns(returns: list[dict]) -> ReturnSet:
    if not returns:
        raise InputError("missing upstream artifact: run the returns stage first")
    rec = returns[-1]
    entries = tuple(ReturnEntry(n, status) for n, status in rec["entries"])
    numbers = [rec["n_max"], rec["exact_horizon"], *rec["screening_primes"], *rec["refuted"]]
    for value in [*numbers, *(e.index for e in entries)]:
        if type(value) is not int:
            raise TypeError(f"{value!r} is not an integer")
    for e in entries:
        if e.status not in ("certified-exact", "modular-screened"):
            raise ValueError(f"unknown return status {e.status!r}")
    return ReturnSet(
        rec["n_max"], entries, tuple(rec["screening_primes"]), tuple(rec["refuted"]),
        rec["exact_horizon"],
    )


def _replayed_interpolants(interpolants: list[dict]) -> dict[int, list]:
    """Coefficients of the replayed interpolants by shift, which the rebuilt ones must match."""
    for rec in interpolants:
        if type(rec["shift"]) is not int:
            raise TypeError(f"shift {rec['shift']!r} is not an integer")
    return {rec["shift"]: rec["coefficients"] for rec in interpolants}


#: Each state field read from --replay records: the record kind it is read
#: from, and its parser.  A record missing a field the parser reads, or with
#: one it cannot read, is an input error that names the kind.
_REPLAY_PARSERS = {
    "prime": ("certificates", _replayed_prime),
    "recorded": ("interpolant", _replayed_interpolants),
    "returns": ("returns", _replayed_returns),
}


def stage_gaps(report: RunReport, state: RunState) -> None:
    # written here, not by stage_returns, so that gaps on replayed returns carries it too
    if any(e.status == "modular-screened" for e in state.returns.entries):
        report.assumptions.append(
            "some returns are modular-screened only (exact budget exceeded); "
            "they are labeled as such everywhere downstream"
        )
    family, variety, interps = state.family, state.inst.variety, state.interps
    localized = [
        (m, localize_zeros(interps[m.shift], [m.transport_poly(q) for q in variety])
         if m.shift in interps else None)
        for m in family
    ]
    c = min(m.congruence_exponent for m in family)
    state.gap = build_gap_report(state.returns, localized, variety, c)
    report.add({"record": "gap_report", **state.gap})


def stage_density(report: RunReport, state: RunState) -> None:
    params = state.params
    state.density = build_density_report(state.returns.indices(), params.n_max, params.density_m)
    report.add({"record": "density", **state.density})


def stage_summary(report: RunReport, state: RunState) -> None:
    report.add(
        {
            "record": "summary",
            "prime": state.prime,
            "avoidance_bound": state.bound,
            "returns": [e.index for e in state.returns.entries],
            "gap_verdict": state.gap["verdict"],
            "density_max_ratio": state.density["max_ratio"],
            "density_diverging": state.density["diverging"],
            "assumptions": list(report.assumptions),
        }
    )


def stage_assumptions(report: RunReport, state: RunState) -> None:
    """The ledger of a command that writes no summary, if it is not empty."""
    if report.assumptions:
        report.add({"record": "assumptions", "assumptions": list(report.assumptions)})


def render_summary(report: RunReport) -> str:
    """Human-readable digest of the record stream."""
    lines = []
    for rec in report.records:
        kind = rec["record"]
        if kind == "bad_primes":
            lines.append(f"bad primes: {rec['primes'] or 'none'}")
        elif kind == "certificates":
            certified = sum(row["verdict"] == "certified" for row in rec["rows"])
            lines.append(f"avoidance scan: {len(rec['rows'])} primes, {certified} certified")
            for row in rec["rows"]:
                extra = f" M={row['bound']}" if row["bound"] is not None else ""
                lines.append(f"  p={row['prime']}: {row['verdict']}{extra}")
        elif kind == "diagnostics":
            lines.append(f"chosen prime {rec['prime']} (avoidance bound {rec['bound']})")
        elif kind == "model":
            lines.append(
                f"model shift {rec['shift']}: m0={rec['m0']} k1={rec['k1']} "
                f"k2={rec['k2']} c={rec['congruence_exponent']} center={rec['center']}"
            )
        elif kind == "interpolant":
            lines.append(
                f"interpolant shift {rec['shift']}: {rec['terms']} terms, "
                f"c={rec['congruence_exponent']}"
                f"{' (constant)' if rec['constant'] else ''}"
            )
        elif kind == "returns":
            entries = rec["entries"]
            lines.append(
                f"return set (n <= {rec['n_max']}): "
                f"{[e[0] for e in entries] or 'empty'}"
            )
            for n, status in entries:
                lines.append(f"  n={n}: {status}")
            if rec["refuted"]:
                lines.append(f"  refuted screened candidates: {rec['refuted']}")
        elif kind == "gap_report":
            lines.append(f"gap verdict: {rec['verdict']}")
            for cl in rec["classes"]:
                lines.append(
                    f"  shift {cl['shift']} class {cl['class']} mod p: "
                    f"{cl['verdict']} members={cl['members_original']}"
                )
        elif kind == "density":
            lines.append(
                f"density: max ratio {rec['max_ratio']} vs log^({rec['m']}), "
                f"diverging: {rec['diverging']}"
            )
        elif kind == "summary":
            lines.append(
                f"SUMMARY: prime {rec['prime']}, returns {rec['returns']}, "
                f"gap {rec['gap_verdict']}, density diverging {rec['density_diverging']}"
            )
        elif kind == "failure":
            lines.append(f"FAILED at stage {rec['stage']}: {rec['message']}")
        if kind in ("summary", "assumptions"):
            lines.extend(f"  assumption: {a}" for a in rec["assumptions"])
    return "\n".join(lines)
