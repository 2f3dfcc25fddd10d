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
from dataclasses import dataclass, field

from .errors import (
    BudgetExceeded,
    HypothesisViolation,
    InputError,
    OrbitgapError,
    PrecisionExhausted,
)
from .gaps import (
    DensityReport,
    GapReport,
    ReturnEntry,
    ReturnSet,
    build_density_report,
    build_gap_report,
    compute_returns,
    default_screening_primes,
    localize_zeros,
)
from .interpolation import (
    build_interpolant,
    constancy_test,
    default_compat_samples,
    verify_compatibility,
    verify_error_bound,
)
from .normalization import build_model_family, ensure_not_preperiodic
from .padic import is_prime
from .problemfile import RunParameters
from .reduction import (
    AvoidanceScan,
    BadPrimeSet,
    ProblemInstance,
    avoidance_search,
    bad_primes,
    periodic_points_on_variety,
    reduce_instance,
    reduce_poly,
    residue_orbit_avoids,
)

#: Each command: the state fields it reads from --replay records, and the
#: stages it runs, in order.  A stage name `x` runs the function `stage_x`.
COMMANDS = {
    "primes": ((), ("bad_primes", "avoidance")),
    "returns": ((), ("bad_primes", "returns")),
    "interpolate": (("prime",), ("normalization", "interpolation")),
    "gaps": (("prime", "returns"), ("normalization", "interpolation", "gaps", "density")),
    "analyze": ((), ("bad_primes", "avoidance", "choose_prime", "diagnostics",
                     "normalization", "interpolation", "returns", "gaps", "density",
                     "summary")),
}

#: The stage a failure record names, where it is not the stage name itself.
_FAILURE_LABELS = {"bad_primes": "bad-primes", "choose_prime": "avoidance"}


def _fmt(x) -> str:
    return "%.6g" % x


@dataclass
class RunReport:
    problem_sha: str
    records: list[dict] = field(default_factory=list)
    assumptions: list[str] = field(default_factory=list)
    failure: tuple[str, str] | None = None
    error: OrbitgapError | None = None

    def add(self, record: dict) -> None:
        record["problem_sha"] = self.problem_sha
        self.records.append(record)

    def fail(self, stage: str, exc: OrbitgapError) -> None:
        self.failure = (stage, str(exc))
        self.error = exc
        self.add({"record": "failure", "stage": stage, "message": str(exc)})

    @property
    def exit_code(self) -> int:
        return exit_code_for(self.error)


@dataclass
class RunState:
    """The run's inputs, and what each stage hands to the stages after it."""

    inst: ProblemInstance
    params: RunParameters
    replay: dict[str, list[dict]] | None = None
    bad: BadPrimeSet | None = None
    scan: AvoidanceScan | None = None
    prime: int | None = None
    bound: int | None = None
    family: list | None = None
    interps: dict | None = None
    returns: ReturnSet | None = None
    gap: GapReport | None = None
    density: DensityReport | None = None


def exit_code_for(exc: Exception | None) -> int:
    if exc is None:
        return 0
    if isinstance(exc, InputError):
        return 2
    if isinstance(exc, (PrecisionExhausted, BudgetExceeded)):
        return 3
    return 1


def run(command: str, inst: ProblemInstance, params: RunParameters, sha: str,
        replay: str | None = None) -> RunReport:
    """Run a command's stages; `replay` is the path of an earlier run's records.

    Missing or unusable replay records, and replay records given to a
    command that reads none, raise InputError before any stage runs.  A
    stage that raises ends the report with a failure record.
    """
    replayed, stages = COMMANDS[command]
    state = RunState(inst, params)
    if replay and not replayed:
        raise InputError(f"{command} reads no replay records; drop --replay")
    if replayed:
        if not replay:
            raise InputError(f"{command} needs --replay records from earlier stages")
        state.replay = load_replay(replay, sha)
        for name in replayed:
            setattr(state, name, _REPLAY_PARSERS[name](state.replay))
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
    """Records of a previous run, grouped by kind; they must share the problem hash."""
    records: dict[str, list] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                records.setdefault(rec.get("record", "?"), []).append(rec)
    except OSError as exc:
        raise InputError(f"cannot read replay records: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed replay records: {exc}") from None
    for rows in records.values():
        for rec in rows:
            if rec.get("problem_sha") and rec["problem_sha"] != sha:
                raise InputError(
                    "stale replay: records were produced from a different problem file"
                )
    return records


def stage_bad_primes(report: RunReport, state: RunState) -> None:
    state.bad = bad = bad_primes(state.inst, search_bound=state.params.prime_range[1])
    report.add(
        {
            "record": "bad_primes",
            "primes": sorted(bad.primes),
            "reasons": [[p, why] for p, why in bad.reasons],
        }
    )


def stage_avoidance(report: RunReport, state: RunState) -> None:
    lo, hi = state.params.prime_range
    primes = [p for p in range(max(lo, 3), hi + 1) if is_prime(p)]
    state.scan = scan = avoidance_search(
        state.inst, primes, state.bad, state.params.enumeration_guard
    )
    report.add(
        {
            "record": "certificates",
            "scanned": scan.scanned,
            "certified_density": _fmt(scan.certified_density),
            "rows": [
                {
                    "prime": c.prime,
                    "verdict": c.verdict,
                    "bound": c.bound,
                    "depths": list(c.depths),
                }
                for c in scan.certificates
            ],
        }
    )


def stage_choose_prime(report: RunReport, state: RunState) -> None:
    """Smallest certified prime in the scan and its avoidance bound."""
    for cert in state.scan.certificates:
        if cert.certified:
            state.prime, state.bound = cert.prime, cert.bound
            return
    verdicts = sorted({c.verdict for c in state.scan.certificates})
    raise HypothesisViolation(
        f"no prime in the scanned range was certified (verdicts seen: {verdicts})"
    )


def _replayed_prime(records: dict) -> int:
    rows = records.get("certificates")
    if not rows:
        raise InputError("missing upstream artifact: run the primes stage first")
    for row in rows[-1]["rows"]:
        if row["verdict"] == "certified":
            return row["prime"]
    raise InputError("replay records contain no certified prime")


def stage_diagnostics(report: RunReport, state: RunState) -> None:
    """Residue-level periodic points on the variety and the decisive orbit screen."""
    inst, params, bad, prime, bound = (
        state.inst, state.params, state.bad, state.prime, state.bound
    )
    fp, _, _ = reduce_instance(inst, prime, bad)
    discovered: list | None = None
    if prime**inst.dimension <= min(params.enumeration_guard, 100_000):
        variety_p = [reduce_poly(q, prime) for q in inst.variety]
        discovered = periodic_points_on_variety(fp, variety_p, params.enumeration_guard)
    avoided = residue_orbit_avoids(inst, prime, bound, bad)
    if not avoided:
        raise HypothesisViolation(
            f"residue orbit meets a declared target at iterate >= {bound} despite a certificate"
        )
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
            "orbit_avoids_targets": avoided,
        }
    )


def stage_normalization(report: RunReport, state: RunState) -> None:
    params = state.params
    depth = ensure_not_preperiodic(state.inst)
    report.assumptions.append(
        f"non-preperiodicity verified heuristically to orbit depth {depth}"
    )
    state.family = family = build_model_family(
        state.inst, state.prime, params.precision, params.shift_cap
    )
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
                "k_total": model.k_total,
                "center": list(model.center),
                "base_point": list(model.base_point),
                "congruence_exponent": model.congruence_exponent,
                "linear": [list(row) for row in model.linear],
                "transform_log": [[r.kind, list(r.data)] for r in model.transform_log],
            }
        )


def stage_interpolation(report: RunReport, state: RunState) -> None:
    """Certified interpolants; replayed ones must match the rebuilt ones bit for bit."""
    params = state.params
    old = {rec["shift"]: rec for rec in (state.replay or {}).get("interpolant", [])}
    state.interps = {}
    stale = False
    for model in state.family:
        interp = build_interpolant(model, min(params.terms, params.precision))
        bound_rep = verify_error_bound(interp)
        samples = default_compat_samples(model.ctx, params.compat_samples)
        compat_rep = verify_compatibility(interp, samples)
        const_rep = constancy_test(interp)
        record = interp.to_record()
        record.update(
            {
                "record": "interpolant",
                "shift": model.shift,
                "bound_samples": list(bound_rep.samples),
                "bound_margins": [_fmt_val(v) for v in bound_rep.margins],
                "compat_threshold": compat_rep.threshold,
                "compat_min_margin": _fmt_val(min(compat_rep.margins)),
                "constant": const_rep.constant,
            }
        )
        report.add(record)
        state.interps[model.shift] = interp
        stale = stale or (
            model.shift in old and old[model.shift]["coefficients"] != record["coefficients"]
        )
    if stale:
        raise InputError("stale replay: recorded interpolant disagrees with the rebuilt one")


def _fmt_val(v):
    return "inf" if v == float("inf") else int(v)


def stage_returns(report: RunReport, state: RunState) -> None:
    params = state.params
    screening = default_screening_primes(state.bad, params.screen_primes)
    state.returns = returns = compute_returns(
        state.inst, params.n_max, screening, params.exact_budget, state.bad
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
    if any(e.status == "modular-screened" for e in returns.entries):
        report.assumptions.append(
            "some returns are modular-screened only (exact budget exceeded); "
            "they are labeled as such everywhere downstream"
        )


def _replayed_returns(records: dict) -> ReturnSet:
    rows = records.get("returns")
    if not rows:
        raise InputError("missing upstream artifact: run the returns stage first")
    rec = rows[-1]
    return ReturnSet(
        rec["n_max"],
        tuple(ReturnEntry(n, status) for n, status in rec["entries"]),
        tuple(rec["screening_primes"]),
        tuple(rec["refuted"]),
        rec["exact_horizon"],
    )


_REPLAY_PARSERS = {"prime": _replayed_prime, "returns": _replayed_returns}


def stage_gaps(report: RunReport, state: RunState) -> None:
    family = state.family
    analyses_by_shift = {}
    models_by_shift = {}
    for model in family:
        qs = [model.transport_poly(q) for q in state.inst.variety]
        analyses_by_shift[model.shift] = localize_zeros(state.interps[model.shift], qs)
        models_by_shift[model.shift] = model
    c = min(m.congruence_exponent for m in family)
    state.gap = gap = build_gap_report(
        state.returns, analyses_by_shift, models_by_shift, family[0].prime, c,
        state.params.precision,
    )
    report.add(
        {
            "record": "gap_report",
            "prime": gap.prime,
            "congruence_exponent": gap.congruence_exponent,
            "verdict": gap.verdict,
            "prefix_members": list(gap.prefix_members),
            "uncovered_members": list(gap.uncovered_members),
            "precision_cutoff": gap.precision_cutoff,
            "classes": [
                {
                    "shift": cl.shift,
                    "class": cl.class_index,
                    "modulus_exp": cl.modulus_exp,
                    "members_model": list(cl.members_model),
                    "members_original": list(cl.members_original),
                    "verdict": cl.verdict,
                    "gap_constant": list(cl.gap_constant) if cl.gap_constant else None,
                    "member_bound": cl.member_bound,
                    "pairs": [
                        [p.index_low, p.index_high, p.required_exponent, p.ok, p.provenance]
                        for p in cl.pairs
                    ],
                }
                for cl in gap.classes
            ],
        }
    )


def stage_density(report: RunReport, state: RunState) -> None:
    params = state.params
    state.density = density = build_density_report(
        state.returns.indices(), params.n_max, params.density_m
    )
    report.add(
        {
            "record": "density",
            "m": density.m,
            "max_ratio": _fmt(density.max_ratio) if density.max_ratio is not None else None,
            "diverging": density.diverging,
            "rows": [
                [r.checkpoint, r.count, _fmt(r.yardstick) if r.yardstick else None,
                 _fmt(r.ratio) if r.ratio is not None else None]
                for r in density.rows
            ],
        }
    )


def stage_summary(report: RunReport, state: RunState) -> None:
    density = state.density
    report.add(
        {
            "record": "summary",
            "prime": state.prime,
            "avoidance_bound": state.bound,
            "returns": [e.index for e in state.returns.entries],
            "gap_verdict": state.gap.verdict,
            "density_max_ratio": _fmt(density.max_ratio)
            if density.max_ratio is not None
            else None,
            "density_diverging": density.diverging,
            "assumptions": list(report.assumptions),
        }
    )


def render_summary(report: RunReport) -> str:
    """Human-readable digest of the record stream."""
    lines = []
    for rec in report.records:
        kind = rec["record"]
        if kind == "bad_primes":
            lines.append(f"bad primes: {rec['primes'] or 'none'}")
        elif kind == "certificates":
            lines.append(
                f"avoidance scan: {rec['scanned']} primes, "
                f"certified density {rec['certified_density']}"
            )
            for row in rec["rows"]:
                extra = f" M={row['bound']}" if row["bound"] is not None else ""
                lines.append(f"  p={row['prime']}: {row['verdict']}{extra}")
        elif kind == "diagnostics":
            lines.append(
                f"chosen prime {rec['prime']} (avoidance bound {rec['bound']}); "
                f"orbit avoids targets: {rec['orbit_avoids_targets']}"
            )
        elif kind == "model":
            lines.append(
                f"model shift {rec['shift']}: m0={rec['m0']} k1={rec['k1']} "
                f"k2={rec['k2']} c={rec['congruence_exponent']} center={rec['center']}"
            )
        elif kind == "interpolant":
            lines.append(
                f"interpolant shift {rec['shift']}: {rec['terms']} terms, "
                f"c={rec['congruence_exponent']}, compat margin >= {rec['compat_min_margin']}"
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
                if cl["verdict"] in ("no-members",):
                    continue
                lines.append(
                    f"  shift {cl['shift']} class {cl['class']} mod p^{cl['modulus_exp']}: "
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
            for a in rec["assumptions"]:
                lines.append(f"  assumption: {a}")
        elif kind == "failure":
            lines.append(f"FAILED at stage {rec['stage']}: {rec['message']}")
    return "\n".join(lines)
