"""Output checks for every benchmark operation, and the corruptions that test them.

Each check compares an output with a computation made here, apart from
ghzlab, or with a property the method must have; none compares with a saved
copy of an earlier output.  A check raises :class:`CheckFailed`.

Statistical checks accept a rate within 4 binomial standard deviations of
its expected value.  The 64-cell Bell histogram is one family of 64 tests,
so each cell gets an exact binomial acceptance interval at 1/64 of the
two-sided 4-sigma tail probability, which keeps the family's false-alarm
rate at that of a single 4-sigma test.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from functools import lru_cache

import numpy as np

Z_BOUND = 4.0
ALPHA_4SIGMA = math.erfc(Z_BOUND / math.sqrt(2.0))

PATTERN_TARGETS = {"XXX": -1, "XYY": 1, "YXY": 1, "YYX": 1}
BELL_NAMES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
PLAYERS = ("A", "B", "C")


class CheckFailed(Exception):
    """An output violates a property the benchmark checks."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _within_4sigma(rate: float, p: float, n: int, what: str) -> None:
    bound = Z_BOUND * math.sqrt(p * (1.0 - p) / n)
    _require(abs(rate - p) <= bound,
             f"{what}: {rate:.6f} is {abs(rate - p):.6f} from {p:.6f}, 4-sigma bound {bound:.6f}")


def eta_win_rate(eta: float) -> float:
    """Measuring team's win probability at detector efficiency eta.

    All three detectors fire with probability eta**3 and the team then wins;
    otherwise the unanswered slots are fair coins, a fair-coin product.
    """
    return eta**3 + (1.0 - eta**3) / 2.0


@lru_cache(maxsize=None)
def binomial_interval(n: int, p: float, alpha: float) -> tuple[int, int]:
    """Counts k with both binomial tails P(X <= k), P(X >= k) above alpha/2."""
    log_pmf = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
        for k in range(n + 1)
    ]
    pmf = [math.exp(v) for v in log_pmf]
    lo, acc = 0, 0.0
    while acc + pmf[lo] <= alpha / 2:
        acc += pmf[lo]
        lo += 1
    hi, acc = n, 0.0
    while acc + pmf[hi] <= alpha / 2:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def _load(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _jsonl(text: str, trials: int) -> list[dict]:
    lines = text.splitlines()
    _require(len(lines) == trials, f"{len(lines)} jsonl lines for {trials} trials")
    return [_load(line) for line in lines]


def _product(values) -> int:
    out = 1
    for v in values:
        _require(v in (1, -1), f"outcome {v!r} is not +1 or -1")
        out *= v
    return out


def _pattern_counts(rep: dict, trials: int) -> dict[str, int]:
    counts = rep["per_pattern_trials"]
    _require(set(counts) == set(PATTERN_TARGETS), f"patterns {sorted(counts)}")
    _require(sum(counts.values()) == trials, "per-pattern trials do not sum to the trials")
    return counts


# ---------------------------------------------------------------------------
# game workload


def check_game_perfect(call, text, context) -> None:
    rep = _load(text)
    n = call.trials
    _require(rep["trials"] == n, f"trials {rep['trials']} != {n}")
    _pattern_counts(rep, n)
    _require(rep["wins"] == n, f"quantum team at eta=1 lost {n - rep['wins']} trials")
    _require(rep["win_rate"] == 1.0, "win_rate is not 1")
    _require(all(r == 1.0 for r in rep["per_pattern_win_rates"].values()),
             "a pattern's win rate is not 1")
    _require(rep["triple_detection_rate"] == 1.0, "triple detection rate is not 1 at eta=1")


def check_game_lossy_jsonl(call, text, context) -> None:
    (eta,) = call.params
    n = call.trials
    records = _jsonl(text, n)
    wins = triples = 0
    for i, rec in enumerate(records):
        _require(rec["trial_index"] == i, f"record {i} has trial_index {rec['trial_index']}")
        target = PATTERN_TARGETS.get(rec["pattern"])
        _require(target is not None, f"record {i} has pattern {rec['pattern']!r}")
        _require(len(rec["answers"]) == 3 and len(rec["detections"]) == 3,
                 f"record {i} does not have three answers and detections")
        won = _product(rec["answers"]) == target
        _require(rec["win"] == won, f"record {i}: win {rec['win']} but answers give {won}")
        wins += won
        triples += all(rec["detections"])
    twin = context.get("twin_wins", {}).get(call.label)
    if twin is not None:
        _require(wins == twin, f"jsonl recount gives {wins} wins, json run with same seed {twin}")
    _within_4sigma(wins / n, eta_win_rate(eta), n, f"win rate at eta={eta}")
    _within_4sigma(triples / n, eta**3, n, f"triple detection rate at eta={eta}")


def check_game_lossy_json(call, text, context) -> None:
    (eta,) = call.params
    rep = _load(text)
    _pattern_counts(rep, call.trials)
    _require(rep["win_rate"] == rep["wins"] / call.trials, "win_rate != wins / trials")
    _within_4sigma(rep["win_rate"], eta_win_rate(eta), call.trials, f"win rate at eta={eta}")


def check_game_classical_best(call, text, context) -> None:
    rep = _load(text)
    counts = _pattern_counts(rep, call.trials)
    rates = rep["per_pattern_win_rates"]
    _require(all(counts[p] > 0 for p in PATTERN_TARGETS), "a pattern was never asked")
    _require(sorted(rates.values()) == [0.0, 1.0, 1.0, 1.0],
             f"per-pattern rates {sorted(rates.values())}, want three at 1 and one at 0")
    expected_wins = sum(counts[p] for p, r in rates.items() if r == 1.0)
    _require(rep["wins"] == expected_wins, "wins do not match the per-pattern rates")


def check_game_random(call, text, context) -> None:
    rep = _load(text)
    _pattern_counts(rep, call.trials)
    _require(rep["win_rate"] == rep["wins"] / call.trials, "win_rate != wins / trials")
    _within_4sigma(rep["win_rate"], 0.5, call.trials, "random team's win rate")


def check_game_lhv(call, text, context) -> None:
    rep = _load(text)
    n = call.trials
    _pattern_counts(rep, n)
    _within_4sigma(rep["triple_detection_rate"], 0.5, n, "instruction-kit triple detection")
    _require(rep["conditional_win_rate"] == 1.0, "kits lost a triple-detection run")
    _require(rep["single_detections"] == 0, "kits produced single detections")
    _require(rep["null_detections"] == 0, "kits produced null detections")
    _require(rep["wins"] == round(rep["triple_detection_rate"] * n),
             "wins differ from the triple detections")


def check_sweep(call, text, context) -> None:
    rep = _load(text)
    grid = call.params
    per_point = call.trials // len(grid)
    _require(rep["trials_per_point"] == per_point, "trials_per_point differs from --trials")
    rows = rep["rows"]
    _require([r["eta"] for r in rows] == list(grid), "sweep rows do not follow the grid")
    for row in rows:
        p = eta_win_rate(row["eta"])
        _within_4sigma(row["empirical"], p, per_point, f"sweep row eta={row['eta']}")


def check_generalized_elements(call, text, context) -> None:
    rep = _load(text)
    (per_pattern,) = call.params
    checks = rep["checks"]
    _require(sorted(c["pattern"] for c in checks) == sorted(PATTERN_TARGETS),
             "the four patterns are not each checked once")
    for c in checks:
        _require(c["target"] == PATTERN_TARGETS[c["pattern"]], f"{c['pattern']} target {c['target']}")
        _require(c["trials"] == per_pattern, f"{c['pattern']} ran {c['trials']} trials")
        _require(c["matches"] == per_pattern,
                 f"{c['pattern']}: {per_pattern - c['matches']} runs miss the target product")


# ---------------------------------------------------------------------------
# teleport workload


def check_teleport_json(call, text, context) -> None:
    rep = _load(text)
    n = call.trials
    _require(rep["trials"] == n, f"trials {rep['trials']} != {n}")
    per_pattern = rep["per_pattern"]
    _require(set(per_pattern) <= set(PATTERN_TARGETS), f"patterns {sorted(per_pattern)}")
    _require(sum(r["trials"] for r in per_pattern.values()) == n, "pattern trials do not sum")
    for name, r in per_pattern.items():
        _require(r["corrected_success_rate"] == 1.0, f"{name}: corrected success below 1")
    _require(rep["corrected_success_rate"] == 1.0, "corrected success below 1")
    _within_4sigma(rep["raw_success_rate"], 0.5, n, "raw (uncorrected) success")
    hist = rep["bell_histogram"]
    cells = {",".join(c) for c in itertools.product(BELL_NAMES, repeat=3)}
    _require(set(hist) <= cells, "Bell histogram has cells outside the 64 outcome triples")
    # every cell must be hit once a correct run misses one less often than alpha
    if 64 * (63 / 64) ** n < ALPHA_4SIGMA:
        _require(len(hist) == 64, f"Bell histogram has {len(hist)} of 64 cells")
    _require(sum(hist.values()) == n, "Bell histogram does not sum to the trials")
    lo, hi = binomial_interval(n, 1.0 / 64.0, ALPHA_4SIGMA / 64.0)
    for cell, count in hist.items():
        _require(lo <= count <= hi, f"Bell cell {cell}: {count} outside [{lo}, {hi}]")


def check_teleport_jsonl(call, text, context) -> None:
    records = _jsonl(text, call.trials)
    flips: dict[tuple[str, str], int] = {}
    for i, rec in enumerate(records):
        target = PATTERN_TARGETS.get(rec["pattern"])
        _require(target is not None, f"record {i} has pattern {rec['pattern']!r}")
        _require(all(b in BELL_NAMES for b in rec["bell_outcomes"]), f"record {i}: Bell outcomes")
        won = _product(rec["corrected_outcomes"]) == target
        _require(won and rec["win"], f"record {i}: corrected outcomes miss the target")
        for j, axis in enumerate(rec["pattern"]):
            sign = _product((rec["raw_outcomes"][j], rec["corrected_outcomes"][j]))
            key = (rec["bell_outcomes"][j], axis)
            _require(flips.setdefault(key, sign) == sign,
                     f"record {i}: correction for {key} is not a fixed sign flip")


# ---------------------------------------------------------------------------
# inference workload


def classical_system() -> tuple[tuple[str, ...], list[tuple[tuple[str, ...], int]]]:
    """A deterministic table winning every pattern: one variable per (axis, player)."""
    variables = tuple(f"{a}_{p}" for p in PLAYERS for a in "XY")
    constraints = [
        (tuple(f"{axis}_{PLAYERS[j]}" for j, axis in enumerate(pattern)), target)
        for pattern, target in PATTERN_TARGETS.items()
    ]
    return variables, constraints


def stapp_system(xa: int, xb: int, xc: int):
    """Counterfactual worlds k=1..3 measure y at the two players other than k.

    World k keeps the actual x outcome of player k, so its parity target fixes
    the product of the two y values; each player's y value must agree across
    the two worlds that measure it.
    """
    def y(player: str, world: int) -> str:
        return f"sigma{player}_y@CFW{world}"

    variables = (y("B", 1), y("C", 1), y("A", 2), y("C", 2), y("A", 3), y("B", 3))
    constraints = [
        ((y("B", 1), y("C", 1)), xa),
        ((y("A", 2), y("C", 2)), xb),
        ((y("A", 3), y("B", 3)), xc),
        ((y("C", 1), y("C", 2)), 1),
        ((y("B", 1), y("B", 3)), 1),
        ((y("A", 2), y("A", 3)), 1),
    ]
    return variables, constraints


def _canonical(constraints) -> Counter:
    return Counter((tuple(sorted(v)), t) for v, t in constraints)


def _satisfiable(variables, constraints) -> bool:
    for values in itertools.product((1, -1), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(math.prod(assignment[v] for v in vs) == t for vs, t in constraints):
            return True
    return False


def _check_certificate(constraints, certificate, what: str) -> None:
    _require(len(certificate) > 0, f"{what}: empty certificate")
    _require(len(set(certificate)) == len(certificate), f"{what}: repeated certificate index")
    _require(all(0 <= k < len(constraints) for k in certificate), f"{what}: index out of range")
    occurrences = Counter(v for k in certificate for v in constraints[k][0])
    _require(all(c % 2 == 0 for c in occurrences.values()),
             f"{what}: certificate variables do not cancel in pairs")
    _require(math.prod(constraints[k][1] for k in certificate) == -1,
             f"{what}: certificate targets do not multiply to -1")


def _check_proof(rep: dict, variables, constraints) -> None:
    system = rep["system"]
    got = [(tuple(c["vars"]), c["target"]) for c in system["constraints"]]
    _require(set(system["variables"]) == set(variables), "system variables differ")
    _require(_canonical(got) == _canonical(constraints), "system constraints differ")
    _require(not _satisfiable(variables, got), "the benchmark finds the system satisfiable")
    result = rep["result"]
    _require(result["status"] == "unsat", f"status {result['status']!r}, want unsat")
    _check_certificate(got, result["certificate"], "certificate")
    drops = rep["drop_one"]
    _require(set(drops) == {str(k) for k in range(len(got))}, "drop-one entries missing")
    for k in range(len(got)):
        rest = got[:k] + got[k + 1:]
        entry = drops[str(k)]
        sat = _satisfiable(variables, rest)
        _require(entry["status"] == ("sat" if sat else "unsat"), f"drop {k}: status {entry['status']}")
        if sat:
            assignment = entry["assignment"]
            _require(set(assignment) == set(variables), f"drop {k}: assignment variables")
            for vs, t in rest:
                _require(math.prod(assignment[v] for v in vs) == t,
                         f"drop {k}: assignment violates {vs} = {t:+d}")
        else:
            _check_certificate(rest, entry["certificate"], f"drop {k}")


def check_prove_classical(call, text, context) -> None:
    _check_proof(_load(text), *classical_system())


def check_prove_stapp(call, text, context) -> None:
    _check_proof(_load(text), *stapp_system(*call.params))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


def _on_site(site: int, op: np.ndarray) -> np.ndarray:
    """3-site operator; site 0 is the lowest bit of the basis index."""
    ops = [np.eye(2, dtype=complex)] * 3
    ops[site] = op
    return np.kron(ops[2], np.kron(ops[1], ops[0]))


def _observable(label: str) -> np.ndarray:
    """Matrix of a product label such as ``y(A)*y(B)``."""
    out = np.eye(8, dtype=complex)
    for factor in label.split("*"):
        axis, name = factor[0], factor[2]
        _require(factor == f"{axis}({name})" and axis in _PAULI and name in PLAYERS,
                 f"unexpected observable factor {factor!r}")
        out = out @ _on_site(PLAYERS.index(name), _PAULI[axis])
    return out


def _ghz() -> np.ndarray:
    psi = np.zeros(8, dtype=complex)
    psi[0b000] = 1 / math.sqrt(2)
    psi[0b111] = -1 / math.sqrt(2)
    return psi


def abl_dense(x_outcomes, label: str) -> tuple[int, float]:
    """Likelier ABL outcome and its probability, by full 8x8 matrices."""
    psi = _ghz()
    post = np.eye(8, dtype=complex)
    for site, o in enumerate(x_outcomes):
        post = post @ _on_site(site, (np.eye(2) + o * _PAULI["x"]) / 2)
    obs = _observable(label)
    weights = {}
    for o in (1, -1):
        w = post @ ((np.eye(8) + o * obs) / 2) @ psi
        weights[o] = float(np.vdot(w, w).real)
    value = max(weights, key=weights.get)
    return value, weights[value] / (weights[1] + weights[-1])


def check_elements(call, text, context) -> None:
    rep = _load(text)
    xs = call.params
    psi = _ghz()
    _require(rep["post_outcomes"] == list(xs), f"post outcomes {rep['post_outcomes']}")
    conditionals = {e["observable"]: e for e in rep["conditionals"]}
    want = {"x(A)*x(B)*x(C)": -1, "x(A)*y(B)*y(C)": 1, "y(A)*x(B)*y(C)": 1, "y(A)*y(B)*x(C)": 1}
    _require(set(conditionals) == set(want), f"conditionals {sorted(conditionals)}")
    for label, target in want.items():
        e = conditionals[label]
        dense = float(np.vdot(psi, _observable(label) @ psi).real)
        _require(abs(dense - target) < 1e-12, f"dense expectation of {label} is {dense}")
        _require(abs(e["expectation"] - target) < 1e-9, f"{label}: expectation {e['expectation']}")
        _require(e["deterministic"] and e["measured_value"] == target, f"{label} is not definite")
        _require(e["target"] == target, f"{label}: target {e['target']}")
    _require(rep["all_pairs_commute"] is True, "conditionals reported as not commuting")
    rule = rep["product_rule"]
    pairs = rule["pairwise_elements"]
    _require(sorted(e["observable"] for e in pairs) == ["y(A)*y(B)", "y(A)*y(C)", "y(B)*y(C)"],
             "pairwise y products missing")
    for e in pairs:
        value, certainty = abl_dense(xs, e["observable"])
        _require(abs(certainty - 1.0) < 1e-9, f"dense ABL finds {e['observable']} uncertain")
        _require(e["value"] == value, f"{e['observable']} = {e['value']}, dense ABL gives {value}")
        _require(abs(e["certainty"] - certainty) < 1e-9, f"{e['observable']} certainty")
    values = [e["value"] for e in pairs]
    _require(math.prod(values) == math.prod(xs), "pairwise values do not multiply to the x product")
    _require(rule["pairwise_product"] == math.prod(values), "pairwise_product mismatch")
    _require(rule["six_factor_value"] == 1, "six-factor product is not +1")
    _require(rule["violated"] is True, "product rule not reported violated")


CHECKS = {
    "game_perfect": check_game_perfect,
    "game_lossy_jsonl": check_game_lossy_jsonl,
    "game_lossy_json": check_game_lossy_json,
    "game_classical_best": check_game_classical_best,
    "game_random": check_game_random,
    "game_lhv": check_game_lhv,
    "sweep": check_sweep,
    "generalized_elements": check_generalized_elements,
    "teleport_json": check_teleport_json,
    "teleport_jsonl": check_teleport_jsonl,
    "prove_classical": check_prove_classical,
    "prove_stapp": check_prove_stapp,
    "elements": check_elements,
}


def check(call, text: str, context: dict) -> None:
    """Run the check for ``call``'s kind; malformed output also fails."""
    try:
        CHECKS[call.kind](call, text, context)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# Corruptions: each must make its check fail


def _edit_json(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def _flip_first_answer(text: str) -> str:
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec["answers"][0] = -rec["answers"][0]
    lines[0] = json.dumps(rec)
    return "\n".join(lines) + "\n"


def _past_4sigma(n: int) -> float:
    """A rate 4.5 standard deviations above a fair coin's over n trials."""
    return 0.5 + 4.5 * math.sqrt(0.25 / n)


def _shift_win_rate(data: dict) -> None:
    n = data["trials"]
    data["wins"] = math.ceil(_past_4sigma(n) * n)
    data["win_rate"] = data["wins"] / n


def _shift_raw_success(data: dict) -> None:
    data["raw_success_rate"] = _past_4sigma(data["trials"])


def _drop_histogram_cell(data: dict) -> None:
    data["bell_histogram"].pop(sorted(data["bell_histogram"])[0])


def _drop_certificate_index(data: dict) -> None:
    data["result"]["certificate"].pop(0)


def _flip_pairwise_element(data: dict) -> None:
    elem = data["product_rule"]["pairwise_elements"][0]
    elem["value"] = -elem["value"]


def _flip_corrected_outcome(text: str) -> str:
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec["corrected_outcomes"][0] = -rec["corrected_outcomes"][0]
    lines[0] = json.dumps(rec)
    return "\n".join(lines) + "\n"


# (name, kind of the output it corrupts, corruption)
CORRUPTIONS = (
    ("flipped jsonl answer", "game_lossy_jsonl", _flip_first_answer),
    ("win rate moved past 4 sigma", "game_random", lambda t: _edit_json(t, _shift_win_rate)),
    ("lhv single detection", "game_lhv",
     lambda t: _edit_json(t, lambda d: d.update(single_detections=1))),
    ("missing histogram cell", "teleport_json", lambda t: _edit_json(t, _drop_histogram_cell)),
    ("raw success moved past 4 sigma", "teleport_json", lambda t: _edit_json(t, _shift_raw_success)),
    ("flipped corrected outcome", "teleport_jsonl", _flip_corrected_outcome),
    ("dropped certificate index", "prove_classical", lambda t: _edit_json(t, _drop_certificate_index)),
    ("flipped inferred element", "elements", lambda t: _edit_json(t, _flip_pairwise_element)),
)


def self_test(calls, outputs: dict[str, str], context: dict) -> list[tuple[str, bool]]:
    """Apply every corruption whose output kind is present; True = check caught it."""
    results = []
    for name, kind, corrupt in CORRUPTIONS:
        call = next((c for c in calls if c.kind == kind and c.label in outputs), None)
        if call is None:
            continue
        try:
            check(call, corrupt(outputs[call.label]), context)
        except CheckFailed:
            results.append((name, True))
        else:
            results.append((name, False))
    return results
