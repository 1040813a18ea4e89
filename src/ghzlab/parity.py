"""Constraint systems over +1/-1 variables with product constraints.

A constraint demands that the product of some variables equal a target
sign; repeated variables cancel in pairs.  Two solvers are provided: an
exhaustive scan and Gaussian elimination over GF(2), which maps a sign v
to the bit (1 - v)/2 so that products become XOR sums.  An unsatisfiable
system comes with a certificate: a set of constraint indices whose product
cancels every variable yet multiplies the targets to -1, exhibiting the
contradiction +1 = -1 directly.

Two systems of interest are built here.  The first encodes a pre-agreed
answer table for the parity game and is unsatisfiable, which caps
deterministic teams at three of the four question patterns.  The second
encodes cross-world consistency of counterfactual measurement outcomes
under a locality assumption extended to pairs of counterfactual worlds,
and is likewise unsatisfiable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .rules import PATTERNS

MAX_ENUM_VARIABLES = 24


@dataclass(frozen=True)
class ParityConstraint:
    """product(vars) == target, with pairwise cancellation of repeats."""

    vars: tuple[str, ...]
    target: int

    def __post_init__(self):
        if not self.vars:
            raise ValueError("a constraint needs at least one variable")
        # True and 1.0 compare equal to 1, so check the type too
        if type(self.target) is not int or self.target not in (1, -1):
            raise ValueError(f"target must be int +1 or -1, got {self.target!r}")

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        product = 1
        for v in self.vars:
            product *= assignment[v]
        return product == self.target

    def __str__(self) -> str:
        return f"{' * '.join(self.vars)} = {self.target:+d}"


@dataclass(frozen=True)
class ParitySystem:
    variables: tuple[str, ...]
    constraints: tuple[ParityConstraint, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        declared = set(self.variables)
        for k, con in enumerate(self.constraints):
            missing = set(con.vars) - declared
            if missing:
                raise ValueError(f"constraint {k} uses undeclared variables {sorted(missing)}")

    def drop(self, index: int) -> "ParitySystem":
        """The same system with one constraint removed."""
        if not 0 <= index < len(self.constraints):
            raise IndexError(f"no constraint {index} among {len(self.constraints)}")
        kept = tuple(c for k, c in enumerate(self.constraints) if k != index)
        return ParitySystem(self.variables, kept)


@dataclass(frozen=True)
class Sat:
    assignment: Mapping[str, int]

    @property
    def satisfiable(self) -> bool:
        return True


@dataclass(frozen=True)
class Unsat:
    certificate: tuple[int, ...]

    @property
    def satisfiable(self) -> bool:
        return False


def _constraint_rows(system: ParitySystem) -> tuple[list[int], list[int]]:
    """Bit rows over variables (bit j = variables[j]) and target bits."""
    pos = {name: j for j, name in enumerate(system.variables)}
    masks = []
    tbits = []
    for con in system.constraints:
        mask = 0
        for v in con.vars:
            mask ^= 1 << pos[v]  # repeats cancel
        masks.append(mask)
        tbits.append(0 if con.target == 1 else 1)
    return masks, tbits


def solve_gf2(system: ParitySystem) -> "Sat | Unsat":
    """Gauss-Jordan elimination over GF(2) with certificate tracking.

    Each working row carries the set of original constraints combined into
    it; a row that eliminates to 0 = 1 yields that set as the certificate.
    On satisfiable systems free variables are set to +1 and pivots follow.
    """
    n = len(system.variables)
    masks, tbits = _constraint_rows(system)
    rows = [[masks[k], tbits[k], 1 << k] for k in range(len(masks))]
    pivot_of_col: dict[int, list[int]] = {}
    for row in rows:
        for col in range(n):
            if not (row[0] >> col) & 1:
                continue
            if col in pivot_of_col:
                p = pivot_of_col[col]
                row[0] ^= p[0]
                row[1] ^= p[1]
                row[2] ^= p[2]
            else:
                pivot_of_col[col] = row
                break
        if row[0] == 0 and row[1] == 1:
            cert = tuple(k for k in range(len(masks)) if (row[2] >> k) & 1)
            return Unsat(cert)
    assignment_bits = 0  # free variables default to bit 0, i.e. +1
    # back-substitute in descending column order so pivots see final values
    for col in sorted(pivot_of_col, reverse=True):
        mask, tbit, _ = pivot_of_col[col]
        rest = mask & ~(1 << col)
        value = tbit ^ (bin(rest & assignment_bits).count("1") & 1)
        assignment_bits |= value << col
    assignment = {
        name: (-1 if (assignment_bits >> j) & 1 else 1)
        for j, name in enumerate(system.variables)
    }
    return Sat(assignment)


def solve_enumerate(system: ParitySystem) -> "Sat | Unsat":
    """Exhaustive scan over all assignments, at most 24 variables.

    Returns the lexicographically first satisfying assignment, where +1
    precedes -1 at every variable in declaration order.  Unsatisfiable
    systems delegate the certificate to :func:`solve_gf2`.
    """
    n = len(system.variables)
    if n > MAX_ENUM_VARIABLES:
        raise ValueError(f"enumeration is capped at {MAX_ENUM_VARIABLES} variables, got {n}")
    masks, tbits = _constraint_rows(system)
    # bit (n-1-j) of scan word w holds variable j, so ascending words
    # enumerate assignments in lexicographic order with +1 first; bit w of
    # ``ok`` stands for word w, and stays set while w satisfies every constraint
    ok = (1 << (1 << n)) - 1
    for mask, tbit in zip(masks, tbits):
        odd, size = 0, 1  # words below ``size`` whose masked bits have odd parity
        for j in reversed(range(n)):  # scan bit n-1-j, lowest first, doubles the words
            odd |= (odd ^ ((1 << size) - 1) if (mask >> j) & 1 else odd) << size
            size <<= 1
        ok &= odd if tbit else ~odd
    if ok:
        word = (ok & -ok).bit_length() - 1
        return Sat({
            name: (-1 if (word >> (n - 1 - j)) & 1 else 1)
            for j, name in enumerate(system.variables)
        })
    result = solve_gf2(system)
    if not isinstance(result, Unsat):  # pragma: no cover - solver disagreement
        raise RuntimeError("enumeration found no assignment but GF(2) claims Sat")
    return result


def verify_certificate(system: ParitySystem, certificate: Sequence[int]) -> bool:
    """Check that multiplying the cited constraints proves +1 = -1.

    The certificate must cite distinct constraints by index, without wrapping.
    """
    if not certificate or len(set(certificate)) < len(certificate):
        return False
    if not all(0 <= k < len(system.constraints) for k in certificate):
        return False
    occurrences: Counter[str] = Counter()
    target_product = 1
    for k in certificate:
        con = system.constraints[k]
        occurrences.update(con.vars)
        target_product *= con.target
    all_cancel = all(count % 2 == 0 for count in occurrences.values())
    return all_cancel and target_product == -1


def drop_one_analysis(system: ParitySystem) -> dict[int, "Sat | Unsat"]:
    """Re-solve the system with each constraint removed in turn."""
    return {k: solve_gf2(system.drop(k)) for k in range(len(system.constraints))}


# ---------------------------------------------------------------------------
# The two systems of interest


def build_classical_game_system() -> ParitySystem:
    """Constraints a pre-agreed table would need to win every pattern, in ``PATTERNS`` order."""
    variables = ("X_A", "Y_A", "X_B", "Y_B", "X_C", "Y_C")
    constraints = tuple(
        ParityConstraint(tuple(f"{q}_{player}" for q, player in zip(p.value, "ABC")), p.target)
        for p in PATTERNS
    )
    return ParitySystem(variables, constraints)


def build_stapp_system(actual_x: Sequence[int]) -> ParitySystem:
    """Cross-world consistency constraints for counterfactual y outcomes.

    ``actual_x`` holds the three x-measurement outcomes of the actual run;
    their product must be -1.  Three counterfactual worlds each replace two
    x measurements by y measurements.  World k must still satisfy its
    pattern's parity target with the actual x outcome substituted, and the
    extended locality assumption forces the y outcome of each player to
    agree across the two worlds that measure it.
    """
    ea, eb, ec = actual_x
    if any(type(e) is not int or e not in (1, -1) for e in (ea, eb, ec)):
        raise ValueError(f"outcomes must be int +1 or -1, got {tuple(actual_x)}")
    if ea * eb * ec != -1:
        raise ValueError(
            "actual x outcomes must multiply to -1; "
            f"got {ea:+d} * {eb:+d} * {ec:+d} = {ea * eb * ec:+d}"
        )
    variables = (
        "sigmaB_y@CFW1",
        "sigmaC_y@CFW1",
        "sigmaA_y@CFW2",
        "sigmaC_y@CFW2",
        "sigmaA_y@CFW3",
        "sigmaB_y@CFW3",
    )
    constraints = (
        # per-world parity targets, with the fixed x outcome divided out
        ParityConstraint(("sigmaB_y@CFW1", "sigmaC_y@CFW1"), ea),
        ParityConstraint(("sigmaA_y@CFW2", "sigmaC_y@CFW2"), eb),
        ParityConstraint(("sigmaA_y@CFW3", "sigmaB_y@CFW3"), ec),
        # agreement between the two worlds measuring the same y component
        ParityConstraint(("sigmaC_y@CFW1", "sigmaC_y@CFW2"), 1),
        ParityConstraint(("sigmaB_y@CFW1", "sigmaB_y@CFW3"), 1),
        ParityConstraint(("sigmaA_y@CFW2", "sigmaA_y@CFW3"), 1),
    )
    return ParitySystem(variables, constraints)


# ---------------------------------------------------------------------------
# Text and JSON output


def result_to_json_dict(result: "Sat | Unsat") -> dict:
    if isinstance(result, Sat):
        return {"status": "sat", "assignment": dict(result.assignment)}
    return {"status": "unsat", "certificate": list(result.certificate)}


def format_proof(
    system: ParitySystem, result: "Sat | Unsat", drops: Mapping[int, "Sat | Unsat"]
) -> str:
    """Human-readable account of a system, its verdict, and drop-one analysis."""
    lines = [
        f"parity system: {len(system.variables)} variables, "
        f"{len(system.constraints)} constraints",
        "  variables: " + " ".join(system.variables),
    ]
    for k, con in enumerate(system.constraints):
        lines.append(f"  [{k}] {con}")
    if isinstance(result, Sat):
        lines.append("verdict: SAT")
        lines.append(
            "  assignment: "
            + " ".join(f"{name}={result.assignment[name]:+d}" for name in system.variables)
        )
    else:
        lines.append("verdict: UNSAT")
        lines.append(f"  certificate: constraints {list(result.certificate)}")
        lines.append(
            "  multiplying these constraints cancels every variable"
            " (each occurs an even number of times),"
        )
        product = 1
        for k in result.certificate:
            product *= system.constraints[k].target
        lines.append(
            f"  so the left side is +1 while the targets multiply to {product:+d}:"
            " a contradiction."
        )
    lines.append("drop-one analysis:")
    for k in sorted(drops):
        verdict = "SAT" if isinstance(drops[k], Sat) else "UNSAT"
        lines.append(f"  without [{k}]: {verdict}")
    return "\n".join(lines) + "\n"
