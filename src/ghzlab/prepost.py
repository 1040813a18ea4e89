"""Inference about measurements sandwiched between fixed boundary results.

Given a preparation (the pre state) and a later round of single-site
measurement results (the post list), the probability that an intermediate
measurement of a product observable O would have given outcome o is

    P(o) = N_o / (N_+ + N_-),    N_o = || Pi_post * P_o * |pre> ||^2,

where P_o = (I + o*O)/2 and Pi_post is the product of the rank-one
projectors fixed by the post results.  When one outcome carries the whole
weight the observable has a definite value on that run even though it was
never measured; we call that an inferred element.

For a GHZ preparation followed by x measurements on all three sites, each
pairwise product of y components at two sites is such an element, pinned
by the x outcome at the third site.  The product of the three pairwise
values is then the product of the three x outcomes, which is -1, while
the six-factor product of the same observables is the identity and hence
+1 with certainty.  Definite values of intermediate observables therefore
do not multiply: the product rule fails for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .game import PATTERNS, QuestionPattern, TrialStreams
from .qsim import (
    Axis,
    MIN_BRANCH_PROB,
    ProductObservable,
    StateVector,
    expectation_product,
    make_ghz,
    measure_pauli,
    measure_product,
    pauli_product,
    product_project,
    results_weight,
)

CERTAINTY_THRESHOLD = 1.0 - 1e-9

SITE_NAMES = ("A", "B", "C")


class PostselectionError(ValueError):
    """The requested final results carry no weight from the preparation."""


class MalformedEnsembleError(ValueError):
    """The ensemble does not have the structure an analysis requires."""


@dataclass(frozen=True)
class PrePostEnsemble:
    """A preparation plus a list of later single-site results.

    ``post`` entries are (site, axis, outcome) with pairwise distinct
    sites; the joint post outcome must be reachable from the preparation.
    """

    pre: StateVector
    post: tuple[tuple[int, Axis, int], ...]

    def __post_init__(self):
        for site, axis, outcome in self.post:
            if not 0 <= site < self.pre.num_sites:
                raise ValueError(f"post site {site} out of range")
            if type(outcome) is not int or outcome not in (1, -1):
                raise ValueError(f"post outcome must be int +1 or -1, got {outcome!r}")
        if self.post_probability() <= MIN_BRANCH_PROB:
            raise PostselectionError(
                "the requested final results have zero probability from this preparation"
            )

    def post_probability(self) -> float:
        """Born probability of the joint post outcome from the preparation."""
        return results_weight(self.pre, self.post)


def ghz_x_ensemble(outcomes: Sequence[int]) -> PrePostEnsemble:
    """GHZ preparation with x results at all three sites.

    Only outcome triples with product -1 are reachable; others raise
    :class:`PostselectionError`.
    """
    a, b, c = outcomes
    return PrePostEnsemble(
        pre=make_ghz(),
        post=((0, Axis.X, a), (1, Axis.X, b), (2, Axis.X, c)),
    )


@dataclass(frozen=True)
class AblDistribution:
    observable: ProductObservable
    probs: dict[int, float]

    def certainty(self) -> tuple[int, float]:
        """The more likely outcome and its probability."""
        value = max(self.probs, key=lambda o: self.probs[o])
        return value, self.probs[value]


def abl_distribution(ens: PrePostEnsemble, obs: ProductObservable) -> AblDistribution:
    """Distribution of an intermediate product measurement between the boundaries."""
    weights = {}
    for outcome in (1, -1):
        p, state = product_project(ens.pre, obs, outcome)
        weights[outcome] = 0.0 if state is None else p * results_weight(state, ens.post)
    total = weights[1] + weights[-1]
    if total <= MIN_BRANCH_PROB:
        raise PostselectionError(
            "no intermediate branch connects the preparation to the final results"
        )
    return AblDistribution(obs, {o: weights[o] / total for o in (1, -1)})


def labeled_json(item) -> dict:
    """A dataclass's JSON fields, with its ``observable`` written as a label."""
    return {**vars(item), "observable": item.observable.label(SITE_NAMES)}


@dataclass(frozen=True)
class ElementOfReality:
    """An intermediate observable whose value is inferable with certainty."""

    observable: ProductObservable
    value: int
    certainty: float


def element_of_reality(
    ens: PrePostEnsemble, obs: ProductObservable
) -> ElementOfReality | None:
    """The inferred element for ``obs``, or None when no outcome is certain."""
    dist = abl_distribution(ens, obs)
    value, certainty = dist.certainty()
    if certainty >= CERTAINTY_THRESHOLD:
        return ElementOfReality(obs, value, certainty)
    return None


# ---------------------------------------------------------------------------
# The deterministic product conditionals of the GHZ preparation


@dataclass(frozen=True)
class ConditionalEntry:
    observable: ProductObservable
    target: int
    expectation: float
    deterministic: bool
    measured_value: int


@dataclass(frozen=True)
class ConditionalsReport:
    entries: tuple[ConditionalEntry, ...]
    all_pairs_commute: bool


def conditionals_check(pre: StateVector) -> ConditionalsReport:
    """Verify the four product observables take definite values on ``pre``.

    A product is definite when its expectation sits at +1 or -1; one
    projective measurement then returns that value without a draw.  The
    targets listed are those of the GHZ preparation.  The four products
    also commute pairwise, as operators, so they are simultaneously
    definite, unlike their single-site factors.
    """
    rnd = np.random.default_rng(0)
    entries = []
    observables = []
    for pattern in PATTERNS:
        obs = pauli_product(pattern.value.lower())
        observables.append(obs)
        expectation = expectation_product(pre, obs)
        entries.append(
            ConditionalEntry(
                observable=obs,
                target=pattern.target,
                expectation=expectation,
                measured_value=measure_product(pre, obs, rnd)[0],
                deterministic=abs(abs(expectation) - 1.0) < 1e-9,
            )
        )
    commute = all(
        observables[i].commutes_with(observables[j]) for i in range(4) for j in range(i + 1, 4)
    )
    return ConditionalsReport(tuple(entries), commute)


# ---------------------------------------------------------------------------
# The product-rule failure


_PAIRWISE_SITES = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class ProductRuleReport:
    pairwise: tuple[ElementOfReality, ElementOfReality, ElementOfReality]
    pairwise_product: int
    six_factor_element: ElementOfReality
    violated: bool

    def to_json_dict(self) -> dict:
        return {
            "pairwise_elements": [labeled_json(e) for e in self.pairwise],
            "pairwise_product": self.pairwise_product,
            "six_factor_observable": self.six_factor_element.observable.label(SITE_NAMES),
            "six_factor_value": self.six_factor_element.value,
            "violated": self.violated,
        }


def product_rule_report(ens: PrePostEnsemble) -> ProductRuleReport:
    """Contrast pairwise y-product elements with their six-factor product.

    Requires the GHZ/x-outcomes ensemble family: three x results, one per
    site.  Each pairwise y product must come out certain; the report then
    compares the numeric product of the three inferred values with the
    (identity) six-factor product observable's own inferred value.
    """
    if len(ens.post) != 3 or {s for s, _, _ in ens.post} != {0, 1, 2}:
        raise MalformedEnsembleError("need final results at exactly the sites 0, 1, 2")
    if any(axis is not Axis.X for _, axis, _ in ens.post):
        raise MalformedEnsembleError("final results must all be x measurements")
    pairwise = []
    for s1, s2 in _PAIRWISE_SITES:
        obs = ProductObservable.of((s1, Axis.Y), (s2, Axis.Y))
        element = element_of_reality(ens, obs)
        if element is None:
            raise MalformedEnsembleError(
                f"pairwise product {obs.label(SITE_NAMES)} is not certain for this ensemble"
            )
        pairwise.append(element)
    numeric_product = pairwise[0].value * pairwise[1].value * pairwise[2].value
    six_factors = tuple(
        (site, Axis.Y) for s1, s2 in _PAIRWISE_SITES for site in (s1, s2)
    )
    six_element = element_of_reality(ens, ProductObservable(six_factors))
    if six_element is None:  # pragma: no cover - the operator is the identity
        raise MalformedEnsembleError("six-factor product is not certain")
    return ProductRuleReport(
        pairwise=tuple(pairwise),  # type: ignore[arg-type]
        pairwise_product=numeric_product,
        six_factor_element=six_element,
        violated=numeric_product != six_element.value,
    )


# ---------------------------------------------------------------------------
# Outcome relations between separate single-site measurements


@dataclass(frozen=True)
class PatternCheck:
    pattern: QuestionPattern
    trials: int
    target: int
    matches: int

    @property
    def always_matches(self) -> bool:
        return self.matches == self.trials


@dataclass(frozen=True)
class GeneralizedElementsReport:
    checks: tuple[PatternCheck, ...]
    # The four relations hold run by run, but measuring x and y on the same
    # site needs incompatible settings, so no single run realizes all four:
    # each is a statement about what a different run would have shown.
    jointly_measurable: bool = False

    @property
    def all_hold(self) -> bool:
        return all(c.always_matches for c in self.checks)


def generalized_elements_check(
    pre: StateVector, trials: int = 10_000, master_seed: int = 0
) -> GeneralizedElementsReport:
    """Check the outcome-product relations of separate single-site measurements.

    For each question pattern, runs sequential projective measurements on
    the three sites and counts how often the outcome product equals the
    pattern target.  On a GHZ preparation every run matches.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    streams = TrialStreams(master_seed, 1)
    checks = []
    for k, pattern in enumerate(PATTERNS):
        axes = pattern.axes
        matches = 0
        for i in range(trials):
            _, (rnd,) = streams.trial(k * trials + i)
            state = pre
            product = 1
            for site in range(3):
                outcome, state = measure_pauli(state, site, axes[site], rnd)
                product *= outcome
            matches += product == pattern.target
        checks.append(
            PatternCheck(pattern=pattern, trials=trials, target=pattern.target, matches=matches)
        )
    return GeneralizedElementsReport(tuple(checks))


# ---------------------------------------------------------------------------
# Text rendering


def format_elements_proof(
    ens: PrePostEnsemble,
    conditionals: ConditionalsReport,
    report: ProductRuleReport,
) -> str:
    """Readable account of the inferred elements and the failed product rule."""
    lines = ["preparation: GHZ triple; final x results:"]
    for site, axis, outcome in ens.post:
        lines.append(f"  site {SITE_NAMES[site]}: {axis.value} -> {outcome:+d}")
    lines.append("definite product observables of the preparation alone:")
    for e in conditionals.entries:
        lines.append(
            f"  {e.observable.label(SITE_NAMES)} = {e.measured_value:+d}"
            f"  (expectation {e.expectation:+.12f})"
        )
    lines.append(
        "  all pairs commute on the state: " + ("yes" if conditionals.all_pairs_commute else "NO")
    )
    lines.append("inferred elements between preparation and final results:")
    for e in report.pairwise:
        lines.append(
            f"  {e.observable.label(SITE_NAMES)} = {e.value:+d}"
            f"  (inference probability {e.certainty:.12f})"
        )
    lines.append(
        f"product of the three inferred values: {report.pairwise_product:+d}"
    )
    six = report.six_factor_element
    lines.append(
        f"inferred value of the six-factor product {six.observable.label(SITE_NAMES)}:"
        f" {six.value:+d} (it is the identity operator)"
    )
    lines.append(
        "product rule violated: " + ("yes" if report.violated else "no")
    )
    return "\n".join(lines) + "\n"
