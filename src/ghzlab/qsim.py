"""Dense statevector simulation for small collections of two-level sites.

Conventions, fixed here and relied on by every other module:

* Basis index: site ``k`` occupies bit ``k`` of the amplitude index, so
  site 0 is the lowest-order bit.  Bit value 0 is spin up along z, bit
  value 1 is spin down along z.
* Pauli phases: ``sigma_y |up> = i |down>`` and ``sigma_y |down> = -i |up>``.
* Bell basis: ``Phi+- = (|uu> +- |dd>)/sqrt2`` and ``Psi+- = (|ud> +- |du>)/
  sqrt2``, where the first arrow belongs to the first site of the measured
  pair as passed to :func:`bell_measure`.
* Basis outcomes: ``_PAULI_BASIS`` and ``BellIndex.outcome`` hold ``(scale,
  ((p, u), ...))``, the component ``u * scale`` at each value p of the
  measured sites in ``_split``'s grouping, the first ``u`` being 1.

States are value objects: amplitude buffers are marked read-only, so a
state can be shared.  ``make_ghz()`` and ``teleport.build_setup()`` return
cached states, and :func:`measure_pauli` and :func:`bell_measure` return the
same branch object every time they collapse such a state the same way.
Randomness enters only through an explicit ``numpy.random.Generator``
argument, so all sampling is reproducible and the functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .rules import Axis

# Hard cap on dense representation size: 2**12 = 4096 amplitudes.
MAX_SITES = 12

# Tolerance for exact algebraic identities (norms, traces, eigenrelations).
ATOL_EXACT = 1e-12
# Branches below this probability are treated as numerically impossible.  Each
# branch is weighed by its own overlap, so an empty one reads 0 or the square
# of a rounding residue, near 1e-32; the bound sits far above that, and a live
# branch of any weight above it is renormalized by its own norm.
MIN_BRANCH_PROB = ATOL_EXACT

RandomSource = np.random.Generator

_SQRT1_2 = 1.0 / math.sqrt(2.0)


class BellIndex(Enum):
    """The four maximally entangled two-site basis states.

    Each member carries its display ``label`` and its basis ``outcome``
    (see the module notes) over the pair value p = bit(s1) + 2*bit(s2),
    its two terms in ascending p.  ``value`` is the name written to JSON.
    """

    PHI_PLUS = ("phi_plus", "Phi+", (_SQRT1_2, ((0, 1), (3, 1))))
    PHI_MINUS = ("phi_minus", "Phi-", (_SQRT1_2, ((0, 1), (3, -1))))
    PSI_PLUS = ("psi_plus", "Psi+", (_SQRT1_2, ((1, 1), (2, 1))))
    PSI_MINUS = ("psi_minus", "Psi-", (-_SQRT1_2, ((1, 1), (2, -1))))

    __hash__ = object.__hash__

    def __new__(cls, value: str, label: str, outcome: tuple):
        member = object.__new__(cls)
        member._value_ = value
        member.label = label
        member.outcome = outcome
        return member


class _AxisTable(dict):
    def __missing__(self, axis):  # any key but an Axis
        raise ValueError(f"axis must be an Axis, got {axis!r}")


# The +1 and -1 eigenstates of each axis over the site's bit, as basis outcomes.
_PAULI_BASIS = _AxisTable({
    Axis.X: ((_SQRT1_2, ((0, 1), (1, 1))), (_SQRT1_2, ((0, 1), (1, -1)))),
    Axis.Y: ((_SQRT1_2, ((0, 1), (1, 1j))), (_SQRT1_2, ((0, 1), (1, -1j)))),
    Axis.Z: ((1.0, ((0, 1),)), (1.0, ((1, 1),))),
})

class StateVector:
    """Normalized pure state of ``num_sites`` two-level systems, holding a frozen copy of ``amps``."""

    __slots__ = ("num_sites", "amps")

    def __init__(self, num_sites: int, amps):
        if not 1 <= num_sites <= MAX_SITES:
            raise ValueError(f"num_sites must be in [1, {MAX_SITES}], got {num_sites}")
        arr = np.array(amps, dtype=complex)
        if arr.shape != (1 << num_sites,):
            raise ValueError(
                f"expected {1 << num_sites} amplitudes for {num_sites} sites, got {arr.shape}"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        norm2 = np.vdot(arr, arr).real
        if abs(norm2 - 1.0) > ATOL_EXACT:
            raise ValueError(f"state is not normalized: |amps|^2 = {norm2!r}")
        arr.flags.writeable = False
        self.num_sites = num_sites
        self.amps = arr

    @classmethod
    def _renormalized(cls, num_sites: int, amps: np.ndarray) -> "StateVector":
        """Wrap amplitudes a kernel just renormalized, skipping validation.

        Internal fast path for measurement collapse, where the norm is 1 by
        construction; the buffer is still frozen before it escapes.
        """
        self = object.__new__(cls)
        amps.flags.writeable = False
        self.num_sites = num_sites
        self.amps = amps
        return self

    def dump_lines(self) -> list[str]:
        """Debug dump: one line 'bitstring re im' per basis state, site 0 first."""
        lines = []
        for i, a in enumerate(self.amps):
            bits = "".join("1" if (i >> k) & 1 else "0" for k in range(self.num_sites))
            lines.append(f"{bits} {a.real:.15g} {a.imag:.15g}")
        return lines

    def __repr__(self) -> str:
        return f"StateVector(num_sites={self.num_sites})"


class _SharedState(StateVector):
    """A state reused across trials: ``make_ghz()``, ``teleport.build_setup()`` and their branches.

    It shares the frozen buffer of ``state``, which is already normalized:
    a root was validated by :class:`StateVector`, a child is a projection.
    ``memo`` maps each Pauli ``(site, axis)`` and Bell pair ``(s1, s2)``
    measured on it to ``[picker, *children]``, which :func:`_sample` stores:
    the :func:`_picker` of the Born weights, each outcome weighed once by
    its own overlap, then one branch per outcome, the outcome's projection,
    built the first time it is drawn and kept; a dead branch stays
    ``None``.  Only sites not yet ``measured`` on the path from the root get
    an entry and shared branches, which bounds the tree, so a memo hit is
    one lookup; measuring a site again gives a plain state.
    """

    __slots__ = ("memo", "measured")

    def __init__(self, state: StateVector, measured: frozenset[int] = frozenset()):
        self.num_sites = state.num_sites
        self.amps = state.amps
        self.memo = {}
        self.measured = measured


@dataclass(frozen=True)
class ProductObservable:
    """An ordered product of single-site Pauli factors, eigenvalues +1/-1.

    Factors may repeat, e.g. for squared products, but all factors acting
    on one site must share the same axis, which keeps the product Hermitian
    and involutory.
    """

    factors: tuple[tuple[int, Axis], ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a product observable needs at least one factor")
        seen: dict[int, Axis] = {}
        for site, axis in self.factors:
            if site < 0:
                raise ValueError(f"negative site index {site}")
            if type(axis) is not Axis:
                raise ValueError(f"axis must be an Axis, got {axis!r}")
            if seen.setdefault(site, axis) is not axis:
                raise ValueError(
                    f"site {site} carries both {seen[site].value} and {axis.value}; "
                    "mixed-axis products on one site are not Hermitian"
                )

    @classmethod
    def of(cls, *factors: tuple[int, Axis]) -> "ProductObservable":
        return cls(tuple(factors))

    def commutes_with(self, other: "ProductObservable") -> bool:
        """Whether the two products commute as operators.

        Paulis of different axes on one site anticommute, so swapping the
        products flips the sign once per such pair of factors; with one
        factor per site, they commute when the sites where their axes
        differ are even in number.
        """
        flips = sum(a is not b for s, a in self.factors for t, b in other.factors if s == t)
        return flips % 2 == 0

    def label(self, site_names: Sequence[str] | None = None) -> str:
        parts = []
        for site, axis in self.factors:
            name = site_names[site] if site_names else str(site)
            parts.append(f"{axis.value}({name})")
        return "*".join(parts)


def pauli_product(axes: str) -> ProductObservable:
    """Build a product observable from an axis string, e.g. ``"xyy"``.

    Character k acts on site k.
    """
    return ProductObservable(tuple((k, Axis(c.lower())) for k, c in enumerate(axes)))


# ---------------------------------------------------------------------------
# State construction


def pauli_eigenstate(axis: Axis, sign: int) -> StateVector:
    """Single-site eigenstate of a Pauli axis with eigenvalue ``sign``."""
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign must be int +1 or -1, got {sign!r}")
    scale, terms = _PAULI_BASIS[axis][sign == -1]
    return StateVector(1, [dict(terms).get(p, 0) * scale for p in (0, 1)])


@lru_cache(maxsize=1)
def make_ghz() -> StateVector:
    """Three-site state (|up,up,up> - |down,down,down>)/sqrt2.

    States are immutable, so the instance is cached and shared, and so
    are the branches :func:`measure_pauli` collapses it to.
    """
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = _SQRT1_2
    amps[0b111] = -_SQRT1_2
    return _SharedState(StateVector(3, amps))


@lru_cache(maxsize=1)
def make_singlet() -> StateVector:
    """Two-site state (|up,down> - |down,up>)/sqrt2.

    States are immutable, so the instance is cached and shared.
    """
    amps = np.zeros(4, dtype=complex)
    amps[0b10] = _SQRT1_2  # site 0 up, site 1 down
    amps[0b01] = -_SQRT1_2
    return StateVector(2, amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Combined state; ``b``'s sites are renumbered after ``a``'s."""
    n = a.num_sites + b.num_sites
    if n > MAX_SITES:
        raise ValueError(f"{n} sites exceeds the {MAX_SITES}-site cap")
    # index = ia + (ib << a.num_sites), hence the kron order below
    return StateVector(n, np.kron(b.amps, a.amps))


# ---------------------------------------------------------------------------
# Index bookkeeping for in-place-free kernel application


@lru_cache(maxsize=None)
def _split(n: int, sites: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Basis indices grouped by p = sum of bit(sites[j]) << j, in ascending p.

    For a pair (s1, s2), p is the pair value bit(s1) + 2*bit(s2).  The sites
    are checked here, once per site count and sites, as the split is cached.
    """
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be pairwise distinct")
    for site in sites:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for {n} sites")
    idx = np.arange(1 << n)
    base = idx[(idx & sum(1 << s for s in sites)) == 0]
    groups = tuple(
        base + sum(1 << s for j, s in enumerate(sites) if p >> j & 1) for p in range(1 << len(sites))
    )
    for g in groups:
        g.flags.writeable = False
    return groups


# Where each float of i**c * (re, im) is read from, and its sign: c = 0, 1, 2, 3
# give (re, im), (-im, re), (-re, -im) and (im, -re).
_PHASE_READS = (np.array([0, 1]), np.array([1, 0]))
_PHASE_SIGNS = tuple(np.array(s) for s in ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)))


@lru_cache
def _gather(n: int, factors: tuple[tuple[int, Axis], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Pauli ``factors`` on ``n`` sites as ``(source, sign)`` over the amplitudes' float pairs.

    The rightmost factor acts first.  X and Y flip a site's bit; Y takes a
    phase -i where the bit is clear and +i where it is set, and Z +1 and
    -1.  A factor's phase reads the bit of output index j after the flips
    of the factors to its left, so amplitude j of the product is
    ``i**c * (-1)**popcount(j & zmask) * amps[j ^ xmask]``, where xmask
    holds the sites with an odd count of X and Y factors and zmask those
    with an odd count of Y and Z.  Output float f is ``sign[f] *
    floats[source[f]]``: plus or minus one input float, zeros included.
    """
    xmask = zmask = c = 0
    for site, axis in factors:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for {n} sites")
        bit = 1 << site
        if axis is not Axis.X:
            # i**(2 * (b ^ f)) = i**(2 * b) * i**(2 * f) for the flip f from the left
            c += (3 if axis is Axis.Y else 0) + (2 if xmask & bit else 0)
            zmask ^= bit
        if axis is not Axis.Z:
            xmask ^= bit
    idx = np.arange(1 << n)
    parity = np.bitwise_count(idx & zmask) & 1
    source = ((2 * (idx ^ xmask))[:, None] + _PHASE_READS[c & 1]).reshape(-1)
    sign = ((1.0 - 2.0 * parity)[:, None] * _PHASE_SIGNS[c & 3]).reshape(-1)
    source.flags.writeable = False
    sign.flags.writeable = False
    return source, sign


def _apply_factors(amps: np.ndarray, n: int, factors: Iterable[tuple[int, Axis]]) -> np.ndarray:
    """Apply Pauli factors, the rightmost first, as one cached gather and sign flip."""
    source, sign = _gather(n, tuple(factors))
    return (amps.view(np.float64)[source] * sign).view(complex)


# ---------------------------------------------------------------------------
# Measurement and projection


_OUTCOMES = (1, -1)
_BELL_ORDER = tuple(BellIndex)
_BELL_OUTCOMES = tuple(which.outcome for which in _BELL_ORDER)


def _picker(weights: Sequence[float]) -> tuple:
    """Born picker ``(total, cuts, last, weights)``, skipping numerically dead branches.

    ``cuts`` holds the running sum and index of every live branch but the
    last, the default past them; ``total`` continues the same additions.
    """
    acc, cuts = 0.0, []
    for k, w in enumerate(weights):
        if w >= MIN_BRANCH_PROB:
            acc += w
            cuts.append((acc, k))
    if not cuts:
        raise RuntimeError("every measurement branch has zero probability")
    total, last = cuts.pop()
    return total, tuple(cuts), last, weights


def _draw(rnd: RandomSource, picker: tuple) -> int:
    """The picked index; a lone live branch takes no draw, any uniform below 1 a live one."""
    total, cuts, last, _ = picker
    if cuts:
        u = rnd.random() * total
        for acc, k in cuts:
            if u < acc:
                return k
    return last


def _overlap(state: StateVector, sites: tuple[int, ...], outcome: tuple) -> np.ndarray:
    """Overlap field <outcome|state> on the other sites: parts added or subtracted by unit, then scaled."""
    scale, terms = outcome
    amps = state.amps
    groups = _split(state.num_sites, sites)
    field = amps[groups[terms[0][0]]]
    for q, u in terms[1:]:
        part = amps[groups[q]]
        if u == 1:
            field = field + part
        elif u == -1:
            field = field - part
        else:  # conj(+-i) * part = -+(i * part)
            field = field - 1j * part if u == 1j else field + 1j * part
    return field * scale if len(terms) > 1 else field  # a lone term has scale 1


def _collapse(state: StateVector, sites: tuple, outcome: tuple, field: np.ndarray, p: float) -> StateVector:
    """Collapse onto ``outcome``: its ``field`` of weight ``p`` times ``u * scale / sqrt(p)`` at each p."""
    n = state.num_sites
    scale, terms = outcome
    c = scale * (1.0 / math.sqrt(p))  # for a unit u, u * c is exactly (u * scale) * (1 / sqrt(p))
    groups = _split(n, sites)
    out = np.zeros(1 << n, dtype=complex)
    for q, u in terms:
        out[groups[q]] = (u * c) * field
    return StateVector._renormalized(n, out)


def _project(state: StateVector, sites: tuple, outcome: tuple) -> tuple[float, StateVector | None]:
    """Probability of a basis outcome on ``sites`` and the collapse, ``None`` below ``MIN_BRANCH_PROB``."""
    field = _overlap(state, sites, outcome)
    p = float(np.vdot(field, field).real)
    if p < MIN_BRANCH_PROB:
        return 0.0, None
    return p, _collapse(state, sites, outcome, field, p)


def _sample(
    state: StateVector, key: tuple, sites: tuple, outcomes: tuple, labels: tuple,
    rnd: RandomSource, entry: list | None, k: int | None,
) -> tuple:
    """A memo miss, or ``entry``'s unbuilt child ``k``: the drawn label and its branch, kept when shared."""
    if entry is None:
        fields = [_overlap(state, sites, o) for o in outcomes]
        entry = [_picker([float(np.vdot(f, f).real) for f in fields])] + [None] * len(outcomes)
        k = _draw(rnd, entry[0])
        field = fields[k]
    else:
        field = _overlap(state, sites, outcomes[k])
    branch = _collapse(state, sites, outcomes[k], field, entry[0][3][k])
    if type(state) is _SharedState and state.measured.isdisjoint(sites):
        state.memo[key] = entry
        branch = entry[k + 1] = _SharedState(branch, state.measured.union(sites))
    return labels[k], branch


def measure_pauli(
    state: StateVector, site: int, axis: Axis, rnd: RandomSource
) -> tuple[int, StateVector]:
    """Projectively measure one Pauli axis on one site.

    Returns the sampled outcome (+1 or -1) and the collapsed state, the
    branch :func:`pauli_project` gives for it; the input is not modified.
    Each outcome is weighed by its own overlap.  A shared state (see
    :class:`_SharedState`) keeps the Born picker and each branch, so later
    calls return the same branch; no other state keeps anything.
    """
    entry = state.memo.get((site, axis)) if type(state) is _SharedState else None
    k = None if entry is None else _draw(rnd, entry[0])
    if k is None or entry[k + 1] is None:
        return _sample(state, (site, axis), (site,), _PAULI_BASIS[axis], _OUTCOMES, rnd, entry, k)
    return _OUTCOMES[k], entry[k + 1]


def pauli_project(
    state: StateVector, site: int, axis: Axis, outcome: int
) -> tuple[float, StateVector | None]:
    """Probability of a given single-site outcome and the collapsed state.

    The collapsed state is ``None`` when the branch probability is below
    ``MIN_BRANCH_PROB``.
    """
    if type(outcome) is not int or outcome not in (1, -1):
        raise ValueError(f"outcome must be int +1 or -1, got {outcome!r}")
    return _project(state, (site,), _PAULI_BASIS[axis][outcome == -1])


def _product_branch(state: StateVector, obs: ProductObservable, outcome: int) -> np.ndarray:
    """Unnormalized projection (I + outcome*O)/2 of the state."""
    return 0.5 * (state.amps + outcome * _apply_factors(state.amps, state.num_sites, obs.factors))


def measure_product(
    state: StateVector, obs: ProductObservable, rnd: RandomSource
) -> tuple[int, StateVector]:
    """Measure a Pauli product as a single +1/-1 observable.

    Projects onto the degenerate eigenspaces (I + o*O)/2, weighs each by its
    own norm, and renormalizes the drawn one as :func:`product_project` does.
    """
    branches = [_product_branch(state, obs, o) for o in _OUTCOMES]
    weights = [float(np.vdot(w, w).real) for w in branches]
    k = _draw(rnd, _picker(weights))
    return _OUTCOMES[k], StateVector._renormalized(state.num_sites, branches[k] / math.sqrt(weights[k]))


def product_project(
    state: StateVector, obs: ProductObservable, outcome: int
) -> tuple[float, StateVector | None]:
    """Probability of a product-observable outcome and the collapsed state."""
    if type(outcome) is not int or outcome not in (1, -1):
        raise ValueError(f"outcome must be int +1 or -1, got {outcome!r}")
    w = _product_branch(state, obs, outcome)
    p = float(np.vdot(w, w).real)
    if p < MIN_BRANCH_PROB:
        return 0.0, None
    # p is the branch's own squared norm, so dividing by its root normalizes it
    return p, StateVector._renormalized(state.num_sites, w / math.sqrt(p))


def expectation_product(state: StateVector, obs: ProductObservable) -> float:
    """Expectation value <state|O|state> of a Pauli product."""
    value = np.vdot(state.amps, _apply_factors(state.amps, state.num_sites, obs.factors))
    return float(value.real)


def bell_project(
    state: StateVector, s1: int, s2: int, which: BellIndex
) -> tuple[float, StateVector | None]:
    """Probability of one Bell outcome on sites (s1, s2) and the collapse."""
    return _project(state, (s1, s2), which.outcome)


def bell_measure(
    state: StateVector, s1: int, s2: int, rnd: RandomSource
) -> tuple[BellIndex, StateVector]:
    """Projective measurement in the Bell basis of sites (s1, s2).

    Every branch is weighed by its own overlap, but only the sampled one is
    collapsed, as :func:`bell_project` collapses it; a shared state keeps
    the picker and each branch, as in :func:`measure_pauli`.
    """
    entry = state.memo.get((s1, s2)) if type(state) is _SharedState else None
    k = None if entry is None else _draw(rnd, entry[0])
    if k is None or entry[k + 1] is None:
        return _sample(state, (s1, s2), (s1, s2), _BELL_OUTCOMES, _BELL_ORDER, rnd, entry, k)
    return _BELL_ORDER[k], entry[k + 1]


def results_weight(state: StateVector, results: Sequence[tuple[int, Axis, int]]) -> float:
    """Born probability of single-site ``(site, axis, outcome)`` results on distinct sites.

    The results are projected in turn with :func:`pauli_project` and their
    weights multiplied as a running product; a dead branch weighs 0.0.
    """
    sites = [site for site, _, _ in results]
    if len(set(sites)) != len(sites):
        raise ValueError("sites must be pairwise distinct")
    weight = 1.0
    for site, axis, outcome in results:
        p, state = pauli_project(state, site, axis, outcome)
        if state is None:
            return 0.0
        weight *= p
    return weight


def joint_distribution(
    state: StateVector, axes: Sequence[tuple[int, Axis]]
) -> dict[tuple[int, ...], float]:
    """Exact Born distribution of single-site measurements on distinct sites.

    Returns a map from outcome tuples (ordered as ``axes``) to probability,
    covering all 2**k tuples, the first entry of a tuple varying fastest.
    The result does not depend on the order in which the commuting
    single-site measurements would be performed.
    """
    dist: dict[tuple[int, ...], float] = {}
    for m in range(1 << len(axes)):
        outcome = tuple(1 if ((m >> j) & 1) == 0 else -1 for j in range(len(axes)))
        dist[outcome] = results_weight(
            state, [(site, axis, o) for (site, axis), o in zip(axes, outcome)]
        )
    return dist


def reduced_density(state: StateVector, sites: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of ``sites``, tracing out everything else.

    Row/column index bit j corresponds to ``sites[j]``.
    """
    n = state.num_sites
    keep = list(sites)
    if len(set(keep)) != len(keep):
        raise ValueError("sites must be pairwise distinct")
    if any(not 0 <= s < n for s in keep):
        raise ValueError(f"sites {keep} out of range for {n} sites")
    rest = [s for s in range(n) if s not in keep]
    # view axis n-1-s is site s; the kept sites, last first, become the row bits
    order = [n - 1 - s for s in reversed(rest + keep)]
    m = state.amps.reshape((2,) * n).transpose(order).reshape(1 << len(keep), -1)
    return m @ m.conj().T
