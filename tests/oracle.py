"""Independent dense-matrix oracle used to cross-check the package.

The first part builds full 2**n x 2**n operator matrices with np.kron and
evaluates probabilities and expectations by plain linear algebra.  The
package itself never forms full operator matrices, so agreement between
the two routes is a meaningful check.

The helpers that follow the matrices (amplitude lookup, basis states,
applying a product, state-based commutation, kit replies, writing and
parsing parity systems) serve the tests only, as does the exhaustive parity
scan in its earlier numpy form.  The reference samplers
after them are the package's sampling measurements and per-trial streams
in their earlier, separately written form, kept so that seeded runs of
the package can be compared with them exactly, and the shared branch
trees built whole with uniforms at every cut.  Last comes the jsonl
record line encoded whole, which the command line's cached field
fragments must reproduce byte for byte.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from enum import Enum
from functools import lru_cache

import numpy as np

from ghzlab.game import _GOLDEN_GAMMA, NO_DETECTION, PATTERNS, ExperimentReport, draw_pattern, wins
from ghzlab.lhv import LhvReport, enumerate_kits, kit_is_admissible
from ghzlab.parity import (
    MAX_ENUM_VARIABLES,
    ParityConstraint,
    ParitySystem,
    Sat,
    _constraint_rows,
    solve_gf2,
)
from ghzlab.prepost import GeneralizedElementsReport, PatternCheck
from ghzlab.qsim import (
    MIN_BRANCH_PROB,
    Axis,
    BellIndex,
    ProductObservable,
    StateVector,
    _SharedState,
    bell_measure,
    make_ghz,
    measure_pauli,
)
from ghzlab.teleport import (
    BELL_PAIRS,
    REMOTE_SITES,
    TeleportTrialRecord,
    build_setup,
    derive_correction_rule,
)

SQ2 = 1.0 / np.sqrt(2.0)
# Tolerance for derived operator norms (commutators).
ATOL_NORM = 1e-10

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
ID2 = np.eye(2, dtype=complex)

# The +1/-1 eigenvectors of each axis in the z basis, keyed (axis, outcome).
EIGVEC = {
    (Axis.X, 1): (SQ2, SQ2),
    (Axis.X, -1): (SQ2, -SQ2),
    (Axis.Y, 1): (SQ2, 1j * SQ2),
    (Axis.Y, -1): (SQ2, -1j * SQ2),
    (Axis.Z, 1): (1.0 + 0j, 0j),
    (Axis.Z, -1): (0j, 1.0 + 0j),
}

# The four Bell vectors over two sites (first site = low bit of the index).
BELL_VECTORS = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) * SQ2,
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) * SQ2,
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) * SQ2,
    "psi_minus": np.array([0, -1, 1, 0], dtype=complex) * SQ2,
}


def embed(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Full operator acting with ``ops[site]`` on each site, identity elsewhere.

    Site 0 is the lowest-order bit of the basis index, so the kron chain
    runs from the highest site down.  A site outside ``range(n)`` raises.
    """
    for site in ops:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for {n} sites")
    full = np.eye(1, dtype=complex)
    for site in range(n - 1, -1, -1):
        full = np.kron(full, ops.get(site, ID2))
    return full


def product_matrix(factors: list[tuple[int, str]], n: int) -> np.ndarray:
    """Matrix of an ordered product of single-site Paulis."""
    full = np.eye(1 << n, dtype=complex)
    for site, axis in factors:
        full = full @ embed({site: PAULI[axis]}, n)
    return full


def observable_matrix(obs: ProductObservable, n: int) -> np.ndarray:
    """Matrix of a package product observable on ``n`` sites; ``embed`` checks the range."""
    return product_matrix([(site, axis.value) for site, axis in obs.factors], n)


def expectation(psi: np.ndarray, matrix: np.ndarray) -> float:
    value = np.vdot(psi, matrix @ psi)
    assert abs(value.imag) < 1e-10
    return float(value.real)


def eigenprojector(matrix: np.ndarray, outcome: int) -> np.ndarray:
    dim = matrix.shape[0]
    return (np.eye(dim, dtype=complex) + outcome * matrix) / 2


def pauli_projector(site: int, axis: str, outcome: int, n: int) -> np.ndarray:
    return embed({site: eigenprojector(PAULI[axis], outcome)}, n)


def bell_projector(s1: int, s2: int, which: str, n: int) -> np.ndarray:
    """Projector onto one Bell state of the pair (s1, s2), identity elsewhere.

    Built by summing |basis vector><basis vector| terms over the rest space,
    a deliberately different construction from the package's kernel.
    """
    v = BELL_VECTORS[which]
    dim = 1 << n
    proj = np.zeros((dim, dim), dtype=complex)
    rest_sites = [s for s in range(n) if s not in (s1, s2)]
    for rest_bits in range(1 << len(rest_sites)):
        vec = np.zeros(dim, dtype=complex)
        base = sum(
            ((rest_bits >> j) & 1) << site for j, site in enumerate(rest_sites)
        )
        for p in range(4):
            index = base + ((p & 1) << s1) + ((p >> 1) << s2)
            vec[index] = v[p]
        proj += np.outer(vec, vec.conj())
    return proj


def born_probability(psi: np.ndarray, projector: np.ndarray) -> float:
    w = projector @ psi
    return float(np.vdot(w, w).real)


def collapse(psi: np.ndarray, projector: np.ndarray) -> np.ndarray:
    w = projector @ psi
    return w / np.linalg.norm(w)


def abl_probabilities(
    psi: np.ndarray,
    obs_factors: list[tuple[int, str]],
    post: list[tuple[int, str, int]],
    n: int,
) -> dict[int, float]:
    """Time-symmetric inference probabilities by explicit matrix products."""
    post_proj = np.eye(1 << n, dtype=complex)
    for site, axis, outcome in post:
        post_proj = post_proj @ pauli_projector(site, axis, outcome, n)
    obs = product_matrix(obs_factors, n)
    weights = {}
    for o in (1, -1):
        w = post_proj @ (eigenprojector(obs, o) @ psi)
        weights[o] = float(np.vdot(w, w).real)
    total = weights[1] + weights[-1]
    return {o: weights[o] / total for o in (1, -1)}


def reduced_density(psi: np.ndarray, keep: list[int], n: int) -> np.ndarray:
    """Partial trace by summing explicit basis blocks."""
    k = len(keep)
    rest = [s for s in range(n) if s not in keep]
    rho = np.zeros((1 << k, 1 << k), dtype=complex)
    for i in range(1 << n):
        for j in range(1 << n):
            if any(((i >> s) & 1) != ((j >> s) & 1) for s in rest):
                continue
            r = sum(((i >> s) & 1) << a for a, s in enumerate(keep))
            c = sum(((j >> s) & 1) << a for a, s in enumerate(keep))
            rho[r, c] += psi[i] * np.conj(psi[j])
    return rho


def index_reduced_density(state: StateVector, keep: list[int]) -> np.ndarray:
    """Partial trace through a (kept bits, other bits) matrix filled by index.

    The package builds the same matrix by transposing the amplitudes, with
    the same arithmetic after it, so the two must agree exactly.
    """
    n = state.num_sites
    rest = [s for s in range(n) if s not in keep]
    idx = np.arange(1 << n)
    row = np.zeros(1 << n, dtype=np.int64)
    for j, s in enumerate(keep):
        row |= ((idx >> s) & 1) << j
    col = np.zeros(1 << n, dtype=np.int64)
    for j, s in enumerate(rest):
        col |= ((idx >> s) & 1) << j
    m = np.zeros((1 << len(keep), 1 << len(rest)), dtype=complex)
    m[row, col] = state.amps
    return m @ m.conj().T


def random_state(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def binomial_4sigma(p: float, n: int) -> float:
    return 4.0 * np.sqrt(max(p * (1.0 - p), 0.0) / n)


# ---------------------------------------------------------------------------
# State helpers


def amp(state: StateVector, bits: str) -> complex:
    """Amplitude of a basis state given as a bit string, site 0 first."""
    if len(bits) != state.num_sites or any(c not in "01" for c in bits):
        raise ValueError(f"need {state.num_sites} chars of 0/1, got {bits!r}")
    return complex(state.amps[sum(1 << k for k, c in enumerate(bits) if c == "1")])


def basis_state(bits: str) -> StateVector:
    """Computational basis state from a bit string, site 0 first (0 = up)."""
    amps = np.zeros(1 << len(bits), dtype=complex)
    amps[sum(1 << k for k, c in enumerate(bits) if c == "1")] = 1.0
    return StateVector(len(bits), amps)


def apply_product(state: StateVector, obs: ProductObservable) -> StateVector:
    """Apply a product observable as an operator (the result stays normalized)."""
    matrix = observable_matrix(obs, state.num_sites)
    return StateVector(state.num_sites, matrix @ state.amps)


def ref_apply_factors(amps: np.ndarray, n: int, factors) -> np.ndarray:
    """Pauli factors applied one at a time as swaps and phases; the rightmost acts first."""
    for site, axis in reversed(tuple(factors)):
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for {n} sites")
        # axis 1 of the view is the site's bit: its up and down amplitudes
        pair = amps.reshape(-1, 2, 1 << site)
        up, down = pair[:, 0], pair[:, 1]
        out = np.empty_like(pair)
        if axis is Axis.X:
            out[:, 0], out[:, 1] = down, up
        elif axis is Axis.Y:
            out[:, 0], out[:, 1] = -1j * down, 1j * up
        else:
            out[:, 0], out[:, 1] = up, -down
        amps = out.reshape(-1)
    return amps


def commutes_on_state(state: StateVector, o1: ProductObservable, o2: ProductObservable) -> bool:
    """Whether (O1*O2 - O2*O1) annihilates the given state."""
    m1, m2 = observable_matrix(o1, state.num_sites), observable_matrix(o2, state.num_sites)
    a = m1 @ (m2 @ state.amps)
    b = m2 @ (m1 @ state.amps)
    return float(np.linalg.norm(a - b)) < ATOL_NORM


def all_detected_probability(eta: float) -> float:
    """Chance that all nine detectors of a teleport run fire: six Bell-pair and three remote ones."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return eta**9


# ---------------------------------------------------------------------------
# Instruction kits and parity systems


def silent_slot(kit) -> tuple[int, Axis]:
    """The (player, axis) carrying a kit's stay-silent instruction."""
    for player in range(3):
        for axis in (Axis.X, Axis.Y):
            if kit.answer(player, axis) is NO_DETECTION:
                return player, axis
    raise ValueError("kit has no stay-silent entry")


def play_with_kit(kit, pattern) -> tuple:
    """Per-player replies of an admissible kit to a pattern: +1, -1, or NO_DETECTION."""
    if not kit_is_admissible(kit):
        raise ValueError("kit is not admissible")
    return tuple(kit.answer(player, pattern.axes[player]) for player in range(3))


def format_system(system: ParitySystem) -> str:
    """A parity system in the plain-text format ``parse_system`` reads."""
    lines = [f"VAR {name}" for name in system.variables]
    for con in system.constraints:
        lines.append(f"CON {' '.join(con.vars)} => {con.target:+d}")
    return "\n".join(lines) + "\n"


def parse_system(text: str) -> ParitySystem:
    """Parse the plain-text format written by ``format_system``."""
    variables: list[str] = []
    constraints: list[ParityConstraint] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "VAR":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: VAR takes exactly one name")
            variables.append(parts[1])
        elif parts[0] == "CON":
            if len(parts) < 4 or parts[-2] != "=>":
                raise ValueError(f"line {lineno}: expected 'CON name... => +1|-1'")
            if parts[-1] not in ("+1", "-1", "1"):
                raise ValueError(f"line {lineno}: bad target {parts[-1]!r}")
            constraints.append(
                ParityConstraint(tuple(parts[1:-2]), 1 if parts[-1] in ("+1", "1") else -1)
            )
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    return ParitySystem(tuple(variables), tuple(constraints))


def ref_solve_enumerate(system: ParitySystem):
    """``parity.solve_enumerate`` as a chunked numpy scan over the words of the assignments.

    Bit (n-1-j) of a scan word holds variable j, so ascending words run
    through the assignments in lexicographic order with +1 first.  The first
    word whose masked bits have the target parity under every constraint is
    the answer; with none, the certificate comes from ``solve_gf2``.
    """
    n = len(system.variables)
    if n > MAX_ENUM_VARIABLES:
        raise ValueError(f"enumeration is capped at {MAX_ENUM_VARIABLES} variables, got {n}")
    masks, tbits = _constraint_rows(system)
    scan_masks = np.array(
        [sum(1 << (n - 1 - j) for j in range(n) if (mask >> j) & 1) for mask in masks],
        dtype=np.uint32,
    )
    scan_tbits = np.array(tbits, dtype=np.uint32)
    total = 1 << n
    chunk = 1 << 16
    for start in range(0, total, chunk):
        words = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        ok = np.ones(words.shape, dtype=bool)
        for mask, tbit in zip(scan_masks, scan_tbits):
            ok &= (np.bitwise_count(words & mask) & 1) == tbit
        hit = np.flatnonzero(ok)
        if hit.size:
            word = int(words[hit[0]])
            return Sat({
                name: (-1 if (word >> (n - 1 - j)) & 1 else 1)
                for j, name in enumerate(system.variables)
            })
    return solve_gf2(system)


# ---------------------------------------------------------------------------
# Reference samplers
#
# The package's sampling measurements as they were written before sampling
# and projection shared one branch picker: a two-branch Born pick for Pauli
# and product measurements, and a Bell measurement that builds all four
# collapsed states and keeps one.  Seeded-equality tests compare the package
# against these, outcome by outcome, amplitude by amplitude and draw by draw.
# The index tables below are the oracle's own, built bit by bit and cached,
# as they are only read.  The arithmetic repeats the package's one form for
# every basis outcome, so the two agree exactly: ``site_overlap`` and
# ``ref_bell_project`` add or subtract the parts by sign, a y outcome's second
# part turned by -i first, then scale; ``_ref_site_collapse`` and ``ref_bell_project``
# multiply the overlap by each component times the reciprocal root of the
# weight.  Both start from the dense ``EIGVEC`` and ``BELL_VECTORS``.  The
# product measurement applies its observable as a dense matrix.


@lru_cache(maxsize=None)
def site_indices(n: int, site: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending basis indices with bit ``site`` clear, and each with that bit set."""
    clear = np.array([i for i in range(1 << n) if not (i >> site) & 1], dtype=np.int64)
    return clear, clear | (1 << site)


@lru_cache(maxsize=None)
def pair_indices(n: int, s1: int, s2: int) -> tuple[np.ndarray, ...]:
    """Basis indices grouped by the pair value p = bit(s1) + 2*bit(s2), each ascending."""
    pair_value = [((i >> s1) & 1) + 2 * ((i >> s2) & 1) for i in range(1 << n)]
    return tuple(
        np.array([i for i, v in enumerate(pair_value) if v == p], dtype=np.int64) for p in range(4)
    )


def site_overlap(amps: np.ndarray, n: int, site: int, axis: Axis, outcome: int) -> np.ndarray:
    """<outcome eigenstate of ``axis`` at ``site``|psi>, over the other sites."""
    i0, i1 = site_indices(n, site)
    up, down = amps[i0], amps[i1]
    if axis is Axis.Z:
        return (up if outcome == 1 else down).copy()
    # <+x| = (1, 1)/sqrt2 and <+y| = (1, -i)/sqrt2; the -1 outcomes negate the second term
    second = down if axis is Axis.X else -1j * down
    return (up + second) * SQ2 if outcome == 1 else (up - second) * SQ2


def _ref_site_collapse(n, site, axis, outcome, coeff, prob) -> np.ndarray:
    i0, i1 = site_indices(n, site)
    v0, v1 = EIGVEC[(axis, outcome)]
    inv = 1.0 / math.sqrt(prob)
    out = np.zeros(1 << n, dtype=complex)
    if v0:
        out[i0] = (v0 * inv) * coeff
    if v1:
        out[i1] = (v1 * inv) * coeff
    return out


def ref_measure_pauli(state, site, axis, rnd):
    n = state.num_sites
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} sites")
    coeffs = [site_overlap(state.amps, n, site, axis, o) for o in (1, -1)]
    weights = [float(np.vdot(c, c).real) for c in coeffs]
    k = ref_pick(rnd, weights)
    outcome = (1, -1)[k]
    return outcome, StateVector._renormalized(
        n, _ref_site_collapse(n, site, axis, outcome, coeffs[k], weights[k])
    )


def ref_measure_product(state, obs, rnd):
    n = state.num_sites
    o_amps = observable_matrix(obs, n) @ state.amps
    branches = [0.5 * (state.amps + o * o_amps) for o in (1, -1)]
    weights = [float(np.vdot(w, w).real) for w in branches]
    k = ref_pick(rnd, weights)
    return (1, -1)[k], StateVector(n, branches[k] / math.sqrt(weights[k]))


def ref_bell_project(state, s1, s2, which):
    """The overlap and collapse of a real Bell vector with two nonzero components.

    The overlap adds or subtracts the two parts, as the components' signs
    agree or not, and scales by the first component; the collapse scales
    the overlap by each component over the root of the weight.
    """
    n = state.num_sites
    groups = pair_indices(n, s1, s2)
    v = BELL_VECTORS[which.value]
    first, second = np.flatnonzero(v)
    a, b = state.amps[groups[first]], state.amps[groups[second]]
    coeff = (a + b if v[second] == v[first] else a - b) * v[first].real
    p = float(np.vdot(coeff, coeff).real)
    if p < MIN_BRANCH_PROB:
        return 0.0, None
    inv = 1.0 / math.sqrt(p)
    out = np.zeros_like(state.amps)
    for q in (first, second):
        out[groups[q]] = (v[q].real * inv) * coeff
    return p, StateVector(n, out)


def ref_pick(rnd, weights) -> int:
    """Born pick of a branch index by a running sum over the live weights, drawn afresh.

    A lone live branch is taken without a draw; a draw past every threshold
    takes the last live branch.
    """
    live = [(k, w) for k, w in enumerate(weights) if w >= MIN_BRANCH_PROB]
    if len(live) == 1:
        return live[0][0]
    total = 0.0
    for _, w in live:
        total += w
    u = rnd.random() * total
    acc = 0.0
    for k, w in live[:-1]:
        acc += w
        if u < acc:
            return k
    return live[-1][0]


def ref_bell_measure(state, s1, s2, rnd):
    """Builds every collapsed branch and always draws, even for one live branch."""
    branches = []
    total = 0.0
    for which in BellIndex:
        p, collapsed = ref_bell_project(state, s1, s2, which)
        branches.append((which, p, collapsed))
        total += p
    u = rnd.random() * total
    acc = 0.0
    for which, p, collapsed in branches:
        if collapsed is None:
            continue
        acc += p
        if u < acc:
            return which, collapsed
    for which, p, collapsed in reversed(branches):
        if collapsed is not None:
            return which, collapsed
    raise RuntimeError("all Bell branches have zero probability")


# ---------------------------------------------------------------------------
# The shared branch trees, and uniforms at every cut of their pickers
#
# A draw lands within a few ulps of a cut with a chance near 1e-15, so seeds
# never test how a pick resolves there; these helpers reach every cut of the
# two finite trees the commands walk.


class FixedDraw:
    """A random source whose every uniform is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def tree_nodes(state):
    """Every state in the tree of shared branches below ``state``, itself included."""
    yield state
    for entry in state.memo.values():
        for branch in entry[1:]:
            if branch is not None:
                yield from tree_nodes(branch)


def boundary_uniforms(picker) -> list[float]:
    """0, the largest uniform below 1, and each cut over the picker's total with
    its neighbours one and two ulps away, all in [0, 1)."""
    total, cuts, _, _ = picker
    uniforms = [0.0, 1.0 - 2.0**-53]
    for acc, _ in cuts:
        below = above = acc / total
        uniforms.append(below)
        for _ in range(2):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            uniforms += [below, above]
    return [u for u in uniforms if 0.0 <= u < 1.0]


def _grow(state, steps) -> None:
    """Build every live branch of ``state`` along ``steps``: a measure and its site arguments each."""
    if not steps:
        return
    (measure, *args), rest = steps[0], steps[1:]
    measure(state, *args, FixedDraw(0.0))  # prepares the picker
    entry = state.memo[tuple(args)]
    for u in boundary_uniforms(entry[0]):  # between them they take every live branch
        measure(state, *args, FixedDraw(u))
    for branch in entry[1:]:
        if branch is not None:
            _grow(branch, rest)


def grow_trees() -> tuple:
    """Fresh copies of the GHZ and nine-site roots, with every branch the commands reach built.

    The game measures the detected sites of a pattern in site order, and
    teleport the three Bell pairs, then the remote sites on the pattern's axes.
    Being fresh, the trees hold nothing that other callers measured.
    """
    ghz, setup = _SharedState(make_ghz()), _SharedState(build_setup())
    for pattern in PATTERNS:
        for n in (1, 2, 3):
            for sites in itertools.combinations(range(3), n):
                _grow(ghz, [(measure_pauli, site, pattern.axes[site]) for site in sites])
        bells = [(bell_measure, *pair) for pair in BELL_PAIRS]
        _grow(setup, bells + [(measure_pauli, *step) for step in zip(REMOTE_SITES, pattern.axes)])
    return ghz, setup


def tree_pickers() -> list[tuple]:
    """Every Born picker of the GHZ and nine-site trees of ``grow_trees``."""
    return [
        entry[0] for root in grow_trees() for node in tree_nodes(root) for entry in node.memo.values()
    ]


# ---------------------------------------------------------------------------
# Reference streams and trial loops
#
# ``RefTrialStreams`` is the package's per-trial streams as first written:
# every role is reset onto its trial through numpy's state setter, with the
# array-valued state numpy's getter returns where ``TrialStreams`` writes a
# prepared list-valued one.  The loops below play the quantum team and
# the generalized-elements check with it and with ``ref_measure_pauli`` on a
# private copy of the GHZ state, and the teleported game with it and with
# ``ref_bell_measure`` and ``ref_measure_pauli`` on a private copy of the
# nine-site setup, so no memo of the package takes part.


class RefTrialStreams:
    def __init__(self, master_seed: int, n_roles: int):
        key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
        self._key0 = int(key[0])
        self._bgs = [np.random.Philox(key=0) for _ in range(n_roles)]
        self._gens = tuple(np.random.Generator(bg) for bg in self._bgs)
        self._states = [bg.state for bg in self._bgs]
        for role, st in enumerate(self._states):
            st["state"]["key"][:] = key
            st["state"]["counter"][:] = (0, role, 0, 0)
            st["buffer_pos"] = 4
            st["has_uint32"] = 0
            st["uinteger"] = 0

    def trial(self, index: int):
        for bg, st in zip(self._bgs, self._states):
            st["state"]["counter"][2] = index
            bg.state = st
        return (self._key0 ^ ((index * _GOLDEN_GAMMA) & 0xFFFFFFFFFFFFFFFF)), self._gens


def plain_ghz() -> StateVector:
    return StateVector(3, make_ghz().amps)


class TopDraw:
    """A random source whose every uniform is 1 - 2**-53, the largest below 1.

    Such a draw picks the last branch that carries any weight, so it is the
    one that would take a branch whose weight is only rounding.
    """

    def random(self) -> float:
        return 1.0 - 2.0**-53


def ref_quantum_experiment(name: str, eta: float, trials: int, master_seed: int) -> ExperimentReport:
    """The report of the measuring team at efficiency ``eta``, played trial by trial."""
    streams = RefTrialStreams(master_seed, 5)
    counts = {p: [0, 0] for p in PATTERNS}  # trials, wins
    triple = 0
    for i in range(trials):
        _, (referee, _setup, *players) = streams.trial(i)
        pattern = PATTERNS[int(referee.random() * 4) & 3]
        state = plain_ghz()
        product, detected = 1, 0
        for site, (question, prnd) in enumerate(zip(pattern.axes, players)):
            if eta < 1.0 and prnd.random() >= eta:
                product *= 1 if prnd.random() < 0.5 else -1
            else:
                outcome, state = ref_measure_pauli(state, site, question, prnd)
                product *= outcome
                detected += 1
        counts[pattern][0] += 1
        counts[pattern][1] += product == pattern.target
        triple += detected == 3
    wins = sum(w for _, w in counts.values())
    return ExperimentReport(
        strategy=name,
        trials=trials,
        wins=wins,
        win_rate=wins / trials,
        per_pattern_trials={p.value: counts[p][0] for p in PATTERNS},
        per_pattern_win_rates={
            p.value: (counts[p][1] / counts[p][0] if counts[p][0] else None) for p in PATTERNS
        },
        triple_detection_rate=triple / trials,
        master_seed=master_seed,
    )


def ref_lhv_statistics(trials: int, master_seed: int) -> LhvReport:
    """The instruction-kit report, played trial by trial in the harness's draw order.

    A trial draws its kit from the setup stream with ``integers(48)``, then
    the referee's pattern; a silent seat scores a fair coin from its own
    stream.  Only a round in which all three detect can be won.
    """
    kits = enumerate_kits()
    streams = RefTrialStreams(master_seed, 5)
    counts = {p: [0, 0] for p in PATTERNS}  # trials, wins
    by_detections = [0, 0, 0, 0]
    for i in range(trials):
        _, (referee, setup, *players) = streams.trial(i)
        kit = kits[int(setup.integers(len(kits)))]
        pattern = PATTERNS[int(referee.random() * 4) & 3]
        product, detected = 1, 0
        for reply, prnd in zip(play_with_kit(kit, pattern), players):
            if reply is NO_DETECTION:
                product *= 1 if prnd.random() < 0.5 else -1
            else:
                product *= reply
                detected += 1
        counts[pattern][0] += 1
        counts[pattern][1] += detected == 3 and product == pattern.target
        by_detections[detected] += 1
    wins = sum(w for _, w in counts.values())
    triple = by_detections[3]
    return LhvReport(
        strategy="lhv-instruction-kits",
        trials=trials,
        wins=wins,
        win_rate=wins / trials,
        per_pattern_trials={p.value: counts[p][0] for p in PATTERNS},
        per_pattern_win_rates={
            p.value: (counts[p][1] / counts[p][0] if counts[p][0] else None) for p in PATTERNS
        },
        triple_detection_rate=triple / trials,
        master_seed=master_seed,
        conditional_win_rate=wins / triple if triple else None,
        single_detections=by_detections[1],
        null_detections=by_detections[0],
    )


def ref_generalized_elements(
    trials: int, master_seed: int, pre: StateVector | None = None
) -> GeneralizedElementsReport:
    """The generalized-elements report on ``pre``, a plain GHZ state by default."""
    pre = plain_ghz() if pre is None else pre
    streams = RefTrialStreams(master_seed, 1)
    checks = []
    for k, pattern in enumerate(PATTERNS):
        matches = 0
        for i in range(trials):
            _, (rnd,) = streams.trial(k * trials + i)
            state, product = pre, 1
            for site, axis in enumerate(pattern.axes):
                outcome, state = ref_measure_pauli(state, site, axis, rnd)
                product *= outcome
            matches += product == pattern.target
        checks.append(PatternCheck(pattern=pattern, trials=trials, target=pattern.target, matches=matches))
    return GeneralizedElementsReport(tuple(checks))


def ref_teleport_record(pattern, bells, raws) -> TeleportTrialRecord:
    """The record of one trial from its pattern, Bell outcomes and raw remote outcomes."""
    rule = derive_correction_rule()
    corrected = tuple(r * rule.sign(b, a) for r, b, a in zip(raws, bells, pattern.axes))
    return TeleportTrialRecord(pattern, tuple(bells), tuple(raws), corrected, wins(pattern, corrected))


def ref_teleport_records(trials: int, master_seed: int) -> list[TeleportTrialRecord]:
    """The records of ``teleport.run_trials``, played trial by trial on a plain nine-site state."""
    setup = StateVector(9, build_setup().amps)
    streams = RefTrialStreams(master_seed, 2)
    records = []
    for i in range(trials):
        _, (referee, lab) = streams.trial(i)
        pattern = draw_pattern(referee)
        state, bells, raws = setup, [], []
        for s1, s2 in BELL_PAIRS:
            which, state = ref_bell_measure(state, s1, s2, lab)
            bells.append(which)
        for site, axis in zip(REMOTE_SITES, pattern.axes):
            outcome, state = ref_measure_pauli(state, site, axis, lab)
            raws.append(outcome)
        records.append(ref_teleport_record(pattern, bells, raws))
    return records


# ---------------------------------------------------------------------------
# Reference record encoding


def _record_default(obj):
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):  # slotted or not: no ``vars`` on a slotted record
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def ref_record_line(rec) -> str:
    """A trial record's jsonl line encoded whole: its fields in declaration order, an enum as its value."""
    return json.dumps(rec, default=_record_default) + "\n"


def _document_default(obj):
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def ref_document(obj) -> str:
    """A command's JSON document as ``json`` writes it with ``indent=2``, without the last newline."""
    return json.dumps(obj, indent=2, default=_document_default)
