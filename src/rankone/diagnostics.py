"""Empirical experiments over the level algebra of a realized construction.

Everything here reduces to lagged pair counts, so every experiment takes the
PairCounter of the word it reads (its realized schedule, depth J and base
stage j0) as its first argument. A measured matrix at lag n is
renormalized to unit mass over its counted window, so it can be compared
directly against convex combinations of the small-lag basis matrices and the
product matrix. On top of that sit a per-lag classifier sweep (limit_scan),
a rigidity probe that tracks distance from the lag-0 diagonal pattern, crude
mixing statistics, a Cesaro product average for pairs of powers, and exact
triple correlations from the counter's k-point recursion. The Cesaro average
is summed by matrix products of stacked tables; the few cells that can hold
its largest deviation are summed again in order of n, so every reported bit
is that of the running sum over n.

Lag magnitudes are validated only against the word length here; experiment
configs apply the stricter reporting cap before calling in.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._record import record
from .correlation import PairCounter, unit_mass
from .errors import LagOutOfRange
from .operators import (
    ClassifyResult,
    OperatorExpression,
    build_family,
    classify_limit,
    identity_op,
    op_adjoint,
    predicted_matrices,
)
from .words import level_measures

__all__ = [
    "limit_basis",
    "LimitScanRow",
    "LimitScan",
    "limit_scan",
    "stochastic_grid_size",
    "RigidityRow",
    "RigidityScan",
    "rigidity_scan",
    "MixingReport",
    "mixing_diagnostics",
    "CesaroReport",
    "cesaro_disjointness_probe",
    "TripleRow",
    "TripleReport",
    "triple_corr_probe",
    "TRIPLE_CELL_LIMIT",
    "DISJOINTNESS_CELL_LIMIT",
]

#: Largest S**3 a triple tensor may have (S symbols per index).
TRIPLE_CELL_LIMIT = 1 << 24
#: Largest S**4 the disjointness probe's 4-index tensor may have.
DISJOINTNESS_CELL_LIMIT = 1 << 22
#: Unit tables the disjointness probe stacks per matrix product. BLAS packs
#: its operands into buffers that grow with this count and stay resident.
_STACK_ROWS = 16


def _measure_vector(pc: PairCounter) -> np.ndarray:
    return np.array([float(m) for m in level_measures(pc.realized, pc.J, pc.j0)])


def limit_basis(pc: PairCounter, K: int = 8) -> Dict[Union[int, str], np.ndarray]:
    """Unit-mass matrices for powers -K..K plus the product matrix.

    Key i holds the window-normalized pair matrix at lag i; negative keys are
    transposes of the positive ones. Key "theta" holds the outer product of
    the exact level measures, the matrix a fully dissipated limit produces.
    """
    if K < 0:
        raise ValueError(f"window K must be nonnegative, got {K}")
    basis: Dict[Union[int, str], np.ndarray] = {}
    for i, c in pc.counts_many(range(K + 1)).items():
        m = unit_mass(c, i, pc.lJ)
        basis[i] = m
        if i:
            basis[-i] = m.T
    mu = _measure_vector(pc)
    basis["theta"] = np.outer(mu, mu)
    return basis


# ---------------------------------------------------------------------------
# limit scan

@record
class LimitScanRow:
    """Classification of one lag's unit-mass matrix plus the nearest candidate."""

    lag: int
    matrix: np.ndarray
    result: ClassifyResult
    family: str
    family_distance: float


@record
class LimitScan:
    rows: Tuple[LimitScanRow, ...]  # one per distinct lag
    window: int
    tolerance: float
    predicted: np.ndarray  # the candidates' matrices, stacked in order

    @property
    def fraction_identified(self) -> float:
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.result.identified) / len(self.rows)

    @property
    def worst_residual(self) -> float:
        return max((r.result.residual for r in self.rows), default=0.0)

    @property
    def best_family(self) -> str:
        """Family named most often across rows; ties resolve alphabetically."""
        if not self.rows:
            return ""
        tally = Counter(r.family for r in self.rows)
        top = max(tally.values())
        return min(name for name, k in tally.items() if k == top)


def stochastic_grid_size(K: int, max_power: int) -> int:
    """Stochastic candidates limit_scan fits at window K: each m + n = s up
    to min(max_power, 2K) gives s + 1 pairs (m, n), each with the 2K - s + 1
    shifts k that keep its powers inside the window."""
    return sum((s + 1) * (2 * K - s + 1) for s in range(min(max_power, 2 * K) + 1))


def _named_candidates(
    K: int,
    stochastic_a,
    max_power: int,
) -> List[Tuple[str, OperatorExpression, int]]:
    """(name, expression, shift k) for every family limit_scan matches,
    in the order argmin breaks ties by; the candidate is T^k expression."""
    out: List[Tuple[str, OperatorExpression, int]] = [("identity", identity_op(), 0)]
    if K >= 1:  # both Chacon limits need the power-1 basis matrix
        for name, expr in (
            ("modified-chacon-limit", build_family("modified-chacon-limit")),
            (f"chacon-geometric(M={K - 1})", build_family("chacon-geometric", M=K - 1)),
        ):
            out += [(name, expr, 0), (f"{name}*", op_adjoint(expr), 0)]
    if stochastic_a is not None:
        # the adjoint of every grid member is another grid member (swap m and
        # n, negate k), so no starred variants are needed here; T^k only
        # shifts the powers, so each (m, n) is built once; past m + n = 2K no
        # shift k fits the window
        top = min(max_power, 2 * K)
        for m in range(top + 1):
            for n in range(top + 1 - m):
                base = build_family("stochastic", m=m, n=n, a=stochastic_a)
                out += [
                    (f"stochastic(m={m},n={n},k={k})", base, k)
                    for k in range(m - K, K - n + 1)
                ]
    return out


def limit_scan(
    pc: PairCounter,
    lags: Sequence[int],
    K: int = 8,
    tol: float = 0.03,
    stochastic_a=None,
    max_power: int = 6,
    candidates: Optional[Sequence[Tuple[str, OperatorExpression, int]]] = None,
) -> LimitScan:
    """Classify the unit-mass matrix at every distinct lag against the window.

    Each lag gets a full simplex fit over {T^i : |i| <= K} plus theta, and is
    also matched against the candidates, (name, expression, shift k) triples
    for T^k expression; family_distance is the max-abs gap to the closest.
    candidates default to the named families (identity, the two Chacon limits
    in both orientations when K >= 1, and, when stochastic_a is given, the
    grid P^m P*^n T^k with m+n <= max_power and powers inside the window);
    converge passes its one family instead.
    """
    basis = limit_basis(pc, K)
    if candidates is None:
        candidates = _named_candidates(K, stochastic_a, max_power)
    names, exprs, shifts = zip(*candidates)
    predictions = predicted_matrices(exprs, basis, shifts)
    rows = []
    for n in dict.fromkeys(int(x) for x in lags):
        measured = unit_mass(pc.counts(n), n, pc.lJ)
        dist = np.abs(predictions - measured).max(axis=(1, 2))
        best = int(np.argmin(dist))  # the first of equally near candidates
        rows.append(
            LimitScanRow(
                lag=n,
                matrix=measured,
                result=classify_limit(measured, basis, tol=tol),
                family=names[best],
                family_distance=float(dist[best]),
            )
        )
    return LimitScan(rows=tuple(rows), window=K, tolerance=tol, predicted=predictions)


# ---------------------------------------------------------------------------
# rigidity

@record
class RigidityRow:
    lag: int
    dist_max: float
    dist_l1: float
    boundary: float


@record
class RigidityScan:
    rows: Tuple[RigidityRow, ...]
    vanishing: bool


def rigidity_scan(
    pc: PairCounter,
    lags: Optional[Sequence[int]] = None,
    slack: float = 0.01,
) -> RigidityScan:
    """Distance of D(n) from the lag-0 diagonal pattern, word-normalized.

    Both matrices keep the 1/l_J normalization, so a lag along which the map
    acts as the identity on full blocks differs from D(0) by seam loss alone:
    l1 distance exactly n/l_J. The vanishing flag is set when every scanned
    lag stays within slack of that seam bound, the empirical signature of a
    rigidity sequence. Defaults scan the stage lengths l_j for j0 < j < J;
    an empty lag list is refused, since it would vanish from no evidence.
    """
    if lags is None:
        lags = pc.lengths[pc.j0 : pc.J - 1]
    if not lags:
        raise ValueError("rigidity scan needs at least one lag")
    lJ = pc.lJ
    d0 = pc.counts(0).astype(np.float64) / lJ
    rows = []
    for n in lags:
        diff = pc.counts(n).astype(np.float64) / lJ - d0
        rows.append(
            RigidityRow(
                lag=int(n),
                dist_max=float(np.abs(diff).max()),
                dist_l1=float(np.abs(diff).sum()),
                boundary=abs(int(n)) / lJ,
            )
        )
    vanishing = all(r.dist_l1 <= r.boundary + slack for r in rows)
    return RigidityScan(rows=tuple(rows), vanishing=vanishing)


# ---------------------------------------------------------------------------
# mixing statistics

@record
class MixingReport:
    """Descriptive tail statistics; no verdict is implied.

    self_peak[a] is the largest unit-mass return weight max_n D(n)[a][a]
    over the scanned lags; compare against measures[a], which is what a
    rigid return would approach. pair_floor[a][b] is the smallest ratio
    D(n)[a][b] / (mu_a mu_b); values bounded away from zero are the
    partial-mixing signature.
    """

    lags: Tuple[int, ...]
    measures: np.ndarray
    self_peak: np.ndarray
    pair_floor: np.ndarray


def mixing_diagnostics(pc: PairCounter, lags: Sequence[int]) -> MixingReport:
    if not lags:
        raise ValueError("mixing diagnostics need at least one lag")
    mu = _measure_vector(pc)
    pair = np.outer(mu, mu)
    proper = pair > 0  # zero-measure letters are not proper sets; their ratios stay nan
    peak = None
    floor = None
    for n in lags:
        d = unit_mass(pc.counts(int(n)), int(n), pc.lJ)
        ratio = np.full_like(d, np.nan)
        ratio[proper] = d[proper] / pair[proper]
        peak = np.diag(d).copy() if peak is None else np.maximum(peak, np.diag(d))
        floor = ratio if floor is None else np.fmin(floor, ratio)
    return MixingReport(
        lags=tuple(int(n) for n in lags),
        measures=mu,
        self_peak=peak,
        pair_floor=floor,
    )


# ---------------------------------------------------------------------------
# Cesaro product average

@record
class CesaroReport:
    """Running product-average deviation for the powers p and q.

    curve holds (n, deviation of the partial average over the first n terms)
    at doubling checkpoints; deviation is the final entry. Decay with N is
    evidence toward disjointness of T^p and T^q, never proof.
    """

    p: int
    q: int
    N: int
    deviation: float
    curve: Tuple[Tuple[int, float], ...]


def cesaro_disjointness_probe(pc: PairCounter, p: int, q: int, N: int) -> CesaroReport:
    """Average the 4-index tensor D(pn) x D(qn) over n = 1..N.

    For disjoint powers the average tends to the product of level measures
    on all four indices; the report tracks the max-abs deviation from that
    target at the checkpoints n = 1, 2, 4, ..., N. p = q is allowed as a
    degenerate control case (it averages squared self-correlations and is
    not expected to decay).

    The tensor is held as an S^2 x S^2 matrix. Between checkpoints its sum
    grows by matrix products of the flattened unit tables, stacked
    _STACK_ROWS values of n at a time. That sum only selects the cells
    within a rounding bound of its largest deviation; each of those few is
    summed again in order of n, so every reported bit is that of the
    running sum total += D(pn) x D(qn).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    S, lJ = pc.S, pc.lJ
    if S**4 > DISJOINTNESS_CELL_LIMIT:
        raise ValueError(
            f"alphabet of {S} symbols makes the 4-index tensor too large"
        )
    worst = max(abs(p), abs(q)) * N
    if worst >= lJ:
        raise LagOutOfRange(f"|lag| {worst} >= word length {lJ}")
    mu = _measure_vector(pc)
    pair = np.outer(mu, mu).ravel()
    target = np.multiply.outer(pair, pair)
    unit = pc.counts_many([k * n for n in range(1, N + 1) for k in (p, q)])
    for lag, c in unit.items():  # each distinct lag once
        unit[lag] = unit_mass(c, lag, lJ)
    a = [unit[p * n] for n in range(1, N + 1)]
    b = [unit[q * n] for n in range(1, N + 1)]
    total = np.zeros_like(target)
    curve = []
    n = 0
    while n < N:  # checkpoints n = 1, 2, 4, ..., N
        done, n = n, min(2 * n, N) if n else 1
        for lo, hi in _blocks(done, n):
            total += _stack(a, lo, hi).T @ _stack(b, lo, hi)
        curve.append((n, _running_max_deviation(total, target, a, b, n)))
    return CesaroReport(
        p=p, q=q, N=N, deviation=curve[-1][1], curve=tuple(curve)
    )


def _blocks(lo: int, hi: int):
    """[lo, hi) as runs of at most _STACK_ROWS."""
    return ((k, min(k + _STACK_ROWS, hi)) for k in range(lo, hi, _STACK_ROWS))


def _stack(tables: List[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Tables lo..hi-1 flattened, one per row."""
    return np.array(tables[lo:hi]).reshape(hi - lo, -1)


def _running_max_deviation(
    total: np.ndarray, target: np.ndarray, a: List[np.ndarray], b: List[np.ndarray], n: int
) -> float:
    """max |R / n - target| over the cells, where R[i, j] sums a[k][i] b[k][j]
    over k = 0..n-1 from first to last, and total holds the same sum in any
    order.

    Every product is nonnegative, so a sum in any order lies within
    gamma_n = n u / (1 - n u) of the exact sum, relative (u = 2^-53; a
    nonzero table entry is at least 2^-63, so no product underflows).
    total and R are thus at most 2 gamma_n / (1 - gamma_n) of the exact sum
    apart, and the division and the subtraction round each side once more.
    delta is twice that bound at the largest cell, so a cell whose running
    deviation can be the maximum has a fast deviation within 2 delta of the
    fast maximum. Only those cells are summed again, in order.
    """
    dev = total / n
    dev -= target
    np.abs(dev, out=dev)
    u = 2.0**-53
    gamma = n * u / (1 - n * u)
    delta = 2 * (2 * gamma / (1 - gamma) + 4 * u) * (total.max() / n + target.max())
    cells = np.flatnonzero(dev >= dev.max() - 2 * delta)
    del dev
    rows, cols = np.divmod(cells, len(target))
    run = np.zeros(len(cells))
    width = len(target)  # S^2 candidates a gather: none is wider than the stack it reads
    for lo, hi in _blocks(0, n):
        sa, sb = _stack(a, lo, hi), _stack(b, lo, hi)
        for k in range(0, len(cells), width):
            prods = sa[:, rows[k : k + width]] * sb[:, cols[k : k + width]]
            prods[0] += run[k : k + width]  # carry the sum so far: the fold stays in order
            run[k : k + width] = np.add.accumulate(prods, axis=0)[-1]
    return float(np.abs(run / n - target.ravel()[cells]).max())


# ---------------------------------------------------------------------------
# triple correlations

@record
class TripleRow:
    m: int
    n: int
    window: int
    deviation_max: float


@record
class TripleReport:
    rows: Tuple[TripleRow, ...]


def triple_corr_probe(pc: PairCounter, pairs: Sequence[Tuple[int, int]]) -> TripleReport:
    """Exact triples (W[t], W[t+m], W[t+n]) for each requested (m, n).

    Each row's deviation_max compares the unit-mass frequency of the triple,
    pc.triple_counts(m, n) / window over the l_J - width positions where all
    three fall inside the word, against the product of the level measures on
    all three indices, one slab of at most 2^20 cells along the first index
    at a time (one slab up to S = 101): no S^3 float array is held. Exploratory
    output: nothing here asserts a limit.
    """
    if pc.S**3 > TRIPLE_CELL_LIMIT:
        raise ValueError(
            f"alphabet of {pc.S} symbols makes the triple tensor too large"
        )
    mu = _measure_vector(pc)
    pair = np.outer(mu, mu)
    step = max(1, (1 << 20) // pc.S**2)  # first indices per slab of <= 2^20 cells
    rows = []
    for m, n in pairs:
        m, n = int(m), int(n)
        width = max(0, m, n) - min(0, m, n)
        counts = pc.triple_counts(m, n)
        dev = 0.0
        for a in range(0, pc.S, step):
            slab = unit_mass(counts[a : a + step], width, pc.lJ)
            slab -= np.multiply.outer(pair[a : a + step], mu)  # in place
            np.abs(slab, out=slab)
            dev = max(dev, slab.max())
        rows.append(TripleRow(m=m, n=n, window=pc.lJ - width, deviation_max=float(dev)))
        del counts, slab  # not held while the next row is counted
    return TripleReport(rows=tuple(rows))
