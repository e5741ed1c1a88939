"""Monte Carlo sampler for the two random flats and the distance law.

The law of the intersection distance is rotation-invariant: L is a
uniform q-flat through the origin o, and E is independent of L with an
O(d)-invariant law.  So L can be fixed to the first q coordinate axes,
and with m = q - gamma a trial's offset-to-distance factor has the law of
|T_A^-1 Lc xi|, where A = T_A T_A^T ~ Wishart_m(q), B ~ Wishart_m(d - q)
is independent of A, Lc Lc^T = A + B and xi is uniform on the unit sphere
of R^m (see _block_distances).  Its square is 1 + y^T B y with
y = T_A^-T xi, and two steps make that a chi-square ratio.  First, B is
independent of y, so y^T B y = |y|^2 X with X ~ chi2_(d-q) independent of
y.  Second, |y|^2 = xi^T A^-1 xi ~ 1 / Y with Y ~ chi2_(gamma+1).  So the
factor is sqrt(1 + X / Y) at every m, also when d - q < m, and a trial
costs two chi-square draws and a radius whatever d and m are.  This is
the incomplete beta I(a', b), a' = (gamma+1)/2, b = (d-q)/2, through
which a hit depends on the offset radius in the analytic p.

Trials run in blocks of _BLOCK_TRIALS.  Block j of a run with seed s
draws all its trials at once from one Philox stream keyed by (s, j), in a
fixed order: one chi-square with gamma + 1 degrees of freedom per trial,
then one with d - q per trial, then the offset radii.  Every block is
drawn whole and the last one is cut to the requested trial count, and
threads only decide which block runs where.  So a run's output is
bit-identical for any thread count, and the first N trials of a run equal
a run of N trials.  The one-flat functions (sample_central_subspace,
HittingFlatSampler.sample) draw full Haar frames in R^d.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import _unit_law
from .errors import ConstructionError, DomainError
from .klein import _BOUNDARY_TOL, AffineFlat
# re-exported: perfbench's traced run looks it up on this module
from .klein import intersect_with_central_subspace  # noqa: F401
from .linalg import Basis, require_orthonormal
from .special import Curvature, FlatConfig

__all__ = [
    "SimEstimate",
    "DistributionSummary",
    "sample_central_subspace",
    "sample_hitting_flat",
    "HittingFlatSampler",
    "estimate_intersection_probability",
    "simulate_distance_distribution",
    "ks_statistic",
]

_BLOCK_TRIALS = 1024
_QR_ATTEMPTS = 8
_REJECTION_ROUNDS = 10_000
# most trials of one run: memory grows with them, and one 10^6-trial
# simulate at (3, 2, 1, u=1), p about 0.84, peaks near 260 MB, so a run at
# the cap may take a few GB
MAX_TRIALS = 10_000_000
# most worker threads of one run, more than the cores of most hosts; the
# blocks, not the threads, fix the output
MAX_THREADS = 256


def _log_cosh(x):
    return x + np.log1p(np.exp(-2.0 * x)) - math.log(2.0)


@dataclass(frozen=True)
class SimEstimate:
    trials: int
    hits: int
    p_hat: float
    std_err: float
    seed: int

    @classmethod
    def from_counts(cls, trials, hits, seed):
        p = hits / trials
        return cls(trials, hits, p, math.sqrt(p * (1.0 - p) / trials), seed)


@dataclass(frozen=True)
class DistributionSummary:
    """Empirical distance law: sorted finite distances plus the miss count."""

    finite_samples: np.ndarray
    empty_count: int
    trials: int
    seed: int

    def __post_init__(self):
        if len(self.finite_samples) + self.empty_count != self.trials:
            raise DomainError("sample count and empty count must sum to trials")


def _check_seed(seed):
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise DomainError("seed must be an unsigned 64-bit integer")
    return seed


def _trial_rng(seed, block):
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _haar_frames(d, q, rng, n):
    """n Haar-distributed orthonormal d x q frames, shape (n, d, q).

    QR of Gaussian matrices with the R-diagonal signs fixed.  Degenerate
    draws (never seen in practice) are redrawn from rng, at most
    _QR_ATTEMPTS times in all.
    """
    if not 1 <= q <= d - 1:
        raise DomainError(f"need 1 <= q <= d-1, got q={q}, d={d}")
    frames, R = np.linalg.qr(rng.standard_normal((n, d, q)))
    diag = np.diagonal(R, axis1=1, axis2=2).copy()
    todo = np.arange(n)
    for attempt in range(_QR_ATTEMPTS):
        mag = np.abs(diag[todo])
        todo = todo[np.min(mag, axis=1) <= 1e-10 * np.max(mag, axis=1)]
        if todo.size == 0:
            frames *= np.sign(diag)[:, None, :]
            require_orthonormal(frames)
            return frames
        if attempt + 1 < _QR_ATTEMPTS:
            frames[todo], R = np.linalg.qr(rng.standard_normal((todo.size, d, q)))
            diag[todo] = np.diagonal(R, axis1=1, axis2=2)
    raise ConstructionError(
        f"{todo.size} Gaussian {d} x {q} draws stayed rank deficient "
        f"after {_QR_ATTEMPTS} attempts"
    )


def sample_central_subspace(d: int, q: int, rng) -> Basis:
    """Haar-distributed q-dimensional subspace of R^d (one frame of _haar_frames)."""
    return Basis(_haar_frames(d, q, rng, 1)[0])


class HittingFlatSampler:
    """Samples flats of dimension d - q + gamma conditioned to hit the ball.

    The normal space is Haar and the offset direction uniform on its unit
    sphere.  With m = q - gamma and v = sqrt(-K) u, the offset has Klein
    radius r = tanh(rho) / sqrt(-K), and rho has the invariant law
    sinh^(m-1) rho cosh^(d-m) rho on [0, v].  Radii are drawn by rejection
    against one of two envelopes, each at least the law everywhere:

    - "power": r^(m-1) in Klein r, where the law is
      r^(m-1) (1 + K r^2)^(-(d+1)/2); equal to the law at r = R(u);
    - "exponential": tanh^(m-1)(v) exp(lam rho) in rho, with
      lam = (d-1) log cosh(v) / v the chord of log cosh on [0, v], drawn
      by truncated-exponential inversion; equal to the law at rho = v.

    The sampler takes the envelope with the larger a priori acceptance,
    the radial mass over the envelope's mass.  v, tanh v, log tanh v,
    log cosh v and the radial mass are the configuration's unit-curvature
    law's (analytic._unit_law), which checks v and is shared with the
    configuration's analytic functions.
    Both envelopes give the exact law, so the choice, which depends on
    (cfg, K) only, changes the speed and never the law.

    proposals/accepted count rejection traffic for diagnostics; the
    Monte Carlo runs add each block's counts after their workers finish.
    """

    def __init__(self, cfg: FlatConfig, K: Curvature):
        law = _unit_law(cfg, K)
        self.cfg = cfg
        self.K = K
        self.m = law.m
        self.R = law.tanh_v / K.scale  # the Klein radius of the ball
        self.proposals = 0
        self.accepted = 0
        self._count_lock = threading.Lock()
        d, m, log_tanh_v, log_cosh_v = cfg.d, self.m, law.log_tanh_v, law.log_cosh_v
        self._v, self._tanh_v = law.v, law.tanh_v
        # chord of (d-1) log cosh on [0, v]: slope and the drop e^(-lam v) - 1
        self._lam = (d - 1) * log_cosh_v / law.v
        self._drop = math.expm1(-(d - 1) * log_cosh_v)
        log_power = m * log_tanh_v - math.log(m) + (d + 1) * log_cosh_v
        log_envelopes = {"power": log_power}
        if self._drop < 0.0:  # else (d-1) log cosh v is lost to rounding (v below ~1e-8)
            log_envelopes["exponential"] = ((m - 1) * log_tanh_v + (d - 1) * log_cosh_v
                                            + math.log(-self._drop) - math.log(self._lam))
        self._envelope = min(log_envelopes, key=log_envelopes.get)
        self._acceptance = math.exp(law.log_R - log_envelopes[self._envelope])

    @property
    def envelope(self) -> str:
        """"power" or "exponential": the rejection envelope in use."""
        return self._envelope

    @property
    def acceptance(self) -> float:
        """Exact a priori acceptance of the envelope in use."""
        return self._acceptance

    def _propose(self, u):
        """Reduced Klein radii tanh(rho) for proposal uniforms u, and the
        log of their acceptance (law over envelope, at most 0)."""
        d, m, top = self.cfg.d, self.m, self._tanh_v
        if self._envelope == "power":
            r = top * u ** (1.0 / m)
            return r, -0.5 * (d + 1) * (np.log1p(-r * r) - math.log1p(-top * top))
        rho = self._v + np.log1p((1.0 - u) * self._drop) / self._lam
        r = np.tanh(rho)
        log_accept = (d - 1) * _log_cosh(rho) - self._lam * rho
        if m > 1:
            log_accept = log_accept + (m - 1) * (np.log(r) - math.log(top))
        return r, log_accept

    def _count(self, proposals, accepted):
        with self._count_lock:
            self.proposals += proposals
            self.accepted += accepted

    def _draw_radii(self, rng, n):
        """n offset radii and the (proposals, accepted) spent on them.

        The radii are the first n accepted proposals of one sequence of
        (proposal, acceptance) uniform pairs from rng, in order.  The pairs
        are drawn in rounds of ceil(1.1 pending / acceptance) + 8, so a block
        rarely needs a second round; proposals counts the pairs up to the
        n-th acceptance.
        """
        parts = []
        pending, proposals = n, 0
        for _ in range(_REJECTION_ROUNDS):
            size = math.ceil(1.1 * pending / self._acceptance) + 8
            u = rng.random((size, 2))
            r, log_accept = self._propose(u[:, 0])
            keep = np.flatnonzero(np.log(u[:, 1]) < log_accept)
            if keep.size >= pending:
                parts.append(r[keep[:pending]])
                proposals += int(keep[pending - 1]) + 1
                return np.concatenate(parts) / self.K.scale, proposals, n
            parts.append(r[keep])
            pending -= keep.size
            proposals += size
        raise ConstructionError(
            f"{pending} radii still rejected after {_REJECTION_ROUNDS} rounds"
        )

    def _sample_radius(self, rng):
        radii, proposals, accepted = self._draw_radii(rng, 1)
        self._count(proposals, accepted)
        return float(radii[0])

    def sample(self, rng) -> AffineFlat:
        """One flat; draws its normal frame, offset direction, then radius."""
        W = _haar_frames(self.cfg.d, self.m, rng, 1)[0]
        g = rng.standard_normal(self.m)
        radius = self._sample_radius(rng)
        return AffineFlat(Basis(W), W @ (radius * g / np.linalg.norm(g)))


@lru_cache(maxsize=32)
def _get_sampler(cfg: FlatConfig, K: Curvature) -> HittingFlatSampler:
    return HittingFlatSampler(cfg, K)


def sample_hitting_flat(cfg: FlatConfig, K: Curvature, rng) -> AffineFlat:
    """One flat from the ball-hitting invariant law (see HittingFlatSampler)."""
    return _get_sampler(cfg, K).sample(rng)


def _block_distances(sampler, rng, n):
    """Hyperbolic distances of n trials (+inf marks a miss), and the
    rejection counts of their radii.

    Let W = G R^-1 be E's normal frame, with G a d x m Gaussian and R the
    upper triangular factor of its QR with a positive diagonal: W is Haar.
    E is {y : W^T y = r xi} with xi uniform on the unit sphere of R^m, and
    L is the span of the first q axes.  The point of E and L closest to
    the origin is the minimum-norm solution of M c = r xi, with M the
    first q columns of W^T, and its squared norm is r^2 xi^T (M M^T)^-1 xi.
    Split G into its first q rows G1 and the rest G2.  Then
    M M^T = R^-T A R^-1 with A = G1^T G1 ~ Wishart_m(q), and
    R^T R = A + B with B = G2^T G2 independent of A.  With A = T_A T_A^T
    and Lc = R^T, the norm is r |T_A^-1 Lc xi|, and
    (T_A^-1 Lc)(T_A^-1 Lc)^T = I + T_A^-1 B T_A^-T.  So
    T_A^-1 Lc = (I + T_A^-1 B T_A^-T)^(1/2) O with O orthogonal.  O depends
    on (A, B) only and xi is uniform on the sphere and independent of
    them, so O xi has the law of xi, and the norm has the law of
    r sqrt(1 + y^T B y) with y = T_A^-T xi.

    Two steps make that scalar.  First, y^T B y = |G2 y|^2, and G2 y is
    N(0, |y|^2 I) in R^(d-q) given y, so y^T B y = |y|^2 X with
    X ~ chi2_(d-q) independent of y.  Second, |y|^2 = xi^T A^-1 xi, and
    for a unit vector independent of A ~ Wishart_m(q) that is 1 / Y with
    Y ~ chi2_(q-m+1) = chi2_(gamma+1).  So the norm has the law of
    r sqrt(1 + X / Y): two chi-square draws per trial, at every m and for
    any d - q >= 1.  A has q >= m degrees of freedom, so it is positive
    definite: E and L always meet in R^d, and a trial misses when that
    closest point is not inside the open Klein ball.
    """
    cfg, K = sampler.cfg, sampler.K
    Y = rng.chisquare(cfg.gamma + 1, n)
    X = rng.chisquare(cfg.d - cfg.q, n)
    radii, proposals, accepted = sampler._draw_radii(rng, n)
    norm = radii * np.sqrt(1.0 + X / Y)
    # the Klein ball is open; boundary grazing counts as a miss
    hyper = np.full(n, np.inf)
    meets = norm < K.ball_radius * (1.0 - _BOUNDARY_TOL)
    hyper[meets] = np.arctanh(K.scale * norm[meets]) / K.scale
    return hyper, proposals, accepted


def _run_trials(cfg, K, trials, seed, threads=None):
    """Hyperbolic intersection distance per trial; +inf marks a miss."""
    if not 1 <= trials <= MAX_TRIALS:
        raise DomainError(f"need 1 <= trials <= {MAX_TRIALS}, got {trials}")
    if threads is not None and not 1 <= threads <= MAX_THREADS:
        raise DomainError(f"need 1 <= threads <= {MAX_THREADS}, got {threads}")
    seed = _check_seed(seed)
    sampler = _get_sampler(cfg, K)

    def run_block(block):
        return _block_distances(sampler, _trial_rng(seed, block), _BLOCK_TRIALS)

    blocks = range(-(-trials // _BLOCK_TRIALS))
    if threads is not None and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_block, blocks))
    else:
        parts = [run_block(b) for b in blocks]
    sampler._count(sum(p[1] for p in parts), sum(p[2] for p in parts))
    return np.concatenate([p[0] for p in parts])[:trials]


def estimate_intersection_probability(cfg: FlatConfig, K: Curvature,
                                      trials: int, seed: int,
                                      threads: int | None = None) -> SimEstimate:
    """Binomial estimate of the intersection probability."""
    distances = _run_trials(cfg, K, trials, seed, threads)
    hits = int(np.count_nonzero(np.isfinite(distances)))
    return SimEstimate.from_counts(trials, hits, _check_seed(seed))


def simulate_distance_distribution(cfg: FlatConfig, K: Curvature,
                                   trials: int, seed: int,
                                   threads: int | None = None) -> DistributionSummary:
    """Empirical law of the intersection distance (misses counted separately)."""
    distances = _run_trials(cfg, K, trials, seed, threads)
    finite = np.sort(distances[np.isfinite(distances)])
    return DistributionSummary(finite, int(distances.size - finite.size),
                               int(trials), _check_seed(seed))


def ks_statistic(samples, cdf_values) -> float:
    """One-sample Kolmogorov-Smirnov statistic.

    cdf_values must be the model CDF evaluated at the sorted samples, one
    value per sample; a length mismatch or a NaN value raises DomainError.
    """
    F = np.asarray(cdf_values, dtype=float)
    x = np.asarray(samples, dtype=float)
    n = F.size
    if n == 0:
        raise DomainError("need at least one sample")
    if x.size != n:
        raise DomainError(f"{x.size} samples but {n} CDF values")
    if np.isnan(F).any():
        raise DomainError("a CDF value is NaN")
    if np.any(np.diff(x) < 0):
        raise DomainError("samples must be sorted ascending")
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - F), np.max(F - (steps - 1.0 / n))))
