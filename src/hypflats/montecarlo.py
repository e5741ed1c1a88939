"""Monte Carlo sampler for the two random flats and the distance law.

Trials run in blocks of a fixed size that depends on (d, q) only.  Block
j of a run with seed s draws all its trials at once from one Philox
stream keyed by (s, j), in a fixed order: the frames of the central
subspaces, the normal frames of the random flats, their offset
directions, then their offset radii.  Every block is drawn whole and the
last one is cut to the requested trial count, and threads only decide
which block runs where.  So a run's output is bit-identical for any
thread count, and the first N trials of a run equal a run of N trials.
The one-flat functions (sample_central_subspace, HittingFlatSampler.sample
and _sample_radius) are the n = 1 case of the same batched draws.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import _log_cosh, log_radial_mass
from .errors import ConstructionError, DomainError
from .klein import AffineFlat, intersect_batch
# re-exported: perfbench's traced run looks it up on this module
from .klein import intersect_with_central_subspace  # noqa: F401
from .linalg import Basis, require_orthonormal
from .special import Curvature, FlatConfig, klein_radius

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
_BLOCK_BYTES = 4 << 20
_QR_ATTEMPTS = 8
_REJECTION_ROUNDS = 10_000


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


def _block_size(d, q):
    """Trials per block: 1024, halved while a block's d x q frames exceed 4 MB."""
    size = _BLOCK_TRIALS
    while size > 1 and size * d * q * 8 > _BLOCK_BYTES:
        size //= 2
    return size


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
    the radial mass log_radial_mass(d, m, v) over the envelope's mass.
    Both envelopes give the exact law, so the choice, which depends on
    (cfg, K) only, changes the speed and never the law.

    proposals/accepted count rejection traffic for diagnostics; the
    Monte Carlo runs add each block's counts after their workers finish.
    """

    def __init__(self, cfg: FlatConfig, K: Curvature):
        K.require_hyperbolic()
        self.cfg = cfg
        self.K = K
        self.m = cfg.q - cfg.gamma
        self.R = klein_radius(K, cfg.u)
        self.proposals = 0
        self.accepted = 0
        self._count_lock = threading.Lock()
        d, m = cfg.d, self.m
        v = self._v = K.scale * cfg.u
        self._tanh_v = math.tanh(v)
        log_tanh_v = math.log(self._tanh_v)
        log_cosh_v = float(_log_cosh(v))
        # chord of (d-1) log cosh on [0, v]: slope and the drop e^(-lam v) - 1
        self._lam = (d - 1) * log_cosh_v / v
        self._drop = math.expm1(-(d - 1) * log_cosh_v)
        log_mass = log_radial_mass(d, m, v)
        log_power = m * log_tanh_v - math.log(m) + (d + 1) * log_cosh_v
        log_envelopes = {"power": log_power}
        if self._drop < 0.0:  # else (d-1) log cosh v is lost to rounding (v below ~1e-8)
            log_envelopes["exponential"] = ((m - 1) * log_tanh_v + (d - 1) * log_cosh_v
                                            + math.log(-self._drop) - math.log(self._lam))
        self._envelope = min(log_envelopes, key=log_envelopes.get)
        self._acceptance = math.exp(log_mass - log_envelopes[self._envelope])

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
        log_accept = (d - 1) * _log_cosh(rho) - self._lam * rho
        if m > 1:
            log_accept = log_accept + (m - 1) * (np.log(np.tanh(rho)) - math.log(top))
        return np.tanh(rho), log_accept

    def _count(self, proposals, accepted):
        with self._count_lock:
            self.proposals += proposals
            self.accepted += accepted

    def _draw_radii(self, rng, n):
        """n offset radii and the (proposals, accepted) spent on them.

        Rejection runs in rounds: each row still pending draws a (proposal,
        acceptance) pair of uniforms from rng, until every row is accepted.
        """
        radii = np.empty(n)
        todo = np.arange(n)
        proposals = 0
        for _ in range(_REJECTION_ROUNDS):
            u = rng.random((todo.size, 2))
            r, log_accept = self._propose(u[:, 0])
            keep = np.log(u[:, 1]) < log_accept
            radii[todo[keep]] = r[keep] / self.K.scale
            proposals += todo.size
            todo = todo[~keep]
            if todo.size == 0:
                return radii, proposals, n
        raise ConstructionError(
            f"{todo.size} radii still rejected after {_REJECTION_ROUNDS} rounds"
        )

    def _sample_radius(self, rng):
        radii, proposals, accepted = self._draw_radii(rng, 1)
        self._count(proposals, accepted)
        return float(radii[0])

    def _draw(self, rng, n):
        """n flats as normal frames (n, d, m) and offsets (n, d), plus the
        rejection counts; draws the frames, the directions, then the radii."""
        W = _haar_frames(self.cfg.d, self.m, rng, n)
        g = rng.standard_normal((n, self.m))
        radii, proposals, accepted = self._draw_radii(rng, n)
        unit = g / np.linalg.norm(g, axis=1, keepdims=True)
        offsets = (W @ (radii[:, None] * unit)[:, :, None])[:, :, 0]
        return W, offsets, proposals, accepted

    def sample(self, rng) -> AffineFlat:
        W, offsets, proposals, accepted = self._draw(rng, 1)
        self._count(proposals, accepted)
        return AffineFlat(Basis(W[0]), offsets[0])


@lru_cache(maxsize=32)
def _get_sampler(cfg: FlatConfig, K: Curvature) -> HittingFlatSampler:
    return HittingFlatSampler(cfg, K)


def sample_hitting_flat(cfg: FlatConfig, K: Curvature, rng) -> AffineFlat:
    """One flat from the ball-hitting invariant law (see HittingFlatSampler)."""
    return _get_sampler(cfg, K).sample(rng)


def _run_trials(cfg, K, trials, seed, threads=None):
    """Hyperbolic intersection distance per trial; +inf marks a miss."""
    if trials < 1:
        raise DomainError("need trials >= 1")
    seed = _check_seed(seed)
    sampler = _get_sampler(cfg, K)
    size = _block_size(cfg.d, cfg.q)

    def run_block(block):
        rng = _trial_rng(seed, block)
        L = _haar_frames(cfg.d, cfg.q, rng, size)
        W, offsets, proposals, accepted = sampler._draw(rng, size)
        _, hyper = intersect_batch(W, offsets, L, K)
        return hyper, proposals, accepted

    blocks = range(-(-trials // size))
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

    cdf_values must be the model CDF evaluated at the sorted samples.
    """
    F = np.asarray(cdf_values, dtype=float)
    n = F.size
    if n == 0:
        raise DomainError("need at least one sample")
    if np.any(np.diff(np.asarray(samples, dtype=float)) < 0):
        raise DomainError("samples must be sorted ascending")
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - F), np.max(F - (steps - 1.0 / n))))
