"""Benchmark scenario generators, exact log-density-ratio oracles, and the
symmetrized squared-error metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TwoSampleDataset


def _sym2(v11: float, v12: float, v22: float) -> np.ndarray:
    return np.array([[v11, v12], [v12, v22]])


def _disperse(cov: np.ndarray, delta_diag: np.ndarray) -> np.ndarray:
    # Symmetric per-coordinate dispersion scaling: D^(1/2) Sigma D^(1/2).
    s = np.sqrt(delta_diag)
    return cov * np.outer(s, s)


class GaussianMixture:
    """Finite Gaussian mixture with exact log-density and seeded sampling."""

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64)
        self.covs = np.asarray(covs, dtype=np.float64)
        if not np.isclose(self.weights.sum(), 1.0):
            raise ValueError("mixture weights must sum to 1")
        d = self.means.shape[1]
        self._chols = []
        self._log_norms = []
        for cov in self.covs:
            if not np.allclose(cov, cov.T):
                raise ValueError("covariance must be symmetric")
            L = np.linalg.cholesky(cov)  # raises if not positive definite
            self._chols.append(L)
            self._log_norms.append(
                -0.5 * d * np.log(2.0 * np.pi) - np.sum(np.log(np.diag(L)))
            )

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def logpdf(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        comp = np.empty((len(self.weights), X.shape[0]))
        for k, (mu, L, ln) in enumerate(zip(self.means, self._chols, self._log_norms)):
            y = np.linalg.solve(L, (X - mu).T)
            comp[k] = np.log(self.weights[k]) + ln - 0.5 * np.sum(y * y, axis=0)
        m = comp.max(axis=0)
        return m + np.log(np.sum(np.exp(comp - m), axis=0))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for k, (mu, L) in enumerate(zip(self.means, self._chols)):
            idx = np.nonzero(comp == k)[0]
            if idx.size:
                z = rng.standard_normal((idx.size, self.dim))
                out[idx] = mu + z @ L.T
        return out


@dataclass
class Scenario:
    """A pair of sampling distributions with a known density ratio.

    For the 20-dimensional scenarios the observed mixtures are the latent
    mixtures pushed through x = loading @ z + noise; sampling goes through
    the latent route, densities through the closed-form observed mixture.
    """

    name: str
    p: GaussianMixture
    q: GaussianMixture
    latent_p: GaussianMixture | None = None
    latent_q: GaussianMixture | None = None
    loading: np.ndarray | None = None
    noise_scale: float = 0.1

    @property
    def dim(self) -> int:
        return self.p.dim


SCENARIO_NAMES = (
    "GlobalShift2D",
    "LocalShift2D",
    "LocalDispersion2D",
    "LatentLocation20D",
    "LatentDispersion20D",
)

# Five-component mixture parameters for the 2D local scenarios.
LOCAL_SHIFT_MEANS = np.array(
    [(9.0, 9.9), (-2.5, 1.4), (-2.3, -9.7), (3.4, 5.9), (5.8, -9.5)]
)
LOCAL_SHIFT_COV_TRIPLETS = (
    (2.9, 0.5, 1.1), (1.2, -0.6, 2.8), (2.3, -1.0, 1.7), (1.1, -0.4, 2.9), (3.0, 0.2, 1.0)
)
LOCAL_SHIFT_DELTA = np.array([0.0, 1.0])

LOCAL_DISPERSION_MEANS = np.array(
    [(1.9, -7.2), (-5.7, 5.3), (-2.3, -1.5), (7.5, -3.1), (3.1, 9.5)]
)
LOCAL_DISPERSION_COV_TRIPLETS = (
    (1.0, -0.4, 0.8), (1.3, 0.7, 2.7), (1.0, 0.0, 3.0), (2.9, 0.0, 1.1), (2.4, -0.9, 1.6)
)
LOCAL_DISPERSION_DELTA = np.array([0.36, 1.0])

LATENT_LOCATION_MU1 = np.array([-0.5, 0.0, 0.0, 0.0])
LATENT_SHIFT = np.array([1.0, 0.0, 0.0, 0.0])
LATENT_DISPERSION_DELTA = np.array([0.5, 1.0, 1.0, 1.0])
LATENT_WEIGHTS = np.array([0.8, 0.2])
AMBIENT_DIM = 20
LATENT_DIM = 4
NOISE_SCALE = 0.1


def random_orthonormal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Gram-Schmidt orthonormalization of i.i.d. standard-normal columns."""
    a = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def _latent_scenario(name: str, mu1: np.ndarray, mu1_q: np.ndarray,
                     cov1_q: np.ndarray, seed: int) -> Scenario:
    lam = random_orthonormal(AMBIENT_DIM, LATENT_DIM, np.random.default_rng(seed))
    mu2 = np.zeros(LATENT_DIM)
    cov1 = np.eye(LATENT_DIM)
    cov2 = 4.0 * np.eye(LATENT_DIM)
    latent_p = GaussianMixture(LATENT_WEIGHTS, [mu1, mu2], [cov1, cov2])
    latent_q = GaussianMixture(LATENT_WEIGHTS, [mu1_q, mu2], [cov1_q, cov2])
    noise_cov = NOISE_SCALE**2 * np.eye(AMBIENT_DIM)

    def push(mix):
        means = [lam @ m for m in mix.means]
        covs = [lam @ c @ lam.T + noise_cov for c in mix.covs]
        return GaussianMixture(mix.weights, means, covs)

    return Scenario(name, push(latent_p), push(latent_q),
                    latent_p, latent_q, lam, NOISE_SCALE)


def make_scenario(name: str, seed: int = 0) -> Scenario:
    """Build a named benchmark scenario; seed only affects the random
    loading matrix of the 20D scenarios."""
    if name == "GlobalShift2D":
        eye = np.eye(2)
        p = GaussianMixture([1.0], [(-0.5, -0.5)], [eye])
        q = GaussianMixture([1.0], [(0.5, 0.5)], [eye])
        return Scenario(name, p, q)
    if name == "LocalShift2D":
        covs = [_sym2(*t) for t in LOCAL_SHIFT_COV_TRIPLETS]
        w = np.full(5, 0.2)
        p = GaussianMixture(w, LOCAL_SHIFT_MEANS, covs)
        means_q = LOCAL_SHIFT_MEANS.copy()
        means_q[0] += LOCAL_SHIFT_DELTA
        q = GaussianMixture(w, means_q, covs)
        return Scenario(name, p, q)
    if name == "LocalDispersion2D":
        covs = [_sym2(*t) for t in LOCAL_DISPERSION_COV_TRIPLETS]
        w = np.full(5, 0.2)
        p = GaussianMixture(w, LOCAL_DISPERSION_MEANS, covs)
        covs_q = [c.copy() for c in covs]
        covs_q[0] = _disperse(covs_q[0], LOCAL_DISPERSION_DELTA)
        q = GaussianMixture(w, LOCAL_DISPERSION_MEANS, covs_q)
        return Scenario(name, p, q)
    if name == "LatentLocation20D":
        return _latent_scenario(
            name, LATENT_LOCATION_MU1, LATENT_LOCATION_MU1 + LATENT_SHIFT,
            np.eye(LATENT_DIM), seed,
        )
    if name == "LatentDispersion20D":
        mu1 = np.zeros(LATENT_DIM)
        cov1_q = _disperse(np.eye(LATENT_DIM), LATENT_DISPERSION_DELTA)
        return _latent_scenario(name, mu1, mu1, cov1_q, seed)
    raise ValueError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")


def generate(scenario: Scenario, n0: int, n1: int, seed: int) -> TwoSampleDataset:
    """Draw n0 + n1 i.i.d. observations from the scenario's two distributions."""
    rng = np.random.default_rng(seed)
    if scenario.loading is None:
        s0 = scenario.p.sample(n0, rng)
        s1 = scenario.q.sample(n1, rng)
    else:
        z0 = scenario.latent_p.sample(n0, rng)
        z1 = scenario.latent_q.sample(n1, rng)
        lam = scenario.loading
        s0 = z0 @ lam.T + scenario.noise_scale * rng.standard_normal((n0, AMBIENT_DIM))
        s1 = z1 @ lam.T + scenario.noise_scale * rng.standard_normal((n1, AMBIENT_DIM))
    return TwoSampleDataset(s0, s1)


def true_log_ratio(scenario: Scenario, points: np.ndarray) -> np.ndarray:
    """log p(x) - log q(x), evaluated analytically."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return scenario.p.logpdf(points) - scenario.q.logpdf(points)


def symmetrized_mse(true_lr: np.ndarray, est_lr: np.ndarray,
                    n0: int, n1: int) -> float:
    """Squared log-ratio error averaged over both samples with weights
    1/(2 n0) and 1/(2 n1); rows 0..n0-1 belong to group 0."""
    true_lr = np.asarray(true_lr, dtype=np.float64).ravel()
    est_lr = np.asarray(est_lr, dtype=np.float64).ravel()
    if true_lr.size != est_lr.size:
        raise ValueError("true and estimated log-ratio vectors differ in length")
    if true_lr.size != n0 + n1:
        raise ValueError(f"expected {n0 + n1} values, got {true_lr.size}")
    err2 = (true_lr - est_lr) ** 2
    return float(err2[:n0].sum() / (2 * n0) + err2[n0:].sum() / (2 * n1))
