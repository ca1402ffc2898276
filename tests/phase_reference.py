"""The degree <= 1 direction sampler as it was before its four code paths
became one elementwise formula: the oracle that ``phase_sample_batch`` must
match bit for bit, in directions, weights and the generator's stream.

The isotropic branch and the three helpers below are kept verbatim.
"""

import numpy as np


def reference_phase_sample(pf, mu_prime, rng):
    """Draws from a kernel of degree <= 1, one per incoming direction."""
    mu_prime = np.asarray(mu_prime, dtype=float)
    if pf.degree == 0:
        return rng.uniform(-1.0, 1.0, size=mu_prime.shape), np.ones(mu_prime.shape)
    if pf.degree == 1:
        return _sample_linear(pf.beta[1], mu_prime, rng.random(mu_prime.shape))
    raise ValueError("the reference covers kernels of degree <= 1 only")


def _invert_quadratic_cdf(a, target):
    """Root of a mu^2 + mu/2 + (1/2 - a) = target on the increasing branch.

    Written in the c/q form that stays stable as a -> 0, where the
    quadratic degenerates to the uniform inverse 2*target - 1.
    """
    c = 0.5 - a - target
    disc = np.maximum(0.25 - 4.0 * a * c, 0.0)
    q = -0.5 * (0.5 + np.sqrt(disc))
    # increasing-branch root: c/q is the stable form of (-b + sqrt(D))/(2a)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.where(np.abs(a) > 1e-12, c / np.where(q != 0, q, 1.0), 2.0 * target - 1.0)
    return np.clip(root, -1.0, 1.0)


def _linear_cdf(a, mu):
    """Signed CDF F(mu) = (mu+1)/2 + a (mu^2 - 1) of the linear kernel."""
    return 0.5 * (mu + 1.0) + a * (mu * mu - 1.0)


def _sample_linear(beta1, mu_prime_arr, u):
    """Inverse-CDF draws from linear kernel columns, vectorized.

    ``mu_prime_arr`` and ``u`` have matching shapes.  Columns with
    |beta1 mu'| <= 1 are true densities and get weight 1; signed columns
    are sampled from |p| piecewise with weight sign(p) * integral |p|.
    """
    a = beta1 * mu_prime_arr / 4.0
    mu = np.empty(a.shape)
    w = np.ones(a.shape)
    plain = np.abs(beta1 * mu_prime_arr) <= 1.0
    if np.any(plain):
        mu[plain] = _invert_quadratic_cdf(a[plain], u[plain])
    signed = ~plain
    if not np.any(signed):
        return mu, w
    a_s = a[signed]
    u_s = u[signed]
    mu_zero = -1.0 / (beta1 * mu_prime_arr[signed])
    f_zero = _linear_cdf(a_s, mu_zero)
    mu_sg = np.empty(a_s.shape)
    w_sg = np.empty(a_s.shape)
    pos = a_s > 0
    if np.any(pos):
        # negative lobe on [-1, mu_zero]: |p|-CDF runs -F there, then
        # resumes the increasing branch shifted by twice the lobe mass
        lobe = -f_zero[pos]
        z = 1.0 + 2.0 * lobe
        us = u_s[pos] * z
        in_lobe = us < lobe
        vals = np.empty(us.shape)
        vals[in_lobe] = _invert_quadratic_decreasing(a_s[pos][in_lobe], -us[in_lobe])
        vals[~in_lobe] = _invert_quadratic_cdf(
            a_s[pos][~in_lobe], us[~in_lobe] - 2.0 * lobe[~in_lobe]
        )
        mu_sg[pos] = vals
        w_sg[pos] = np.where(in_lobe, -z, z)
    neg = ~pos
    if np.any(neg):
        # mirrored case: lobe at the right end, F overshoots one at mu_zero
        lobe = f_zero[neg] - 1.0
        z = 1.0 + 2.0 * lobe
        us = u_s[neg] * z
        in_main = us <= f_zero[neg]
        vals = np.empty(us.shape)
        vals[in_main] = _invert_quadratic_cdf(a_s[neg][in_main], us[in_main])
        vals[~in_main] = _invert_quadratic_decreasing(
            a_s[neg][~in_main], 2.0 * f_zero[neg][~in_main] - us[~in_main]
        )
        mu_sg[neg] = vals
        w_sg[neg] = np.where(in_main, z, -z)
    mu[signed] = mu_sg
    w[signed] = w_sg
    return mu, w


def _invert_quadratic_decreasing(a, target):
    """Root of F(mu) = target on the decreasing branch of the signed CDF."""
    c = 0.5 - a - target
    disc = np.maximum(0.25 - 4.0 * a * c, 0.0)
    q = -0.5 * (0.5 + np.sqrt(disc))
    root = q / a
    return np.clip(root, -1.0, 1.0)
