"""Normalized-count martingale: tail variances and central-limit experiments.

M_N = g_N * W_N is a positive martingale with E[M_N] = w0.  Orthogonal
increments give exact tail variances from first and second moments alone,
and the scaled tail sum M_N - M_far satisfies a central limit theorem once
standardized by the conditional tail variance.

Two standardizations are implemented:
 - "conditional": divides by the exact conditional tail standard deviation
   given the state at time N (a closed form in W_N); the result has mean 0
   and variance 1 exactly in expectation, so only skewness and kurtosis
   carry finite-size error.
 - "plugin": multiplies by N^(Lambda/2) * beta / sqrt(M_far) with
   beta = sqrt(Lambda)/(sigma*sqrt(kappa)).  Because the far horizon is
   finite, this statistic keeps an attenuation 1 - (N/N_far)^Lambda in its
   variance, and because beta is calibrated to an increment variance that
   overshoots the true one by sigma/Lambda (see tail_variance_asymptotic),
   its asymptotic variance carries an extra factor Lambda/sigma.  Both are
   reported so the plugin route stays quantitatively predictable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import (
    _products,
    asymptotic_constants,
    g_factor,
    limit_Cs,
)
from .rng import fsum_rows, run_blocks
from .urns import UrnSpec, _check_sizes, _checkpoint_list, simulate_white_batch

__all__ = [
    "mean_square",
    "limit_mean_square",
    "tail_variance",
    "tail_variance_asymptotic",
    "StatMoments",
    "TailSumReport",
    "tail_sum_experiment",
    "lil_diagnostic",
]


def mean_square(spec: UrnSpec, K: int, mode: str = "float"):
    """E[M_K^2] = g_K^2 * E[W_K^2] = sigma^2 * (c(c+1) P_2/P_1^2 - c/P_1)
    with c = w0/sigma and P_s = P_s(K): a Fraction in exact arithmetic."""
    exact, (p1, p2) = _products(spec, K, (1, 2), mode)
    if exact:
        c = spec.initial[0] / spec.sigma
        return spec.sigma**2 * (c * (c + 1) * p2 / p1**2 - c / p1)
    c = float(spec.initial[0]) / float(spec.sigma)
    sigma = float(spec.sigma)
    return sigma**2 * (c * (c + 1) * math.exp(p2 - 2 * p1) - c * math.exp(-p1))


def limit_mean_square(spec: UrnSpec) -> float:
    """E[M_inf^2] = sigma^2 * (w0/sigma)(w0/sigma + 1) * C_2 / C_1^2."""
    cst = asymptotic_constants(spec)
    c = float(spec.initial[0]) / float(spec.sigma)
    sigma = float(spec.sigma)
    return sigma**2 * c * (c + 1) * limit_Cs(spec, 2, cst) / limit_Cs(spec, 1, cst) ** 2


def tail_variance(spec: UrnSpec, N: int) -> float:
    """s_N^2 = sum_{K >= N} E[(M_K - M_{K-1})^2] = E[M_inf^2] - E[M_{N-1}^2]."""
    if N < 1:
        raise ValueError("tail variance is defined for N >= 1")
    return limit_mean_square(spec) - mean_square(spec, N - 1)


def tail_variance_asymptotic(spec: UrnSpec, N: int) -> float:
    """Two-term expansion s_N^2 ~ sigma*kappa*w0 * N^(-Lambda)
    - Lambda^2 * E[M_inf^2] / N.

    Both terms follow from the exact product representation: the N^(-Lambda)
    term is sigma*w0*g_{N-1} (per-step increment variance ~ Lambda*sigma*
    kappa*w0*K^(-Lambda-1), summing to sigma*kappa*w0*N^(-Lambda)), and the
    1/N term is the tail of sum sigma^2/T_j^2 inside P_2/P_1^2.  Replacing
    1/T_N by 1/N in the increment variance would instead give the coefficient
    sigma^2*kappa*w0/Lambda, which overshoots by sigma/Lambda because
    T_N ~ sigma_unit*psi*N/p and p/(sigma_unit*psi) = Lambda/sigma."""
    cst = asymptotic_constants(spec)
    sigma = float(spec.sigma)
    w0 = float(spec.initial[0])
    lead = N ** (-cst.Lambda) * sigma * cst.kappa * w0
    return lead - cst.Lambda**2 * limit_mean_square(spec) / N


def _tail_norm(spec: UrnSpec, N: int, N_far: int) -> tuple:
    """(g_N, g_far, lp1, lp2, sigma), lp_s = log P_s from N to N_far."""
    _, (lp1, lp2) = _products(spec, N_far, (1, 2), "float", start=N)
    g_N = g_factor(spec, N, "float")
    return g_N, g_N * math.exp(-lp1), lp1, lp2, float(spec.sigma)


def _conditional_variance(W_N: np.ndarray, g_N, g_far, lp1, lp2, sigma) -> np.ndarray:
    """g_far^2 E[W_far^2 | W_N] - M_N^2 with M_N = g_N * W_N."""
    w = W_N / sigma
    second = sigma**2 * (w * (w + 1.0) * math.exp(lp2) - w * math.exp(lp1))
    return g_far**2 * second - (g_N * W_N) ** 2


@dataclass(frozen=True)
class StatMoments:
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def _moments_from_sums(sums: list[float], n: int) -> StatMoments:
    s1, s2, s3, s4 = (v / n for v in sums)
    mean = s1
    var = s2 - mean**2
    m3 = s3 - 3 * mean * s2 + 2 * mean**3
    m4 = s4 - 4 * mean * s3 + 6 * mean**2 * s2 - 3 * mean**4
    return StatMoments(mean, var, m3 / var**1.5, m4 / var**2 - 3.0)


@dataclass(frozen=True)
class TailSumReport:
    N: int
    N_far: int
    n_reps: int
    conditional: StatMoments
    plugin: StatMoments
    plugin_expected_attenuation: float  # 1 - (N/N_far)^Lambda
    plugin_expected_variance_factor: float  # Lambda/sigma; see tail_sum_experiment
    tail_sd: float  # sqrt(s^2_{N+1} - s^2_{N_far+1})


def _tail_worker(seed: int, count: int, spec: UrnSpec, N: int, N_far: int,
                 norm: tuple) -> list[float]:
    tail, scale_plugin = norm
    g_N, g_far = tail[:2]
    W_N, W_far = simulate_white_batch(spec, [N, N_far], count, seed)
    M_N = g_N * W_N
    M_far = g_far * W_far
    D = M_far - M_N
    z_cond = D / np.sqrt(_conditional_variance(W_N, *tail))
    z_plug = scale_plugin * (M_N - M_far) / np.sqrt(M_far)
    out = []
    for z in (z_cond, z_plug):
        out.extend(math.fsum(z**k) for k in (1, 2, 3, 4))
    return out


def tail_sum_experiment(
    spec: UrnSpec,
    N: int,
    N_far: int,
    n_reps: int,
    master_seed: int,
    threads: int = 1,
    block_size: int = 8192,
) -> TailSumReport:
    """Simulate n_reps trajectories to N_far and standardize the tail sum
    M_N - M_far both ways.  Replicates are split into fixed blocks with
    derived seeds and block results are combined with exact summation, so the
    output is bit-identical for any thread count."""
    if not 0 < N < N_far:
        raise ValueError("need 0 < N < N_far")
    _check_sizes(N, n_reps)
    cst = asymptotic_constants(spec)
    sigma = float(spec.sigma)
    beta = math.sqrt(cst.Lambda) / (sigma * math.sqrt(cst.kappa))
    scale_plugin = N ** (cst.Lambda / 2.0) * beta
    norm = (_tail_norm(spec, N, N_far), scale_plugin)
    rows = run_blocks(
        _tail_worker,
        n_reps,
        block_size,
        master_seed,
        threads=threads,
        worker_args=(spec, N, N_far, norm),
    )
    sums = fsum_rows(rows)
    cond = _moments_from_sums(sums[0:4], n_reps)
    plug = _moments_from_sums(sums[4:8], n_reps)
    atten = 1.0 - (N / N_far) ** cst.Lambda
    # the plugin normalizer beta = sqrt(Lambda)/(sigma*sqrt(kappa)) targets an
    # increment variance proportional to sigma^2*kappa/Lambda per unit of
    # N^(-Lambda); the true conditional tail variance is sigma*kappa*M_inf*
    # N^(-Lambda), so the plugin statistic has asymptotic variance
    # (Lambda/sigma) * attenuation rather than attenuation alone
    var_factor = cst.Lambda / sigma
    tail_sd = math.sqrt(tail_variance(spec, N + 1) - tail_variance(spec, N_far + 1))
    return TailSumReport(N, N_far, n_reps, cond, plug, atten, var_factor, tail_sd)


def lil_diagnostic(
    spec: UrnSpec, checkpoints, N_far: int, seed: int
) -> list[dict]:
    """One trajectory: at each checkpoint N report the tail sum scaled by
    eta_hat * s_N * sqrt(2 log log (1/s_N)) with eta_hat = sqrt(M_far/w0).
    Rows where log log(1/s_N) <= 0 carry ratio None (normalizer undefined)."""
    checkpoints = _checkpoint_list(checkpoints)
    if checkpoints[-1] >= N_far:
        raise ValueError("checkpoints must precede the far horizon")
    w0 = float(spec.initial[0])
    states = simulate_white_batch(spec, checkpoints + [N_far], 1, seed)
    W_far = float(states[-1][0])
    g_far = g_factor(spec, N_far, "float")
    M_far = g_far * W_far
    eta_hat = math.sqrt(M_far / w0)
    rows = []
    for ck, W in zip(checkpoints, states[:-1]):
        M_N = g_factor(spec, ck, "float") * float(W[0])
        s_N = math.sqrt(tail_variance(spec, ck + 1))
        loglog = math.log(math.log(1.0 / s_N)) if s_N < 1.0 else float("nan")
        ratio = None
        if not math.isnan(loglog) and loglog > 0:
            ratio = (M_N - M_far) / (eta_hat * s_N * math.sqrt(2.0 * loglog))
        rows.append({"N": ck, "M_N": M_N, "tail_sd": s_N, "ratio": ratio})
    return rows
