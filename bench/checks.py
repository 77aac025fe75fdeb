"""Correctness checks the benchmark applies to the program's outputs.

Every reference here is computed from the generating points or from the
paper's explicit definitions, never from a saved copy of an earlier output.
Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

#: relative Gram error of a recovery-table solve (measured 3e-10 to 9e-8)
GRAM_TOL = 1e-6
#: held-out squared distances, relative to the largest true one
HELDOUT_TOL = 1e-5
#: the grid's default success threshold for a noiseless cell
NOISELESS_THRESHOLD = 1e-3
#: agreement of nu, the cross term and the RIP estimate with their references
REL_TOL = 1e-9
RIP_TOL = 1e-6


def rel_diff(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def gram_rel_error(U, eigs, points):
    """``||U diag(eigs) U^T - P P^T||_F / ||P P^T||_F`` via a joint QR.

    Forming the difference in span([U | P]) keeps the small error clear of
    the cancellation an inner-product expansion would suffer.
    """
    r = U.shape[1]
    _, rr = np.linalg.qr(np.hstack([U, points]))
    ru, rp = rr[:, :r], rr[:, r:]
    core = (ru * eigs) @ ru.T - rp @ rp.T
    return float(np.linalg.norm(core) / np.linalg.norm(points.T @ points))


def heldout_pairs(n, sampled_ii, sampled_jj, count, rng):
    """``count`` distinct pairs i < j outside the sampled set."""
    sampled = set((sampled_ii * n + sampled_jj).tolist())
    picked = set()
    while len(picked) < count:
        i, j = rng.integers(0, n, size=2)
        i, j = min(i, j), max(i, j)
        code = int(i) * n + int(j)
        if i != j and code not in sampled:
            picked.add(code)
    codes = np.array(sorted(picked), dtype=np.int64)
    return codes // n, codes % n


def check_recovery(U, eigs, points, ii, jj):
    """Gram error in the reference regime; held-out distances match."""
    problems = []
    err = gram_rel_error(U, eigs, points)
    if not err <= GRAM_TOL:
        problems.append(f"relative Gram error {err:.3e} above {GRAM_TOL:.0e}")
    du = U[ii] - U[jj]
    completed = (du * du) @ eigs
    true = np.sum((points[ii] - points[jj]) ** 2, axis=1)
    dev = float(np.max(np.abs(completed - true)) / true.max())
    if not dev <= HELDOUT_TOL:
        problems.append(f"held-out distances off by {dev:.3e} of the largest, "
                        f"above {HELDOUT_TOL:.0e}")
    return problems


def check_trial(rel_error):
    """A noiseless grid trial lands under the grid's success threshold."""
    if not rel_error <= NOISELESS_THRESHOLD:
        return [f"trial error {rel_error:.3e} above the success threshold "
                f"{NOISELESS_THRESHOLD:.0e}"]
    return []


def whitened_rows(points):
    """Orthonormal factor of the centred points' Gram matrix, by thin SVD."""
    u, _, _ = np.linalg.svd(points - points.mean(axis=0), full_matrices=False)
    return u


def brute_force_max_sq_distance(U, block=64):
    """``max_{i<j} ||u_i - u_j||^2`` from explicit row differences."""
    best = 0.0
    for s in range(0, U.shape[0], block):
        diff = U[s:s + block, None, :] - U[None, :, :]
        best = max(best, float(np.sum(diff * diff, axis=2).max()))
    return best


def cross_term_reference(U, block=2):
    """Max ``|<u_i - u_j, u_i - u_k>|`` over distinct j, k both unlike i.

    Batched over blocks of i; the loop in the program runs one i at a time.
    """
    n = U.shape[0]
    best = 0.0
    idx = np.arange(n)
    for s in range(0, n, block):
        rows = np.arange(s, min(s + block, n))
        diff = U[rows, None, :] - U[None, :, :]
        gram = np.abs(np.matmul(diff, diff.transpose(0, 2, 1)))
        gram[:, idx, idx] = 0.0
        local = np.arange(rows.size)
        gram[local, rows, :] = 0.0
        gram[local, :, rows] = 0.0
        best = max(best, float(gram.max()))
    return best


def check_incoherence(report, points, r, cross_reference=None):
    """nu against the brute force and its bounds; the cross term likewise."""
    n = points.shape[0]
    problems = []
    nu = n / (2.0 * r) * brute_force_max_sq_distance(whitened_rows(points))
    if not rel_diff(report.nu, nu) <= REL_TOL:
        problems.append(f"nu {report.nu!r} differs from the brute force {nu!r}")
    if not n / (n - 1.0) - REL_TOL <= report.nu <= 2.0 * n / r + REL_TOL:
        problems.append(f"nu {report.nu!r} outside [n/(n-1), 2n/r]")
    if cross_reference is not None:
        cross = report.cross_term_max
        bound = 2.0 * r * nu / n   # |<d_ij, d_ik>| <= ||d_ij|| ||d_ik|| <= max ||d||^2
        if cross is None or not cross <= bound * (1.0 + REL_TOL):
            problems.append(f"cross term {cross!r} above its Cauchy-Schwarz bound {bound!r}")
        elif not rel_diff(cross, cross_reference) <= REL_TOL:
            problems.append(f"cross term {cross!r} differs from the reference "
                            f"{cross_reference!r}")
    return problems


def restricted_operator(U, ii, jj, p):
    """Matrix of ``P_T M_O P_T - p^2 P_T`` on the zero-row-sum tangent slice.

    Built densely from the explicit basis ``w_a = e_ii + e_jj - e_ij - e_ji``
    and dual ``v_a = -1/2 (a b^T + b a^T)``, ``a = e_i - 1/n``,
    ``b = e_j - 1/n``, with the de-biased weights (p on a = b, 1 elsewhere).
    The slice is spanned by ``U E U^T`` (E symmetric) and ``q u_k^T + u_k q^T``
    with q orthogonal to U and to the ones vector.
    """
    n, r = U.shape
    m = ii.size
    rows = np.arange(m)
    W = np.zeros((m, n, n))
    W[rows, ii, ii] = W[rows, jj, jj] = 1.0
    W[rows, ii, jj] = W[rows, jj, ii] = -1.0
    a = np.full((m, n), -1.0 / n)
    a[rows, ii] += 1.0
    b = np.full((m, n), -1.0 / n)
    b[rows, jj] += 1.0
    V = -0.5 * (a[:, :, None] * b[:, None, :] + b[:, :, None] * a[:, None, :])
    Vf = V.reshape(m, -1)
    G = Vf @ Vf.T
    G[rows, rows] *= p

    q, _ = np.linalg.qr(np.hstack([np.ones((n, 1)) / math.sqrt(n), U]), mode="complete")
    comp = q[:, r + 1:]
    basis = []
    for k in range(r):
        for l in range(k, r):
            e = np.zeros((r, r))
            e[k, l] = e[l, k] = 1.0 if k == l else 1.0 / math.sqrt(2.0)
            basis.append(U @ e @ U.T)
    for k in range(r):
        outer = np.einsum("iq,j->qij", comp, U[:, k])
        basis.extend((outer + outer.transpose(0, 2, 1)) / math.sqrt(2.0))
    B = np.array(basis).reshape(len(basis), -1)
    C = B @ W.reshape(m, -1).T             # C[k, a] = <B_k, w_a>
    return C @ G @ C.T - p**2 * np.eye(B.shape[0])


def rip_reference(U, ii, jj, p):
    """``p^-2 max |eig|`` of :func:`restricted_operator`."""
    eig = np.linalg.eigvalsh(restricted_operator(U, ii, jj, p))
    return float(np.abs(eig).max() / p**2)


def check_rip(estimate, reference):
    if not estimate.converged:
        return [f"RIP power iteration did not converge in {estimate.iterations} steps"]
    if not rel_diff(estimate.epsilon, reference) <= RIP_TOL:
        return [f"RIP estimate {estimate.epsilon!r} differs from the eigen-solve "
                f"{reference!r}"]
    return []
