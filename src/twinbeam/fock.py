"""Brute-force truncated-Fock-space calculator for the twin-beam source.

The one splitter primitive is :func:`_splitter_blocks`, an exact recursion
that builds the block of total count ``T + 1`` (which the splitter
conserves) from the block of total ``T``.  The visibility oracles use each
block once and free it.  :func:`hom_basis` takes from the blocks, in one
pass, the overlap-free port-a laws of every pair number; a HOM scan builds
that basis once and :func:`hom_joint_pmf` contracts it with the overlap's
binomial weights at each point.  The basis grows as ``n_max**3``, so
:func:`check_basis_size` refuses one past ``MAX_BASIS_FLOATS`` before
anything is allocated.  The joint law is a 2-D
:class:`~twinbeam.distributions.Pmf`, whose ``truncation_loss`` is the
pair tail it lacks.  Nothing works with a per-mode cutoff, and nothing is
cached between calls.  The module exists to derive
independently what the closed-form laws in :mod:`twinbeam.distributions`
and :mod:`twinbeam.fitting` assert, and to hand exact joint count
distributions to the Monte Carlo simulator.  The dense state-vector
calculator that checks these blocks lives with the tests
(``tests/fock_reference.py``).

Splitter convention: symmetric 50:50 with the i-phase on reflection,
``a -> (a + i b)/sqrt(2)``.  Count distributions do not depend on this
choice; fixing it makes amplitudes deterministic and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_field
from .distributions import Pmf, TmsvParams, _binomial_pmf, _check_n_max, _thermal_support

__all__ = [
    "UndefinedVisibilityError",
    "MAX_BASIS_FLOATS",
    "OverlapModel",
    "check_basis_size",
    "hom_basis",
    "hom_joint_pmf",
    "hom_n_max",
    "cross_correlation",
    "visibility_oracle",
    "thermal_input_visibility",
]

# hom_basis keeps sum_n (n + 1)(2n + 1), about (2/3) n_max**3, floats: 9 MB
# at nu = 4.5, 83 MB at nu = 10, but 0.62 GB at nu = 20 and 9.2 GB at
# nu = 50.  A larger basis is refused before anything is allocated, so a
# large nu fails at the boundary instead of exhausting memory.  This bound
# (128 MiB) admits nu up to about 11.8.
MAX_BASIS_FLOATS = 2**24


class UndefinedVisibilityError(ValueError):
    """Raised when the distinguishable cross correlation vanishes."""


@dataclass(frozen=True)
class OverlapModel:
    """Spatio-temporal overlap amplitude between the two input beams.

    ``lam = 1`` means the second beam arrives in exactly the mode the
    first beam occupies; ``lam = 0`` means fully distinguishable.
    """

    lam: float

    def __post_init__(self):
        check_field(self, "lam", 0, 1)


def _splitter_blocks(t_max: int, theta: float):
    """Yield the real splitter block ``U_T`` for ``T = 0 .. t_max`` in order.

    Block ``T`` acts on ``|m, T-m>``, ``m = 0 .. T``.  In the style of Risbo's
    recursion (J. Geodesy 70, 383, 1996), one of ``T + 1`` atoms is split off:
    it is in mode a with weight ``w_a(m) = sqrt(m/(T+1))`` (``d_a = 1``) or in
    mode b with ``w_b(m) = sqrt((T+1-m)/(T+1))`` (``d_b = 0``), so
    ``U_{T+1}[m', m] = sum_{p,q} w_p(m') w_q(m) u[p,q] U_T[m'-d_p, m-d_q]``
    with the one-atom splitter ``u = [[c, -s], [s, c]]`` in the order a, b.
    A step restricts an orthogonal product through an isometry, so it cannot
    amplify rounding.  ``exp(i theta (a^dag b + b^dag a))`` is ``i^(m - m') U_T``.
    """
    c, s = math.cos(theta), math.sin(theta)
    root = np.sqrt(np.arange(t_max + 1.0))
    roots = np.multiply.outer(root, root)  # (T+1) w_p(m') w_q(m) are views of it
    block = np.ones((1, 1))
    yield block
    for total in range(1, t_max + 1):
        # sqrt(m) for m = 1 .. total (mode a), sqrt(total - m) for m = 0 .. total - 1 (b)
        a, b = slice(1, total + 1), slice(total, 0, -1)
        cos_part = block * (c / total)
        sin_part = block * (s / total)
        block = np.zeros((total + 1, total + 1))
        np.multiply(roots[a, a], cos_part, out=block[1:, 1:])
        block[1:, :-1] -= roots[a, b] * sin_part
        block[:-1, 1:] += roots[b, a] * sin_part
        block[:-1, :-1] += roots[b, b] * cos_part
        yield block


def hom_n_max(params: TmsvParams) -> int:
    """Default pair support of :func:`hom_joint_pmf`: tail mass at most ``TAIL_TOLERANCE / 2``."""
    return _thermal_support(params.nu)


def check_basis_size(n_max: int) -> None:
    """Raise ``ValueError`` if ``hom_basis(n_max)`` would hold more than ``MAX_BASIS_FLOATS``."""
    floats = (n_max + 1) * (n_max + 2) * (4 * n_max + 3) // 6  # sum of (n + 1)(2n + 1)
    if floats > MAX_BASIS_FLOATS:
        raise ValueError(
            f"a HOM Fock basis of {n_max} pairs would hold {floats:,} floats "
            f"({floats * 8 / 1e9:.2g} GB), more than the {MAX_BASIS_FLOATS:,} allowed"
        )


def hom_basis(n_max: int) -> tuple[np.ndarray, ...]:
    """The port-a laws of :func:`hom_joint_pmf` that depend on neither ``nu`` nor the overlap.

    Entry ``n`` is ``(n + 1, 2n + 1)``: row ``k`` is the port-a law of ``n``
    pairs with ``k`` matched atoms, the matched input ``|n, k>`` through block
    ``n + k`` convolved with the ``n - k`` orthogonal atoms' ``Bin(n - k, 1/2)``.
    """
    n_max = _check_n_max(n_max)
    check_basis_size(n_max)
    return _basis_rows(n_max, np.ones((n_max + 1, n_max + 1), dtype=bool))


def _basis_rows(n_max: int, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`hom_basis` with row ``k`` of entry ``n`` built only if ``rows[n, k]``, else zero."""
    vacuum = [_binomial_pmf(np.arange(j + 1), j, 0.5) for j in range(n_max + 1)]
    basis = tuple(np.zeros((n + 1, 2 * n + 1)) for n in range(n_max + 1))
    t_max = int(np.add(*np.nonzero(rows)).max(initial=0))  # the largest n + k built
    # Block T serves every matched input |n, k> with n + k = T.
    for total, block in enumerate(_splitter_blocks(t_max, math.pi / 4.0)):
        for n in range((total + 1) // 2, min(total, n_max) + 1):
            if rows[n, total - n]:
                basis[n][total - n] = np.convolve(block[:, n] ** 2, vacuum[2 * n - total])
    return basis


def hom_joint_pmf(
    params: TmsvParams,
    overlap: OverlapModel,
    n_max: int = None,
    basis: tuple[np.ndarray, ...] = None,
) -> Pmf:
    """Joint output-port count law of the two-input interferometer.

    The first beam defines the matched spatio-temporal mode; the second
    beam overlaps it with amplitude ``lam``.  Given ``n`` pairs (weight
    ``(1-x) x^n``), ``k ~ Bin(n, lam^2)`` of the second beam's atoms sit in
    the matched mode.  The matched input ``|n, k>`` interferes through one
    exact splitter block; the ``n - k`` orthogonal atoms split against
    vacuum.  Port a collects both, and port b holds the rest of the ``2n``
    atoms.  Different ``k`` never interfere because their matched totals
    differ, so the law is a mixture of exact blocks: the rows of
    :func:`hom_basis`, weighted by ``Bin(k; n, lam^2)`` and added in
    ascending ``k``.  A scan passes one ``basis`` to all its points; without
    one, the call builds only the rows of nonzero weight, since a zero
    weight adds ``+0.0``.

    Returns a 2-D :class:`~twinbeam.distributions.Pmf` over ``(n_a, n_b)``.
    Only the pair tail beyond ``n_max`` is lost, and its ``truncation_loss``
    reports it.  ``n_max`` defaults to :func:`hom_n_max`, and a ``basis``
    must hold ``n_max + 1`` entries.
    """
    n_max = _thermal_support(params.nu, n_max)
    if basis is None:
        check_basis_size(n_max)
    elif len(basis) != n_max + 1:
        raise ValueError(f"basis holds {len(basis)} pair numbers, not n_max + 1 = {n_max + 1}")
    x = params.alpha_mag**2
    pairs = np.arange(n_max + 1)
    # k of the second beam's n atoms fall in the matched mode.
    splits = _binomial_pmf(pairs, pairs[:, None], overlap.lam**2)
    probs = np.zeros((2 * n_max + 1, 2 * n_max + 1))
    for n, laws in enumerate(basis or _basis_rows(n_max, splits != 0.0)):
        n_a = np.arange(2 * n + 1)
        # A sum over the outer axis adds row after row, in ascending k.
        port_a = (splits[n, : n + 1, None] * laws).sum(axis=0)
        probs[n_a, 2 * n - n_a] = (1.0 - x) * x**n * port_a
    return Pmf(probs=np.clip(probs, 0.0, 1.0))


def cross_correlation(joint: Pmf) -> float:
    """Expectation of the port-count product ``<n_a n_b>``."""
    n_a = np.arange(joint.probs.shape[0])
    n_b = np.arange(joint.probs.shape[1])
    return float(n_a @ joint.probs @ n_b)


def _central_binomials(n: int) -> np.ndarray:
    """``p_j = C(2j, j) / 4^j`` for ``j = 0 .. n``, from the ratio ``(2j-1) / (2j)``."""
    j = np.arange(1.0, n + 1.0)
    return np.concatenate(([1.0], np.cumprod((2.0 * j - 1.0) / (2.0 * j))))


def _paired_split_pmf(n: int, central: np.ndarray) -> np.ndarray:
    """Output count law at port a for the paired input ``|n, n>``.

    The paired creation operators collapse to ``(a+ib)(ia+b)/2 = i(a^2+b^2)/2``,
    so only even splits ``|2k, 2n-2k>`` occur, each with probability
    ``C(n,k)^2 (2k)! (2n-2k)! / (4^n n!^2) = p_k p_{n-k}`` (``central`` holds
    ``p_0 .. p_n`` or more): no cancelling sums and no underflow at any ``n``.
    Returns probabilities over ``m = 0 .. 2n``.
    """
    pmf = np.zeros(2 * n + 1)
    pmf[::2] = central[: n + 1] * central[n::-1]
    return pmf


def _half_binomial_pmf(n: int, central: np.ndarray) -> np.ndarray:
    """``Bin(2n, 1/2)`` built outward from its central term, so ``4^-n`` never underflows."""
    i = np.arange(1.0, n + 1.0)
    upper = central[n] * np.cumprod((n - i + 1.0) / (n + i))
    return np.concatenate((upper[::-1], central[n : n + 1], upper))


def visibility_oracle(params: TmsvParams, n_max: int = None) -> float:
    """Interference visibility of the pair source, from state vectors alone.

    ``V = 1 - <n_a n_b>(full overlap) / <n_a n_b>(no overlap)``.  Both
    correlations are assembled pair-number block by pair-number block,
    which keeps every splitter output exactly (blocks conserve the total
    count) and scales to mean occupations of order 100.
    """
    n_max = _thermal_support(params.nu, n_max, floor=1)
    x = params.alpha_mag**2
    pair_weights = (1.0 - x) * x ** np.arange(n_max + 1)
    central = _central_binomials(n_max)

    dip = 0.0
    baseline = 0.0
    for n in range(1, n_max + 1):
        m_dip = np.arange(2 * n + 1)
        product = m_dip * (2 * n - m_dip)
        dip += pair_weights[n] * float(_paired_split_pmf(n, central) @ product)
        # Distinguishable beams: each |n> splits against vacuum, so the
        # port-a total is Bin(n,1/2) + Bin(n,1/2) = Bin(2n,1/2).
        baseline += pair_weights[n] * float(_half_binomial_pmf(n, central) @ product)
    if baseline == 0.0:
        raise UndefinedVisibilityError("distinguishable correlation is zero at this truncation")
    return 1.0 - dip / baseline


def thermal_input_visibility(nu: float, n_max: int = None) -> float:
    """Visibility when the pair source is replaced by independent thermals.

    The two inputs are uncorrelated single-mode thermal mixtures of equal
    mean ``nu``.  A thermal density matrix is Fock-diagonal, so exact
    propagation reduces to averaging pure Fock runs ``|n1, n2>`` over the
    product of occupation laws.  Runs of one total ``T = n1 + n2`` share a
    splitter block, so each block is applied to all its runs at once.
    """
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and >= 0, got {nu}")
    n_max = _thermal_support(nu, n_max, floor=1)
    x = nu / (1.0 + nu)
    weights = (1.0 - x) * x ** np.arange(n_max + 1)

    dip = 0.0
    baseline = 0.0
    # The vacuum block (T = 0) adds exactly zero to both sums.
    for total, block in enumerate(_splitter_blocks(2 * n_max, math.pi / 4.0)):
        lo, hi = max(0, total - n_max), min(total, n_max)
        run_weights = weights[lo : hi + 1] * weights[total - hi : total - lo + 1][::-1]
        m = np.arange(total + 1)
        product = m * (total - m)
        block_sq = block[:, lo : hi + 1] ** 2
        dip += float(run_weights @ (product @ block_sq))
        # Distinguishable inputs each split against vacuum: Bin(T, 1/2) at port a.
        baseline += float(run_weights.sum() * (_binomial_pmf(m, total, 0.5) @ product))
    if baseline == 0.0:
        raise UndefinedVisibilityError("distinguishable correlation is zero at this truncation")
    return 1.0 - dip / baseline
