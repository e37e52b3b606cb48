"""Ground truth of the tests: pi hbar W = <psi|D(2z) Pi|psi> of a catalog
state in mpmath, a double sum over its member pairs, each term in closed
form. Pi|n> = (-1)^n |n> and D(a)|b> = exp(i Im(a conj(b))) |a + b>, so

    Fock pair:      (-1)^n <k|D(2z)|n>, Cahill and Glauber's normalized
                    Laguerre value (Phys. Rev. 177, 1857 (1969));
    coherent v:     <a|D(2z) Pi|v> = exp(-2i Im(z conj(v))) <a|2z - v>.

D(2z) Pi is Hermitian, so the pair (j, i) is the conjugate of (i, j).
"""

import pytest

from bargwig.states import FockState, _terms


def _element(mpmath, a, b, z):
    """<a|D(2z) Pi|b> for the members a and b at the mpmath label z."""
    if isinstance(a, FockState) and isinstance(b, FockState):
        k, n, w = a.n, b.n, 2 * z
        x = abs(w) ** 2
        lo, hi = min(k, n), max(k, n)
        power = w ** (k - n) if k >= n else (-mpmath.conj(w)) ** (n - k)
        root = mpmath.sqrt(mpmath.factorial(lo) / mpmath.factorial(hi))
        return (-1) ** n * root * power * mpmath.exp(-x / 2) * mpmath.laguerre(lo, hi - lo, x)
    if isinstance(b, FockState):
        return mpmath.conj(_element(mpmath, b, a, z))
    v = mpmath.mpc(b.u)
    beta = 2 * z - v
    turn = -2j * mpmath.im(z * mpmath.conj(v))
    if isinstance(a, FockState):
        return mpmath.exp(turn - abs(beta) ** 2 / 2) * beta ** a.n / mpmath.sqrt(mpmath.factorial(a.n))
    u = mpmath.mpc(a.u)
    return mpmath.exp(turn - (abs(u) ** 2 + abs(beta) ** 2) / 2 + mpmath.conj(u) * beta)


def pair_pi_w(state, z, dps=30) -> float:
    """pi hbar W of state at the label z in dps digits, summed over the
    Hermitian half of the member pairs: each pair i < j twice, by its real
    part."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        terms = [(mpmath.mpc(c), m) for c, m in _terms(state)]
        w = mpmath.mpc(complex(z))
        return float(mpmath.fsum(
            (1 if i == j else 2) * mpmath.re(mpmath.conj(ci) * cj * _element(mpmath, mi, mj, w))
            for i, (ci, mi) in enumerate(terms) for j, (cj, mj) in enumerate(terms) if i <= j
        ))
