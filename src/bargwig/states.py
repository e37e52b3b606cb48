"""State catalog: Fock states, coherent states, and finite superpositions,
with exact Bargmann functions, analytic derivative towers, and position
wavefunctions.

The Bargmann function of a state is f(w) = exp(|w|^2 / 2) <psi|w>, an entire
function of w. For the catalog:

    fock(N):      f(z) = z^N / sqrt(N!)
    coherent(U):  f(z) = exp(conj(U) z - |U|^2 / 2)

Each member kind is one class that carries its own closed forms, among
them its Taylor stack (recurrence) and the number amplitudes of the state
displaced to z (displaced), which core sums. f is antilinear in the state,
so a superposition sum_m c_m |psi_m> has f = sum_m conj(c_m) f_m, summed
over _terms(state); its amplitudes are linear, sum_m c_m a_k[psi_m].
Derivative towers are closed-form; finite differences appear only in the
tests.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .phase import BasisParams, qp_from_z
from .special import hermite_psi, laguerre

__all__ = [
    "FockState",
    "CoherentState",
    "Superposition",
    "StateSpec",
    "bargmann",
    "derivative_tower",
    "position_wavefunction",
    "exact_degree",
    "overlap",
    "norm_squared",
    "superposition",
    "cat_state",
    "state_from_json",
    "state_to_json",
    "state_label",
]

MAX_SUPERPOSITION_TERMS = 64
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class FockState:
    """Number state |n>, f(z) = z^n / sqrt(n!)."""

    n: int
    kind = "fock"

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 0:
            raise ValueError(f"Fock index must be a non-negative integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))

    @classmethod
    def from_json(cls, obj: dict) -> "FockState":
        return cls(obj["n"])

    def to_json(self) -> dict:
        return {"type": self.kind, "n": self.n}

    def label(self) -> str:
        return f"fock({self.n})"

    def degree(self) -> int:
        return self.n

    def bargmann(self, z: np.ndarray) -> np.ndarray:
        """f(z) = z^n / sqrt(n!)."""
        return z ** self.n * ((1 << 60) / _root_factorial(self.n))

    def wavefunction(self, y: np.ndarray, b: float) -> np.ndarray:
        """psi(y) = b^{-1/2} phi_n(y/b), with phi_n the dimensionless
        oscillator eigenfunction."""
        return hermite_psi(self.n, y / b) / math.sqrt(b) + 0.0j

    def bra(self, other) -> complex:
        """<n|other>: a Kronecker delta, or e^(-|u|^2/2) u^n / sqrt(n!) for |u>."""
        if isinstance(other, FockState):
            return 1.0 + 0.0j if other.n == self.n else 0.0j
        u = other.u
        return math.exp(-0.5 * abs(u) ** 2) * ((1 << 60) / _root_factorial(self.n)) * u ** self.n

    def spread(self, basis: BasisParams):
        """(Q, P, wq, wp): the phase-space centre and the widths in q and p."""
        return 0.0, 0.0, basis.b * math.sqrt(self.n + 0.5), (basis.hbar / basis.b) * math.sqrt(self.n + 0.5)

    def recurrence(self, K, z, r, w, ray):
        """(start, step, orders) of its stack in _stack, from k = n down:

            s_k = sqrt(n!) / ((n-k)! d_k) w^n rho^(n-k),

        start w^n (by repeated squaring), step rho, and the coefficients
        correctly rounded from exact integers (_root_factorial)."""
        N = self.n
        root = _root_factorial(N)
        orders = ((k, root / ((math.factorial(N - k) * (math.factorial(k) if ray else 1)) << 60))
                  for k in range(N, -1, -1))
        return _unit_power(w, N), (r if ray else z), orders

    def displaced(self, z):
        """Yield a_k = <k|D(-z)|n>, k = 0, 1, ..., at the 1-D labels z, from
        the normalized associated Laguerre closed form (Cahill and Glauber,
        Phys. Rev. 177, 1857 (1969)), x = |z|^2:

            k < n:   sqrt(k!/n!) conj(z)^(n-k) exp(-x/2) L_k^(n-k)(x),
            k >= n:  sqrt(n!/k!) (-z)^(k-n)    exp(-x/2) L_n^(k-n)(x).

        The prefactors, running products from k = n down and up, stay
        below 1 in modulus."""
        N = self.n
        x = z.real * z.real + z.imag * z.imag
        pre = [np.exp(-0.5 * x) + 0j]  # pre[i]: the prefactor of k = n - i
        x[pre[0] == 0] = 0.0  # there a_k = 0, and L(x) could overflow to nan
        for k in range(N, 0, -1):
            pre.append(pre[-1] * np.conj(z) * (1 / math.sqrt(k)))
        for k in range(N):
            yield pre[N - k] * laguerre(k, x, N - k)
        p = pre[0]
        for k in itertools.count(N):
            if k > N:
                p = p * -z * (1 / math.sqrt(k))
            yield p * laguerre(N, x, k - N)


@dataclass(frozen=True)
class CoherentState:
    """Coherent state |u> whose width equals the analysis-basis width b,
    f(z) = exp(conj(u) z - |u|^2 / 2)."""

    u: complex
    kind = "coherent"

    def __post_init__(self):
        u = complex(self.u)
        if not cmath.isfinite(u):
            raise ValueError(f"coherent amplitude must be finite, got {u!r}")
        object.__setattr__(self, "u", u)

    @classmethod
    def from_json(cls, obj: dict) -> "CoherentState":
        return cls(complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0))))

    def to_json(self) -> dict:
        return {"type": self.kind, "re": self.u.real, "im": self.u.imag}

    def label(self) -> str:
        return f"coherent({self.u:.3g})"

    def degree(self) -> Optional[int]:
        """0 for the vacuum u = 0, where f = 1; None otherwise."""
        return None if self.u else 0

    def bargmann(self, z: np.ndarray) -> np.ndarray:
        """f(z) = exp(conj(u) z - |u|^2 / 2)."""
        return np.exp(np.conj(self.u) * z - 0.5 * abs(self.u) ** 2)

    def wavefunction(self, y: np.ndarray, b: float) -> np.ndarray:
        """psi(y) = pi^{-1/4} b^{-1/2} exp(-(y/b - sqrt(2) u)^2 / 2 + u (u - conj(u)) / 2)."""
        u = self.u
        arg = -0.5 * (y / b - math.sqrt(2.0) * u) ** 2 + 0.5 * u * (u - np.conj(u))
        return np.pi ** -0.25 / math.sqrt(b) * np.exp(arg)

    def bra(self, other) -> complex:
        """<u|other>: exp(-|u|^2/2 - |v|^2/2 + conj(u) v) for |v>, and
        conj(<other|u>) otherwise."""
        if isinstance(other, CoherentState):
            v, u = self.u, other.u
            return np.exp(-0.5 * abs(v) ** 2 - 0.5 * abs(u) ** 2 + np.conj(v) * u)
        return np.conj(other.bra(self))

    def spread(self, basis: BasisParams):
        """(Q, P, wq, wp): the phase-space centre and the widths in q and p."""
        Q, P = qp_from_z(self.u, basis)
        return Q, P, basis.b / math.sqrt(2.0), basis.hbar / (basis.b * math.sqrt(2.0))

    def recurrence(self, K, z, r, w, ray):
        """(start, step, orders) of its stack in _stack, from k = 0 up,
        with U = self.u: s_k = f(z) (conj(U) w)^k / d_k, start f(z), step
        conj(U) w (the scalar conj(U) off the ray), coefficients 1/k! along
        the ray."""
        U = np.conj(self.u)
        orders = ((k, 1 / math.factorial(k) if ray else 1.0) for k in range(K + 1))
        return self.bargmann(z), (U * w if ray else U), orders

    def displaced(self, z):
        """Yield a_k = <k|D(-z)|u>, k = 0, 1, ..., at the 1-D labels z:
        D(-z)|u> is |u - z> times the phase exp(i Im(conj(z) u)), so
        a_0 = exp(i Im(conj(z) u) - |u - z|^2 / 2) and a_k = a_(k-1) (u - z) / sqrt(k),
        one complex and one real multiply per order."""
        d = self.u - z
        a = np.exp(1j * (np.conj(z) * self.u).imag - 0.5 * (d.real * d.real + d.imag * d.imag))
        yield a
        for k in itertools.count(1):
            a = a * d * (1 / math.sqrt(k))
            yield a


_MEMBER_KINDS = (FockState, CoherentState)


@dataclass(frozen=True)
class Superposition:
    """Normalized finite superposition of Fock and/or coherent states.

    Nesting depth is one: members must be FockState or CoherentState.
    Construction rejects unnormalized coefficient sets; use superposition()
    with normalize=True to rescale.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("superposition needs at least one term")
        if len(self.terms) > MAX_SUPERPOSITION_TERMS:
            raise ValueError(f"superposition capped at {MAX_SUPERPOSITION_TERMS} terms")
        object.__setattr__(self, "terms", _checked_terms(self.terms))
        nsq = norm_squared(self)
        if not abs(nsq - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(
                f"superposition is not normalized: <psi|psi> = {nsq!r}; "
                "pass normalize=True to superposition() to rescale"
            )

    def to_json(self) -> dict:
        return {
            "type": "superposition",
            "terms": [{"coeff": {"re": c.real, "im": c.imag}, "state": s.to_json()} for c, s in self.terms],
        }

    def label(self) -> str:
        return f"superposition[{len(self.terms)}]"


StateSpec = Union[FockState, CoherentState, Superposition]


def _checked_terms(terms) -> tuple:
    """The (complex coefficient, member) pairs of terms, each member a Fock
    or coherent state."""
    terms = tuple((complex(c), s) for c, s in terms)
    if not all(isinstance(s, _MEMBER_KINDS) for _, s in terms):
        raise ValueError("superposition members must be Fock or coherent states")
    return terms


def _terms(state: StateSpec) -> tuple:
    """The (coefficient, member) pairs of a state; one member is ((1.0, state),)."""
    return state.terms if isinstance(state, Superposition) else ((1.0, state),)


def overlap(left: StateSpec, right: StateSpec) -> complex:
    """Exact inner product <left|right> for catalog states."""
    return sum(np.conj(a) * sum(b * m.bra(n) for b, n in _terms(right)) for a, m in _terms(left))


def norm_squared(state: StateSpec) -> float:
    """<psi|psi> (real part; the imaginary part cancels exactly)."""
    return float(np.real(overlap(state, state)))


def superposition(terms, normalize: bool = False) -> Superposition:
    """Build a superposition from (coefficient, state) pairs.

    With normalize=True the coefficients are rescaled so <psi|psi> = 1;
    otherwise an unnormalized set is rejected.
    """
    terms = _checked_terms(terms)
    if normalize:
        nsq = norm_squared(_unchecked_superposition(terms))
        if not nsq > 0:
            raise ValueError(f"cannot normalize a superposition with <psi|psi> = {nsq!r}")
        scale = 1.0 / math.sqrt(nsq)
        terms = tuple((c * scale, s) for c, s in terms)
    return Superposition(terms)


def _unchecked_superposition(terms) -> Superposition:
    """The Superposition of the (coefficient, member) pairs terms, with no
    check of its norm: core moves a normalized state to its own frame,
    which changes the norm by roundoff only."""
    state = object.__new__(Superposition)
    object.__setattr__(state, "terms", tuple(terms))
    return state


def cat_state(u: complex, sign: int = 1) -> Superposition:
    """Normalized two-component cat |u> + sign |-u>."""
    if sign not in (1, -1):
        raise ValueError("cat sign must be +1 or -1")
    return superposition(
        [(1.0, CoherentState(u)), (float(sign), CoherentState(-u))], normalize=True
    )


def bargmann(state: StateSpec, z):
    """Bargmann function f(z) of a catalog state."""
    z = np.asarray(z, dtype=complex)
    total = np.zeros_like(z)
    for c, member in _terms(state):
        total = total + np.conj(c) * member.bargmann(z)
    return total if total.ndim else complex(total)


def exact_degree(state: StateSpec) -> Optional[int]:
    """Polynomial degree of the Bargmann function, or None if entire non-polynomial."""
    degs = [member.degree() for _, member in _terms(state)]
    return None if None in degs else max(degs)


def _root_factorial(N: int) -> int:
    """floor(sqrt(N!) 2^60), from exact integers: any coefficient
    sqrt(N!)/m or m/sqrt(N!) taken from it by one division of integers is
    correctly rounded, with no intermediate float that could overflow before
    the coefficient itself does."""
    return math.isqrt(math.factorial(N) << 120)


def _stack(state: StateSpec, z: np.ndarray, K: int, ray: bool) -> np.ndarray:
    """s_k = f^(k)(z) w^k / d_k, k = 0..K, at the points of the 1-D array
    z, from the closed forms of the catalog, with shape (K+1, 2, len(z)):
    [k, 0] holds Re s_k, [k, 1] Im s_k. The one tower builder:

        ray=False: w = 1, d_k = 1, the derivative tower f^(k)(z);
        ray=True:  w = u = z/|z| (u = 1 at z = 0), d_k = k!, the Taylor
                   stack along the ray, t_k = f^(k)(z) u^k / k!, of the walk.

    Each member gives its recurrence, with rho = z conj(w) (r = |z| along
    the ray): a start vector, a multiplier, and the (order, coefficient)
    pairs in the order the products reach them. One loop carries conj(c)
    start as one complex vector, steps it by one complex multiply per
    order, and writes or adds its parts times the coefficient, so a
    superposition has sum_m conj(c_m) s_k[psi_m].

    numpy rounds a complex product elementwise, by the same instructions at
    every element, so a point's value does not depend on the array it sits
    in, and a grid evaluated in blocks stays bitwise equal to one call. The
    exception is an in-place product of a length-1 array, which numpy
    rounds by another loop, so the multiply writes into a second buffer.
    On FMA hardware values differ from a real-arithmetic build at roundoff.
    u is taken by two real divisions: numpy's complex division z/r
    overflows at a subnormal z (2.2e-313j gives nan + inf j).
    """
    r = np.abs(z)
    w = np.ones(z.shape, dtype=complex)
    if ray:
        np.divide(z.real, r, out=w.real, where=r > 0)
        np.divide(z.imag, r, out=w.imag, where=r > 0)
    out = np.zeros((K + 1, 2) + z.shape)
    parts = np.empty((2,) + z.shape)
    for i, (c, member) in enumerate(_terms(state)):
        q, step, orders = member.recurrence(K, z, r, w, ray)
        q = q * np.conj(c)  # not in place, for the length-1 reason below
        spare = np.empty_like(q)
        for j, (k, coeff) in enumerate(orders):
            if j:
                q, spare = np.multiply(q, step, out=spare), q
            if k > K:
                continue
            dest = out[k] if i == 0 else parts
            np.multiply(q.view(float).reshape(-1, 2).T, coeff, out=dest)  # (Re q, Im q)
            if i:
                out[k] += parts
    return out


def _displaced(terms, z: np.ndarray):
    """Yield a_k = <k|D(-z)|psi> = sum_m c_m a_k[psi_m], k = 0, 1, ..., at
    the 1-D labels z, from each member's displaced, for the (coefficient,
    member) pairs terms of psi. Every product is taken into a new array:
    numpy rounds an in-place complex product of a length-1 array by
    another loop (_stack), and values must not depend on the block."""
    for amps in zip(*(member.displaced(z) for _, member in terms)):
        total = amps[0] * terms[0][0]
        for (c, _), a in zip(terms[1:], amps[1:]):
            total = total + a * c
        yield total


def _unit_power(u: np.ndarray, N: int) -> np.ndarray:
    """u^N for |u| = 1, by repeated squaring, divided by its modulus,
    since |u| = 1 only to an ulp."""
    p = np.ones_like(u)
    while N:
        if N & 1:
            p = p * u
        N >>= 1
        if N:
            u = u * u
    m = np.abs(p)
    p.real /= m
    p.imag /= m
    return p


def derivative_tower(state: StateSpec, z, K: int) -> np.ndarray:
    """Exact derivatives d^k f/dz^k for k = 0..K at the point(s) z, as a
    complex array of shape (K+1,) + shape(z)."""
    if K < 0:
        raise ValueError("tower order must be non-negative")
    z = np.asarray(z, dtype=complex)
    s = _stack(state, z.reshape(-1), K, ray=False)
    values = np.empty((K + 1, z.size), dtype=complex)
    values.real = s[:, 0]
    values.imag = s[:, 1]
    return values.reshape((K + 1,) + z.shape)


def position_wavefunction(state: StateSpec, y, basis: BasisParams):
    """Normalized position-representation wavefunction psi(y) =
    sum_m c_m psi_m(y), from each member's closed form (wavefunction)."""
    y = np.asarray(y, dtype=float)
    total = np.zeros(y.shape, dtype=complex)
    for c, member in _terms(state):
        total = total + c * member.wavefunction(y, basis.b)
    return total if total.ndim else complex(total)


def state_from_json(obj: dict, normalize: bool = False) -> StateSpec:
    """Parse the state-description JSON schema:

        {"type": "fock", "n": 3}
        {"type": "coherent", "re": 0.7, "im": -0.4}
        {"type": "superposition", "terms": [{"coeff": {"re": .., "im": ..},
                                             "state": {...}}, ...]}

    Unnormalized superpositions are rejected unless normalize is set.
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("state description must be an object with a 'type' field")
    kind = obj["type"]
    for member in _MEMBER_KINDS:
        if kind == member.kind:
            try:
                return member.from_json(obj)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{kind} state has a missing or non-numeric field: {exc}") from exc
    if kind == "superposition":
        raw_terms = obj.get("terms")
        if not isinstance(raw_terms, list) or not raw_terms:
            raise ValueError("superposition needs a non-empty 'terms' list")
        terms = []
        for entry in raw_terms:
            try:
                cdict = entry["coeff"]
                coeff = complex(float(cdict.get("re", 0.0)), float(cdict.get("im", 0.0)))
                member = state_from_json(entry["state"])
            except (KeyError, TypeError, AttributeError) as exc:
                raise ValueError(
                    "superposition terms need 'coeff' {re, im} and 'state' objects"
                ) from exc
            if isinstance(member, Superposition):
                raise ValueError("superpositions cannot nest")
            terms.append((coeff, member))
        return superposition(terms, normalize=normalize)
    raise ValueError(f"unknown state type {kind!r}")


def state_to_json(state: StateSpec) -> dict:
    """Inverse of state_from_json."""
    return state.to_json()


def state_label(state: StateSpec) -> str:
    """Short human-readable tag used in logs and benchmark tables."""
    return state.label()
