"""State catalog: Fock states, coherent states, and finite superpositions,
with exact Bargmann functions, analytic derivative towers, and position
wavefunctions.

The Bargmann function of a state is f(w) = exp(|w|^2 / 2) <psi|w>, an entire
function of w. For the catalog:

    fock(N):      f(z) = z^N / sqrt(N!)
    coherent(U):  f(z) = exp(conj(U) z - |U|^2 / 2)

Each member kind is one class that carries its own closed forms: its
derivatives f^(k), order 0 being f itself, which bargmann, the oracles
and validate's paper-form check read, and its overlaps (bra, by
special.coherent_amplitudes), whence core's amplitudes <k|psi>.
Every function over states sums a member form over _terms(state); f is
antilinear in the state, so a superposition sum_m c_m |psi_m> has
f = sum_m conj(c_m) f_m. Finite differences appear only in the tests.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .phase import BasisParams, qp_from_z
from .special import coherent_amplitudes, hermite_psi

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
]

MAX_SUPERPOSITION_TERMS = 64
NORMALIZATION_TOL = 1e-12

# The largest Fock degree: of derivative_tower (so of bargmann and the phase
# oracle), and of core's number amplitudes (a polynomial state's degree, the
# Fock part's of a mixture, or wigner_series' order). fock(300) is finite at
# every label (0 <= |z| <= 40, step 1e-4); fock(308) is not: near
# |z| = 19.28, L_N(4|z|^2) overflows float64 before exp(-2|z|^2) underflows.
# From fock(301) on, sqrt(n!)/m! in FockState.derivatives leaves float64 too.
MAX_DEGREE = 300


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

    def degree(self) -> int:
        return self.n

    def wavefunction(self, y: np.ndarray, b: float) -> np.ndarray:
        """psi(y) = b^{-1/2} phi_n(y/b), with phi_n the dimensionless
        oscillator eigenfunction."""
        return hermite_psi(self.n, y / b) / math.sqrt(b) + 0.0j

    def bra(self, other) -> complex:
        """<n|other>: a Kronecker delta, or the coherent amplitude <n|u>, stopped
        at the first that is 0, as every later one is (a_0 is from |u| = 38.6)."""
        if isinstance(other, FockState):
            return 1.0 + 0.0j if other.n == self.n else 0.0j
        for a in coherent_amplitudes(self.n, other.u):
            if not a:
                break
        return a

    def spread(self, basis: BasisParams):
        """(Q, P, wq, wp): the phase-space centre and the widths in q and p."""
        return 0.0, 0.0, basis.b * math.sqrt(self.n + 0.5), (basis.hbar / basis.b) * math.sqrt(self.n + 0.5)

    def derivatives(self, z, K, c):
        """(k, c f^(k)(z)) for k = min(n, K) down to 0, f^(k)(z) =
        sqrt(n!)/m! z^m, m = n - k: the coefficient, correctly rounded from
        exact integers (_root_factorial), between the halves z^ceil(m/2) and
        z^floor(m/2), one carrying c, stepped in turn by one complex multiply
        an order. For n <= 300 no factor overflows before the value does."""
        N, root = self.n, _root_factorial(self.n)
        half, other = np.full(z.shape, c, dtype=complex), np.ones(z.shape, dtype=complex)
        for m in range(N + 1):
            if N - m <= K:
                yield N - m, half * (root / (math.factorial(m) << 60)) * other
            if m < N:
                half, other = other * z, half


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

    def degree(self) -> Optional[int]:
        """0 for the vacuum u = 0, where f = 1; None otherwise."""
        return None if self.u else 0

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

    def derivatives(self, z, K, c):
        """(k, c f^(k)(z)) for k = 0..K, f^(k)(z) = conj(u)^k f(z), one
        complex multiply an order from f(z) = exp(conj(u) z - |u|^2 / 2)."""
        q = np.exp(np.conj(self.u) * z - 0.5 * abs(self.u) ** 2) * c
        yield 0, q
        for k in range(1, K + 1):
            q = q * np.conj(self.u)
            yield k, q


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
    check of its norm: core sums the Fock part of a state on its own, whose
    norm is not 1."""
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
    """Bargmann function f(z) of a catalog state: order 0 of its
    derivative_tower, the sum of its members' derivatives."""
    f = derivative_tower(state, z, 0)[0]
    return f if f.ndim else complex(f)


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


def _refuse_past_max_degree(state: StateSpec, K: int | None) -> None:
    """ValueError naming state if the Fock degree K it is taken to is past
    MAX_DEGREE, and both causes: the one limit of every route."""
    if K is not None and K > MAX_DEGREE:
        raise ValueError(f"{state!r} is taken to Fock degree {K}; Fock degrees are limited to {MAX_DEGREE}, past "
                         "which sqrt(n!)/m! of the Bargmann derivatives leaves float64, and from degree 308 "
                         "L_n(4|z|^2) overflows float64 before exp(-2|z|^2) underflows")


def derivative_tower(state: StateSpec, z, K: int) -> np.ndarray:
    """Exact derivatives d^k f/dz^k for k = 0..K at the point(s) z, as a
    complex array of shape (K+1,) + shape(z): the sum over the state's
    terms of what each member's derivatives yield, conj(c_m) f_m^(k).

    A point's value does not depend on the array it sits in: numpy rounds
    each complex product elementwise, by the same instructions at every
    element, and the labels are taken as one flat array, even a scalar.
    A Fock member past MAX_DEGREE raises ValueError.
    """
    if K < 0:
        raise ValueError(f"tower order must be non-negative, got {K!r}")
    _refuse_past_max_degree(state, max((m.n for _, m in _terms(state) if isinstance(m, FockState)), default=None))
    z = np.asarray(z, dtype=complex)
    out = np.zeros((K + 1, z.size), dtype=complex)
    for c, member in _terms(state):
        for k, value in member.derivatives(z.reshape(-1), K, np.conj(c)):
            out[k] += value
    return out.reshape((K + 1,) + z.shape)


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
