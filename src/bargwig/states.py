"""State catalog: Fock states, coherent states, and finite superpositions,
with exact Bargmann functions, analytic derivative towers, and position
wavefunctions.

The Bargmann function of a state is f(w) = exp(|w|^2 / 2) <psi|w>, an entire
function of w. For the catalog:

    fock(N):      f(z) = z^N / sqrt(N!)
    coherent(U):  f(z) = exp(conj(U) z - |U|^2 / 2)

f is antilinear in the state, so a superposition sum_m c_m |psi_m> has
f = sum_m conj(c_m) f_m. Derivative towers are closed-form; finite
differences appear only in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .phase import BasisParams
from .special import hermite_psi

__all__ = [
    "FockState",
    "CoherentState",
    "Superposition",
    "StateSpec",
    "bargmann_of_fock",
    "bargmann_of_coherent",
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
    """Number state |n>."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("Fock index must be non-negative")


@dataclass(frozen=True)
class CoherentState:
    """Coherent state |u> whose width equals the analysis-basis width b."""

    u: complex

    def __post_init__(self):
        object.__setattr__(self, "u", complex(self.u))


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
        clean = []
        for coeff, member in self.terms:
            if not isinstance(member, (FockState, CoherentState)):
                raise ValueError("superposition members must be Fock or coherent states")
            clean.append((complex(coeff), member))
        object.__setattr__(self, "terms", tuple(clean))
        nsq = norm_squared(self)
        if abs(nsq - 1.0) > NORMALIZATION_TOL:
            raise ValueError(
                f"superposition is not normalized: <psi|psi> = {nsq!r}; "
                "pass normalize=True to superposition() to rescale"
            )


StateSpec = Union[FockState, CoherentState, Superposition]


def overlap(left: StateSpec, right: StateSpec) -> complex:
    """Exact inner product <left|right> for catalog states."""
    if isinstance(left, Superposition):
        return sum(np.conj(c) * overlap(s, right) for c, s in left.terms)
    if isinstance(right, Superposition):
        return sum(c * overlap(left, s) for c, s in right.terms)
    if isinstance(left, FockState) and isinstance(right, FockState):
        return 1.0 + 0.0j if left.n == right.n else 0.0j
    if isinstance(left, FockState) and isinstance(right, CoherentState):
        u = right.u
        return math.exp(-0.5 * abs(u) ** 2) * ((1 << 60) / _root_factorial(left.n)) * u ** left.n
    if isinstance(left, CoherentState) and isinstance(right, FockState):
        return np.conj(overlap(right, left))
    if isinstance(left, CoherentState) and isinstance(right, CoherentState):
        v, u = left.u, right.u
        return np.exp(-0.5 * abs(v) ** 2 - 0.5 * abs(u) ** 2 + np.conj(v) * u)
    raise TypeError(f"unsupported state types: {type(left)}, {type(right)}")


def norm_squared(state: StateSpec) -> float:
    """<psi|psi> (real part; the imaginary part cancels exactly)."""
    return float(np.real(overlap(state, state)))


def superposition(terms, normalize: bool = False) -> Superposition:
    """Build a superposition from (coefficient, state) pairs.

    With normalize=True the coefficients are rescaled so <psi|psi> = 1;
    otherwise an unnormalized set is rejected.
    """
    terms = tuple((complex(c), s) for c, s in terms)
    if normalize:
        probe = object.__new__(Superposition)
        object.__setattr__(probe, "terms", terms)
        nsq = norm_squared(probe)
        if nsq <= 0:
            raise ValueError("cannot normalize a null superposition")
        scale = 1.0 / math.sqrt(nsq)
        terms = tuple((c * scale, s) for c, s in terms)
    return Superposition(terms)


def cat_state(u: complex, sign: int = 1) -> Superposition:
    """Normalized two-component cat |u> + sign |-u>."""
    if sign not in (1, -1):
        raise ValueError("cat sign must be +1 or -1")
    return superposition(
        [(1.0, CoherentState(u)), (float(sign), CoherentState(-u))], normalize=True
    )


def bargmann_of_fock(N: int, z):
    """f(z) = z^N / sqrt(N!)."""
    if N < 0:
        raise ValueError("Fock index must be non-negative")
    z = np.asarray(z, dtype=complex)
    val = z ** N * ((1 << 60) / _root_factorial(N))
    return val if val.ndim else complex(val)


def bargmann_of_coherent(U: complex, z):
    """f(z) = exp(conj(U) z - |U|^2 / 2)."""
    z = np.asarray(z, dtype=complex)
    val = np.exp(np.conj(U) * z - 0.5 * abs(U) ** 2)
    return val if val.ndim else complex(val)


def bargmann(state: StateSpec, z):
    """Bargmann function f(z) of a catalog state."""
    if isinstance(state, FockState):
        return bargmann_of_fock(state.n, z)
    if isinstance(state, CoherentState):
        return bargmann_of_coherent(state.u, z)
    if isinstance(state, Superposition):
        z = np.asarray(z, dtype=complex)
        total = np.zeros_like(z)
        for c, member in state.terms:
            total = total + np.conj(c) * bargmann(member, z)
        return total if total.ndim else complex(total)
    raise TypeError(f"unsupported state type: {type(state)}")


def exact_degree(state: StateSpec) -> Optional[int]:
    """Polynomial degree of the Bargmann function, or None if entire non-polynomial."""
    if isinstance(state, FockState):
        return state.n
    if isinstance(state, CoherentState):
        return None
    if isinstance(state, Superposition):
        degs = [exact_degree(s) for _, s in state.terms]
        if any(d is None for d in degs):
            return None
        return max(degs)
    raise TypeError(f"unsupported state type: {type(state)}")


def _root_factorial(N: int) -> int:
    """floor(sqrt(N!) 2^60), from exact integers: any coefficient
    sqrt(N!)/m or m/sqrt(N!) taken from it by one division of integers is
    correctly rounded, with no intermediate float that could overflow before
    the coefficient itself does."""
    return math.isqrt(math.factorial(N) << 120)


def _stack(state: StateSpec, z: np.ndarray, K: int, ray: bool) -> np.ndarray:
    """s_k = f^(k)(z) w^k / d_k, k = 0..K, at the points of the 1-D array
    z, built from the closed forms of the catalog and returned with shape
    (K+1, 2, len(z)): [k, 0] holds Re s_k, [k, 1] Im s_k. This is the one
    tower builder:

        ray=False: w = 1, d_k = 1, the derivative tower f^(k)(z);
        ray=True:  w = u = z/|z| (u = 1 at z = 0), d_k = k!, the Taylor
                   stack along the ray through z, t_k = f^(k)(z) u^k / k!,
                   that the series walk consumes.

    With rho = z conj(w) (rho = |z| along the ray, rho = z otherwise):

        fock(N):      s_k = sqrt(N!) / (d_k (N-k)!) w^N rho^(N-k),
                      along the ray one phase u^N per point times real
                      powers of r; the coefficients come from exact
                      integers (_root_factorial);
        coherent(U):  s_0 = f(z) = exp(conj(U) z - |U|^2/2),
                      s_k = s_(k-1) conj(U) w d_(k-1)/d_k;
        superposition sum_m c_m |psi_m>: sum_m conj(c_m) s_k[psi_m].

    The Fock members are built in real arithmetic. u^N is taken by repeated
    squaring and divided by its modulus, since |u| = 1 only to an ulp.

    A coherent member is carried as one complex vector conj(c) f(z) and
    stepped by one complex multiply per order, by the scalar conj(U)
    (ray=False) or by the vector conj(U) u (ray=True). Its real and
    imaginary parts are copied into the stack, along the ray times 1/k!,
    correctly rounded from exact integers. numpy rounds a complex product
    elementwise, by the same instructions at every element, so a point's
    value does not depend on the length of the array it sits in or on its
    offset there, and a grid evaluated in blocks stays bitwise equal to one
    call. The one exception is an in-place product of a length-1 array,
    which numpy rounds by another loop; the multiply therefore writes into a
    second buffer. On FMA hardware those instructions round differently
    from separate real products in about a quarter of the real and of the
    imaginary parts, so coherent and cat values differ from a
    real-arithmetic build at roundoff.
    """
    x, y = z.real, z.imag
    r = np.abs(z)
    ur, ui = np.ones(z.shape), np.zeros(z.shape)
    if ray:
        np.divide(x, r, out=ur, where=r > 0)
        np.divide(y, r, out=ui, where=r > 0)
    out = np.zeros((K + 1, 2) + z.shape)
    re, im = out[:, 0], out[:, 1]
    qr, qi, t, s = (np.empty(z.shape) for _ in range(4))
    ts = np.empty((2,) + z.shape)
    terms = state.terms if isinstance(state, Superposition) else ((1.0, state),)
    for i, (c, member) in enumerate(terms):
        # conj(c) = a + ib multiplies the member's stack. The first member
        # writes into the zeroed stack, the others add to it.
        first = i == 0
        a, b = c.real, -c.imag
        if isinstance(member, FockState):
            # q = conj(c) w^N rho^(N-k), from k = N down
            N = member.n
            root = _root_factorial(N)
            _unit_power(ur, ui, N, qr, qi, t, s)
            _cmul(qr, qi, a, b, t, s)
            for k in range(N, -1, -1):
                if k <= K:
                    coeff = root / ((math.factorial(N - k) * (math.factorial(k) if ray else 1)) << 60)
                    if first:
                        np.multiply(qr, coeff, out=re[k])
                        np.multiply(qi, coeff, out=im[k])
                    else:
                        re[k] += np.multiply(qr, coeff, out=t)
                        im[k] += np.multiply(qi, coeff, out=t)
                if not k:
                    break
                if ray:
                    qr *= r
                    qi *= r
                else:
                    _cmul(qr, qi, x, y, t, s)
        elif isinstance(member, CoherentState):
            # q_k = conj(c) f(z) (conj(U) w)^k, and s_k = q_k / d_k
            U = member.u
            q = np.exp(np.conj(U) * z - 0.5 * abs(U) ** 2) * np.conj(c)
            step = np.conj(U) * (ur + 1j * ui) if ray else np.conj(U)
            spare = np.empty_like(q)
            for k in range(K + 1):
                if k:
                    q, spare = np.multiply(q, step, out=spare), q
                dest = out[k] if first else ts
                np.copyto(dest, q.view(float).reshape(-1, 2).T)  # (Re q, Im q)
                if ray and k > 1:
                    dest *= 1 / math.factorial(k)
                if not first:
                    out[k] += ts
        else:
            raise TypeError(f"unsupported state type: {type(member)}")
    return out


def _cmul(xr, xi, yr, yi, t, s) -> None:
    """x <- x y in real arithmetic, in place; y may be x or a scalar, and
    t, s are scratch arrays."""
    np.multiply(xr, yi, out=t)
    t += np.multiply(xi, yr, out=s)
    np.multiply(xr, yr, out=s)
    np.multiply(xi, yi, out=xr)
    np.subtract(s, xr, out=xr)
    xi[...] = t


def _unit_power(ur, ui, N: int, pr, pi, t, s) -> None:
    """(pr, pi) <- u^N for |u| = 1, by repeated squaring, divided by its
    modulus; t and s are scratch arrays."""
    pr[...] = 1.0
    pi[...] = 0.0
    br, bi = ur.copy(), ui.copy()
    while N:
        if N & 1:
            _cmul(pr, pi, br, bi, t, s)
        N >>= 1
        if N:
            _cmul(br, bi, br, bi, t, s)
    np.hypot(pr, pi, out=t)
    pr /= t
    pi /= t


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
    """Normalized position-representation wavefunction psi(y).

    fock(n):     psi(y) = b^{-1/2} phi_n(y/b) with phi_n the dimensionless
                 oscillator eigenfunction;
    coherent(u): psi(y) = pi^{-1/4} b^{-1/2}
                 exp(-(y/b - sqrt(2) u)^2 / 2 + u (u - conj(u)) / 2).
    """
    y = np.asarray(y, dtype=float)
    b = basis.b
    if isinstance(state, FockState):
        val = hermite_psi(state.n, y / b) / math.sqrt(b) + 0.0j
        return val if np.ndim(val) else complex(val)
    if isinstance(state, CoherentState):
        u = state.u
        arg = -0.5 * (y / b - math.sqrt(2.0) * u) ** 2 + 0.5 * u * (u - np.conj(u))
        val = np.pi ** -0.25 / math.sqrt(b) * np.exp(arg)
        return val if np.ndim(val) else complex(val)
    if isinstance(state, Superposition):
        total = np.zeros(y.shape, dtype=complex)
        for c, member in state.terms:
            total = total + c * position_wavefunction(member, y, basis)
        return total if total.ndim else complex(total)
    raise TypeError(f"unsupported state type: {type(state)}")


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
    if kind == "fock":
        try:
            n = int(obj["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("fock state needs an integer field 'n'") from exc
        return FockState(n)
    if kind == "coherent":
        try:
            u = complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        except (TypeError, ValueError) as exc:
            raise ValueError("coherent state fields 're'/'im' must be numbers") from exc
        return CoherentState(u)
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
    if isinstance(state, FockState):
        return {"type": "fock", "n": state.n}
    if isinstance(state, CoherentState):
        return {"type": "coherent", "re": state.u.real, "im": state.u.imag}
    if isinstance(state, Superposition):
        return {
            "type": "superposition",
            "terms": [
                {"coeff": {"re": c.real, "im": c.imag}, "state": state_to_json(s)}
                for c, s in state.terms
            ],
        }
    raise TypeError(f"unsupported state type: {type(state)}")


def state_label(state: StateSpec) -> str:
    """Short human-readable tag used in logs and benchmark tables."""
    if isinstance(state, FockState):
        return f"fock({state.n})"
    if isinstance(state, CoherentState):
        return f"coherent({state.u:.3g})"
    if isinstance(state, Superposition):
        return f"superposition[{len(state.terms)}]"
    return repr(state)
