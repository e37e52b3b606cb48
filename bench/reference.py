"""High-precision Wigner reference for the benchmark's error metric.

The Wigner function is evaluated as the displaced-parity sum

    W(z) = exp(-2|z|^2) / (pi hbar) * sum_s (-1)^s |f^(s)(2z)|^2 / s!

with mpmath at DPS decimal digits, where f(w) = exp(|w|^2/2) <psi|w> is the
Bargmann function of the state and sqrt(2) z = q/b + i b p / hbar. The state
is read from the same JSON description the command line takes; nothing here
calls into bargwig, so the reference shares no arithmetic with the program.

The Bargmann function is antilinear in the state, so a superposition
sum_m c_m |m> has f = sum_m conj(c_m) f_m.
"""

from __future__ import annotations

import mpmath

DPS = 40


def _members(state: dict, normalize: bool):
    """[(coeff, kind, param)] with kind "fock" (param n) or "coherent" (param U)."""
    kind = state["type"]
    if kind == "fock":
        return [(mpmath.mpc(1), "fock", int(state["n"]))]
    if kind == "coherent":
        return [(mpmath.mpc(1), "coherent", mpmath.mpc(state.get("re", 0.0), state.get("im", 0.0)))]
    if kind != "superposition":
        raise ValueError(f"unknown state type {kind!r}")
    members = []
    for term in state["terms"]:
        coeff = mpmath.mpc(term["coeff"].get("re", 0.0), term["coeff"].get("im", 0.0))
        ((_, sub_kind, param),) = _members(term["state"], False)
        members.append((coeff, sub_kind, param))
    if normalize:
        scale = 1 / mpmath.sqrt(_norm_squared(members))
        members = [(c * scale, k, p) for c, k, p in members]
    return members


def _overlap(a, b) -> mpmath.mpc:
    """<a|b> for single Fock or coherent members."""
    (ka, pa), (kb, pb) = a, b
    if ka == "fock" and kb == "fock":
        return mpmath.mpc(1 if pa == pb else 0)
    if ka == "fock":  # <n|U>
        return mpmath.exp(-abs(pb) ** 2 / 2) * pb**pa / mpmath.sqrt(mpmath.factorial(pa))
    if kb == "fock":
        return mpmath.conj(_overlap(b, a))
    return mpmath.exp(-abs(pa) ** 2 / 2 - abs(pb) ** 2 / 2 + mpmath.conj(pa) * pb)


def _norm_squared(members) -> mpmath.mpf:
    total = mpmath.mpc(0)
    for ci, ki, pi in members:
        for cj, kj, pj in members:
            total += mpmath.conj(ci) * cj * _overlap((ki, pi), (kj, pj))
    return total.real


def _derivatives(members, w):
    """Yield f^(s)(w) for s = 0, 1, 2, ... with f = sum conj(c) f_member,
    together with an upper bound on |f^(s)(w)| from the coherent members,
    which decreases in s once s exceeds max |U|^2."""
    fock = [(mpmath.conj(c), n) for c, kind, n in members if kind == "fock"]
    coherent = [(mpmath.conj(c), mpmath.conj(u), mpmath.exp(mpmath.conj(u) * w - abs(u) ** 2 / 2))
                for c, kind, u in members if kind == "coherent"]
    s = 0
    while True:
        total = mpmath.mpc(0)
        for cc, n in fock:
            if s <= n:
                total += cc * mpmath.sqrt(mpmath.factorial(n)) * w ** (n - s) / mpmath.factorial(n - s)
        bound = mpmath.mpf(0)
        for cc, uc, e in coherent:
            val = cc * uc**s * e
            total += val
            bound += abs(val)
        yield total, bound
        s += 1


def wigner_reference(state: dict, q: float, p: float, b: float = 1.0, hbar: float = 1.0,
                     normalize: bool = True) -> float:
    """W(q, p) of the JSON-described state, correct to far beyond float64."""
    with mpmath.workdps(DPS):
        members = _members(state, normalize)
        z = (mpmath.mpf(q) / b + 1j * mpmath.mpf(b) * mpmath.mpf(p) / hbar) / mpmath.sqrt(2)
        w = 2 * z
        max_fock = max((n for _, kind, n in members if kind == "fock"), default=-1)
        max_u2 = max((abs(u) ** 2 for _, kind, u in members if kind == "coherent"), default=None)
        s_min = max(max_fock, 0 if max_u2 is None else int(2 * max_u2) + 1)
        cutoff = mpmath.mpf(10) ** (-DPS)
        total = mpmath.mpf(0)
        for s, (deriv, bound) in enumerate(_derivatives(members, w)):
            inv_fact = 1 / mpmath.factorial(s)
            term = abs(deriv) ** 2 * inv_fact
            total += -term if s % 2 else term
            # past s_min the coherent terms fall faster than geometrically
            # with ratio 1/2, so the rest of the sum is below twice this bound
            if s >= s_min and bound**2 * inv_fact < cutoff * (1 + abs(total)):
                break
        value = mpmath.exp(-2 * abs(z) ** 2) / (mpmath.pi * hbar) * total
        return float(value)
