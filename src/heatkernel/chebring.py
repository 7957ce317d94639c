"""The ring of Laurent polynomials generated by w = (x + 1/x)/2 and the
curve function v, together with the Chebyshev / Lagrange machinery used to
certify membership.  Laurent polynomials in x are PolyFractions over a power
of x.

Membership of a Laurent polynomial f(x) in C[w, v] is decided
constructively: f is rewritten as A(w) + B(w) x, and if (w-1)^R (w+1)^S
divides B the x-part is converted through

    (w-1)^R (w+1)^S x = v + w (w-1)^R (w+1)^S,

yielding an explicit certificate (A', B') with f = A'(w) + B'(w) v that is
re-verified by exact substitution before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactcore import Poly, PolyFraction, rat

W = "w"


class NodeCollision(ValueError):
    """Interpolation nodes are not admissible (repeats, zeros or +/- pairs)."""


class NotMember:
    """Returned when a Laurent polynomial lies outside C[w, v]."""

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"NotMember({self.reason!r})"


@dataclass(frozen=True)
class NodeSet:
    """Distinct nonzero integer nodes s_0..s_T with no opposite pairs."""

    nodes: tuple[int, ...]

    def __init__(self, nodes):
        ns = tuple(int(s) for s in nodes)
        if len(set(ns)) != len(ns):
            raise NodeCollision(f"repeated nodes in {ns}")
        if any(s == 0 for s in ns):
            raise NodeCollision("nodes must be nonzero")
        if any(a + b == 0 for i, a in enumerate(ns) for b in ns[i + 1:]):
            raise NodeCollision(f"opposite pair in {ns}")
        object.__setattr__(self, "nodes", ns)

    @property
    def T(self) -> int:
        return len(self.nodes) - 1

    @property
    def same_parity(self) -> bool:
        return len({s % 2 for s in self.nodes}) == 1


def chebyshev_U(k: int) -> Poly:
    """Chebyshev polynomial of the second kind, with U_{-1} = 0."""
    if k < -1:
        raise ValueError("order must be >= -1")
    if k == -1:
        return Poly(W)
    prev = Poly(W)            # U_{-1}
    cur = Poly.const(W, 1)    # U_0
    two_w = Poly(W, [0, 2])
    for _ in range(k):
        prev, cur = cur, two_w * cur - prev
    return cur


def _weight(nodes: tuple[int, ...] | tuple[Fraction, ...], k: int) -> Fraction:
    """1 / (s_k * prod_{j != k} (s_k^2 - s_j^2))."""
    s = nodes[k]
    denom = Fraction(s)
    for j, t in enumerate(nodes):
        if j != k:
            denom *= Fraction(s) ** 2 - Fraction(t) ** 2
    return 1 / denom


def lagrange_vanishing_sum(q: Poly, nodes) -> Fraction:
    """Sum of q(s_k) / (s_k prod_{j!=k}(s_k^2 - s_j^2)) over the nodes.

    For an odd q of degree <= 2T-1 and T+1 distinct positive nodes the value
    is exactly zero; the computed value is returned so callers can also probe
    the failure of the degree condition.
    """
    pts = tuple(rat(s) for s in nodes)
    if len(set(pts)) != len(pts):
        raise NodeCollision(f"repeated nodes in {nodes}")
    total = Fraction(0)
    for k in range(len(pts)):
        total += q.subs(pts[k]) * _weight(pts, k)
    return total


def interp_Q(nodes: NodeSet) -> Poly:
    """The node-weighted combination of U_{s_k - 1}.

    Divisible by (w-1)^T, and by (w^2-1)^T when all nodes share parity; both
    divisibilities are asserted before returning.
    """
    ns = nodes.nodes
    if any(s <= 0 for s in ns):
        raise NodeCollision("interp_Q needs positive integer nodes")
    out = Poly(W)
    for k, s in enumerate(ns):
        out = out + chebyshev_U(s - 1).scale(_weight(ns, k))
    T = nodes.T
    _, rem = divmod(out, Poly(W, [-1, 1]) ** T)
    if not rem.is_zero():
        raise AssertionError("(w-1)^T does not divide the interpolation polynomial")
    if nodes.same_parity:
        _, rem = divmod(out, Poly(W, [-1, 0, 1]) ** T)
        if not rem.is_zero():
            raise AssertionError("(w^2-1)^T does not divide despite equal parity")
    return out


def F_build(nodes: NodeSet) -> PolyFraction:
    """The Laurent polynomial sum of x^{s_k} / (s_k prod_{j!=k}(s_k^2 - s_j^2))."""
    ns = nodes.nodes
    return PolyFraction.laurent("x", {s: _weight(ns, k) for k, s in enumerate(ns)})


def reduce_to_wx(f: PolyFraction) -> tuple[Poly, Poly]:
    """Rewrite f(x) as A(w) + B(w) x under w = (x + 1/x)/2.

    Positive powers use x^k = U_{k-1}(w) x - U_{k-2}(w); negative powers the
    mirrored form x^{-k} = U_k(w) - U_{k-1}(w) x.
    """
    A = Poly(W)
    B = Poly(W)
    for e, c in f.laurent_terms().items():
        if e == 0:
            A = A + Poly.const(W, c)
        elif e > 0:
            B = B + chebyshev_U(e - 1).scale(c)
            A = A - chebyshev_U(e - 2).scale(c)
        else:
            A = A + chebyshev_U(-e).scale(c)
            B = B - chebyshev_U(-e - 1).scale(c)
    return A, B


def w_of_x() -> PolyFraction:
    """w = (x + 1/x)/2 as a Laurent polynomial in x."""
    return PolyFraction.laurent("x", {1: Fraction(1, 2), -1: Fraction(1, 2)})


def v_of_x(R: int, S: int) -> PolyFraction:
    """v = (x-1)^{2R+1} (x+1)^{2S+1} / (2^{R+S+1} x^{R+S+1}) as a Laurent polynomial."""
    K = R + S
    p = Poly("x", [-1, 1]) ** (2 * R + 1) * Poly("x", [1, 1]) ** (2 * S + 1)
    return PolyFraction(p, Poly.from_ints("x", [0] * (K + 1) + [2 ** (K + 1)]))


@dataclass(frozen=True)
class WVCertificate:
    """Witness that a Laurent polynomial equals A(w) + B(w) v."""

    A: Poly
    B: Poly
    R: int
    S: int

    def substitute(self) -> PolyFraction:
        """Expand the certificate back into a Laurent polynomial of x."""
        wx = w_of_x()
        return self.A.subs(wx) + self.B.subs(wx) * v_of_x(self.R, self.S)

    def to_json(self) -> dict:
        return {
            "A": self.A.to_strings(),
            "B": self.B.to_strings(),
            "R": self.R,
            "S": self.S,
        }


def av_membership(f: PolyFraction, R: int, S: int) -> WVCertificate | NotMember:
    """Constructive membership test of f in C[w, v].

    Returns a WVCertificate (already verified by substitution) or NotMember
    when the (w-1)^R (w+1)^S divisibility of the x-part fails.
    """
    A, B = reduce_to_wx(f)
    divisor = (Poly(W, [-1, 1]) ** R) * (Poly(W, [1, 1]) ** S)
    C, rem = divmod(B, divisor)
    if not rem.is_zero():
        return NotMember("x-part not divisible by (w-1)^R (w+1)^S")
    wvar = Poly.variable(W)
    A_prime = A + wvar * C * divisor
    cert = WVCertificate(A=A_prime, B=C, R=R, S=S)
    if cert.substitute() != f:
        raise AssertionError("certificate failed substitution check")
    return cert
