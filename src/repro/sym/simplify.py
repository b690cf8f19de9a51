"""Canonical simplification and equality proving for symbolic expressions.

The simplifier normalizes an expression into a polynomial form: an integer
linear combination of *terms*, each term a product of *atoms* raised to
positive integer powers.  Atoms are symbolic variables or opaque
sub-expressions (floordiv / floormod / min / max) whose operands have been
recursively canonicalized.

This canonical form is what makes the paper's dynamic-shape machinery
practical: ``prove_equal(2*n + 2*n, n*4)`` (buffer-reuse decisions in memory
planning, Alg. 3) reduces to checking that the difference's canonical form
is the zero polynomial, in time linear in expression size.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .expr import (
    Add,
    ExprLike,
    FloorDiv,
    FloorMod,
    IntImm,
    Max,
    Min,
    Mul,
    PrimExpr,
    Sub,
    SymVar,
)

# A monomial maps atom-key -> (power, atom expression).
_Monomial = Tuple[Tuple[Tuple, int], ...]


class _Poly:
    """Σ coeff · Π atom^power, in canonical sorted order."""

    __slots__ = ("terms", "atoms")

    def __init__(self):
        # monomial-key -> integer coefficient
        self.terms: Dict[_Monomial, int] = {}
        # atom-key -> atom expression (for rebuilding)
        self.atoms: Dict[Tuple, PrimExpr] = {}

    @staticmethod
    def constant(value: int) -> "_Poly":
        poly = _Poly()
        if value != 0:
            poly.terms[()] = value
        return poly

    @staticmethod
    def atom(expr: PrimExpr) -> "_Poly":
        poly = _Poly()
        akey = expr.key()
        poly.atoms[akey] = expr
        poly.terms[((akey, 1),)] = 1
        return poly

    def _merge_atoms(self, other: "_Poly") -> None:
        for akey, expr in other.atoms.items():
            self.atoms.setdefault(akey, expr)

    def add(self, other: "_Poly", sign: int = 1) -> "_Poly":
        result = _Poly()
        result.terms = dict(self.terms)
        result.atoms = dict(self.atoms)
        result._merge_atoms(other)
        for mono, coeff in other.terms.items():
            new = result.terms.get(mono, 0) + sign * coeff
            if new == 0:
                result.terms.pop(mono, None)
            else:
                result.terms[mono] = new
        return result

    def mul(self, other: "_Poly") -> "_Poly":
        result = _Poly()
        result.atoms = dict(self.atoms)
        result._merge_atoms(other)
        for mono_a, coeff_a in self.terms.items():
            for mono_b, coeff_b in other.terms.items():
                mono = _merge_monomials(mono_a, mono_b)
                new = result.terms.get(mono, 0) + coeff_a * coeff_b
                if new == 0:
                    result.terms.pop(mono, None)
                else:
                    result.terms[mono] = new
        return result

    def is_zero(self) -> bool:
        return not self.terms

    def as_constant(self):
        """Return the int value if the poly is constant, else None."""
        if self.is_zero():
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        return None

    def key(self) -> Tuple:
        """Hashable canonical key for the whole polynomial."""
        return tuple(sorted((mono, coeff) for mono, coeff in self.terms.items()))

    def split_divisible(self, divisor: int) -> Tuple["_Poly", "_Poly"]:
        """Split into (quotient_part, remainder_part) for a constant divisor.

        Each coefficient is split with divmod: ``P == divisor*quot + rem``
        with every remainder coefficient in ``[0, divisor)``.  This backs the
        identity ``(x + a*c) // c == x // c + a`` (valid for any integer x
        and positive c), e.g. ``(5n)//4 == n + n//4``.
        """
        quot, rem = _Poly(), _Poly()
        quot.atoms = dict(self.atoms)
        rem.atoms = dict(self.atoms)
        for mono, coeff in self.terms.items():
            q, r = divmod(coeff, divisor)
            if q:
                quot.terms[mono] = q
            if r:
                rem.terms[mono] = r
        return quot, rem

    def to_expr(self) -> PrimExpr:
        """Rebuild a PrimExpr from the canonical form (deterministic order)."""
        if self.is_zero():
            return IntImm(0)
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factor: PrimExpr = None
            for akey, power in mono:
                atom = self.atoms[akey]
                for _ in range(power):
                    factor = atom if factor is None else Mul(factor, atom)
            if factor is None:
                parts.append(IntImm(coeff))
            elif coeff == 1:
                parts.append(factor)
            else:
                parts.append(Mul(IntImm(coeff), factor))
        result = parts[0]
        for part in parts[1:]:
            result = Add(result, part)
        return result


def _merge_monomials(a: _Monomial, b: _Monomial) -> _Monomial:
    powers: Dict[Tuple, int] = {}
    for akey, power in a:
        powers[akey] = powers.get(akey, 0) + power
    for akey, power in b:
        powers[akey] = powers.get(akey, 0) + power
    return tuple(sorted(powers.items()))


def _canonicalize(expr: PrimExpr) -> _Poly:
    if isinstance(expr, IntImm):
        return _Poly.constant(expr.value)
    if isinstance(expr, SymVar):
        return _Poly.atom(expr)
    if isinstance(expr, Add):
        return _canonicalize(expr.a).add(_canonicalize(expr.b))
    if isinstance(expr, Sub):
        return _canonicalize(expr.a).add(_canonicalize(expr.b), sign=-1)
    if isinstance(expr, Mul):
        return _canonicalize(expr.a).mul(_canonicalize(expr.b))
    if isinstance(expr, FloorDiv):
        return _canonicalize_floordiv(expr)
    if isinstance(expr, FloorMod):
        return _canonicalize_floormod(expr)
    if isinstance(expr, (Min, Max)):
        return _canonicalize_minmax(expr)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _canonicalize_floordiv(expr: FloorDiv) -> _Poly:
    num = _canonicalize(expr.a)
    den = _canonicalize(expr.b)
    den_const = den.as_constant()
    num_const = num.as_constant()
    if den_const is not None and den_const != 0 and num_const is not None:
        return _Poly.constant(num_const // den_const)
    if den_const is not None and den_const > 0:
        quot, rem = num.split_divisible(den_const)
        if rem.is_zero():
            return quot
        rem_const = rem.as_constant()
        if rem_const is not None:
            # Remainder coefficients are in [0, c), so a constant remainder
            # folds directly (e.g. (4x + 3) // 4 == x).
            return quot.add(_Poly.constant(rem_const // den_const))
        # (rem + quot*c) // c  ==  rem // c + quot
        atom = FloorDiv(rem.to_expr(), IntImm(den_const))
        return quot.add(_Poly.atom(atom))
    return _Poly.atom(FloorDiv(num.to_expr(), den.to_expr()))


def _canonicalize_floormod(expr: FloorMod) -> _Poly:
    num = _canonicalize(expr.a)
    den = _canonicalize(expr.b)
    den_const = den.as_constant()
    num_const = num.as_constant()
    if den_const is not None and den_const != 0 and num_const is not None:
        return _Poly.constant(num_const % den_const)
    if den_const is not None and den_const > 0:
        _, rem = num.split_divisible(den_const)
        if rem.is_zero():
            return _Poly.constant(0)
        rem_const = rem.as_constant()
        if rem_const is not None:
            return _Poly.constant(rem_const % den_const)
        return _Poly.atom(FloorMod(rem.to_expr(), IntImm(den_const)))
    return _Poly.atom(FloorMod(num.to_expr(), den.to_expr()))


def _canonicalize_minmax(expr: PrimExpr) -> _Poly:
    cls = type(expr)
    a = _canonicalize(expr.a)
    b = _canonicalize(expr.b)
    a_const, b_const = a.as_constant(), b.as_constant()
    if a_const is not None and b_const is not None:
        pick = min if cls is Min else max
        return _Poly.constant(pick(a_const, b_const))
    if a.add(b, sign=-1).is_zero():
        return a
    return _Poly.atom(cls(a.to_expr(), b.to_expr()))


def simplify(expr: ExprLike) -> PrimExpr:
    """Canonicalize ``expr`` into a deterministic simplified form."""
    return _canonicalize(PrimExpr.convert(expr)).to_expr()


def canonical_key(expr: ExprLike) -> Tuple:
    """Hashable canonical key: equal keys <=> provably equal expressions
    (within the fragment the canonicalizer decides)."""
    return _canonicalize(PrimExpr.convert(expr)).key()


def prove_equal(a: ExprLike, b: ExprLike) -> bool:
    """Prove ``a == b`` symbolically (sound; may return False on hard cases).

    This is the workhorse of dynamic shape-aware memory planning (Alg. 3,
    ``RequestReuseWithSymShape``) and of annotation compatibility checks.
    """
    a = PrimExpr.convert(a)
    b = PrimExpr.convert(b)
    diff = _canonicalize(Sub(a, b))
    return diff.is_zero()


def prove_divisible(expr: ExprLike, divisor: int) -> bool:
    """Prove ``expr`` is an integer multiple of a positive constant."""
    if divisor <= 0:
        raise ValueError("divisor must be positive")
    poly = _canonicalize(PrimExpr.convert(expr))
    _, rem = poly.split_divisible(divisor)
    return rem.is_zero()
