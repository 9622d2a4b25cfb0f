"""Linear integer/real arithmetic by interval (bound) propagation.

The verification conditions emitted by the Gillian-Rust pipeline only
need a light arithmetic theory: machine-integer range invariants
(``0 <= x < 2^64``), sequence length facts (``len >= 0``), capacity
bounds (``k < n``) and lifetime-token fractions (``0 < q <= 1``). All
of these are conjunctions of linear inequalities, which bound
propagation decides well in practice.

A constraint is stored in the normal form ``sum(c_i * a_i) + k <= 0``
(or ``< 0``), where the atoms ``a_i`` are canonical representatives of
non-literal terms from the congruence closure. Propagation repeatedly
derives variable bounds from constraints whose other atoms are bounded;
collapsed bounds (``lo == hi``) are exported back to the equality core.

Coefficients and constants are kept as plain ``int`` whenever they are
integral and only promoted to :class:`fractions.Fraction` when a real
(lifetime-fraction) atom or a non-integral division forces it — int
arithmetic is several times cheaper and the VCs are overwhelmingly
integral. Division always goes through :func:`_exact_div`, so results
stay exact rationals (never floats).

The store is *backtrackable*: :meth:`push` opens a frame, :meth:`pop`
undoes every constraint addition and bound tightening since the
matching push (the incremental Fourier-Motzkin frontier is rewound
with it). The DNF search uses this to share the common-prefix store
between sibling branches.

All inferences are sound, so an UNSAT answer is trustworthy; the store
is deliberately incomplete (it is not a simplex) and may fail to detect
some unsatisfiable constraint sets, which only makes the verifier more
conservative, never wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from repro.solver.sorts import INT, REAL
from repro.solver.terms import App, IntLit, RealLit, Term, intlit

_MAX_ROUNDS = 30
_MAX_CONSTRAINTS = 400

#: Exact rational: plain int when integral, Fraction otherwise.
Rat = Union[int, Fraction]


def _exact_div(a: Rat, b: Rat) -> Rat:
    """``a / b`` as an exact rational (int / int must not hit floats)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return a / b


@dataclass
class LinConstraint:
    """``sum(coeffs[a] * a) + const {<=,<} 0``."""

    coeffs: dict[Term, Rat]
    const: Rat
    strict: bool
    #: Fourier-Motzkin derivation depth (0 = asserted directly).
    depth: int = 0

    def key(self) -> tuple:
        k = self._key
        if k is None:
            k = (frozenset(self.coeffs.items()), self.const, self.strict)
            self._key = k
        return k

    def __post_init__(self) -> None:
        self._key: Optional[tuple] = None


@dataclass
class Bounds:
    lo: Optional[Rat] = None
    hi: Optional[Rat] = None
    lo_strict: bool = False
    hi_strict: bool = False

    def empty(self, integral: bool) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if integral:
            lo = _int_floor_lo(self)
            hi = _int_ceil_hi(self)
            return lo is not None and hi is not None and lo > hi
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_strict or self.hi_strict)


def _int_floor_lo(b: Bounds) -> Optional[int]:
    if b.lo is None:
        return None
    lo = math.ceil(b.lo)
    if b.lo_strict and lo == b.lo:
        lo += 1
    return lo


def _int_ceil_hi(b: Bounds) -> Optional[int]:
    if b.hi is None:
        return None
    hi = math.floor(b.hi)
    if b.hi_strict and hi == b.hi:
        hi -= 1
    return hi


def linearize(t: Term) -> tuple[dict[Term, Rat], Rat]:
    """Decompose a numeric term into ``(atom coefficients, constant)``.

    Non-linear subterms (products of two non-literals, div, mod, len
    applications, ...) are kept opaque as atoms.
    """
    coeffs: dict[Term, Rat] = {}
    const: Rat = 0

    def go(u: Term, scale: Rat) -> None:
        nonlocal const
        if isinstance(u, IntLit):
            const += scale * u.value
        elif isinstance(u, RealLit):
            const += scale * u.value
        elif isinstance(u, App) and u.op == "+":
            for a in u.args:
                go(a, scale)
        elif isinstance(u, App) and u.op == "neg":
            go(u.args[0], -scale)
        elif isinstance(u, App) and u.op == "*":
            lhs, rhs = u.args
            if isinstance(rhs, (IntLit, RealLit)):
                go(lhs, scale * rhs.value)
            elif isinstance(lhs, (IntLit, RealLit)):
                go(rhs, scale * lhs.value)
            else:
                coeffs[u] = coeffs.get(u, 0) + scale
        else:
            coeffs[u] = coeffs.get(u, 0) + scale

    go(t, 1)
    return {a: c for a, c in coeffs.items() if c != 0}, const


# Trail entry tags.
_T_BOUND = 0  # (tag, bounds, lo, lo_strict, hi, hi_strict)
_T_BOUND_NEW = 1  # (tag, atom)
_T_SEEN = 2  # (tag, key)


@dataclass
class LinearStore:
    """Constraint store with bound propagation."""

    constraints: list[LinConstraint] = field(default_factory=list)
    bounds: dict[Term, Bounds] = field(default_factory=dict)
    conflict: bool = False
    conflict_reason: Optional[str] = None
    # Equalities discovered by bound collapse, to feed back to the CC.
    pending_eqs: list[tuple[Term, Term]] = field(default_factory=list)
    _seen: set = field(default_factory=set)
    # Constraints before this index have been pairwise-combined.
    _fm_frontier: int = 0
    # atom -> constraints mentioning it (the propagation dependency
    # index; drives the dirty work-list).
    _atom_cons: dict = field(default_factory=dict)
    # Constraints awaiting (re)propagation: newly added ones plus every
    # constraint sharing an atom with a tightened bound. Propagation is
    # demand-driven — a propagate() call with an empty work-list is a
    # near no-op, which is what makes searching on top of an
    # already-closed cached prefix (Solver._decide) cheap.
    _queue: list = field(default_factory=list)
    _queued: set = field(default_factory=set)
    # -- backtracking: mutation records since the last push().
    _trail: list = field(default_factory=list)
    _frames: list = field(default_factory=list)

    # -- backtracking -------------------------------------------------------

    def push(self) -> None:
        """Open an undo frame; every later mutation is recorded."""
        self._frames.append(
            (
                len(self._trail),
                len(self.constraints),
                self.conflict,
                self.conflict_reason,
                self._fm_frontier,
                list(self.pending_eqs),
                list(self._queue),
            )
        )

    def pop(self) -> None:
        """Undo every mutation since the matching :meth:`push`."""
        (
            mark, n_cons, conflict, reason, frontier, pending, queue,
        ) = self._frames.pop()
        trail = self._trail
        while len(trail) > mark:
            e = trail.pop()
            tag = e[0]
            if tag == _T_BOUND:
                b = e[1]
                b.lo, b.lo_strict, b.hi, b.hi_strict = e[2], e[3], e[4], e[5]
            elif tag == _T_BOUND_NEW:
                del self.bounds[e[1]]
            else:  # _T_SEEN
                self._seen.discard(e[1])
        # Unindex the removed constraints. They were appended last, so
        # they sit at the tail of each of their atoms' dependency lists.
        for c in reversed(self.constraints[n_cons:]):
            for a in c.coeffs:
                self._atom_cons[a].pop()
        del self.constraints[n_cons:]
        self.conflict = conflict
        self.conflict_reason = reason
        self._fm_frontier = frontier
        self.pending_eqs = pending
        self._queue = queue
        self._queued = {id(c) for c in queue}

    def assert_le(self, lhs: Term, rhs: Term, strict: bool) -> None:
        """Assert ``lhs <= rhs`` (or ``<``)."""
        coeffs_l, const_l = linearize(lhs)
        coeffs_r, const_r = linearize(rhs)
        coeffs = dict(coeffs_l)
        for a, c in coeffs_r.items():
            coeffs[a] = coeffs.get(a, 0) - c
        coeffs = {a: c for a, c in coeffs.items() if c != 0}
        const = const_l - const_r
        integral = lhs.sort == INT and rhs.sort == INT
        if integral and strict:
            # a < b over Z is a <= b - 1.
            const += 1
            strict = False
        self._add(LinConstraint(coeffs, const, strict), integral)

    def assert_eq(self, lhs: Term, rhs: Term) -> None:
        self.assert_le(lhs, rhs, strict=False)
        self.assert_le(rhs, lhs, strict=False)

    def _add(self, c: LinConstraint, integral: bool) -> None:
        if self.conflict:
            return
        key = c.key()
        if key in self._seen:
            return
        self._seen.add(key)
        if self._frames:
            self._trail.append((_T_SEEN, key))
        if not c.coeffs:
            if c.const > 0 or (c.strict and c.const == 0):
                self.conflict = True
                self.conflict_reason = f"trivially false: {c.const} <= 0"
            return
        self.constraints.append(c)
        trailing = bool(self._frames)
        for a in c.coeffs:
            if a not in self.bounds:
                self.bounds[a] = Bounds()
                if trailing:
                    self._trail.append((_T_BOUND_NEW, a))
            self._atom_cons.setdefault(a, []).append(c)
        self._enqueue(c)

    def _enqueue(self, c: LinConstraint) -> None:
        if id(c) not in self._queued:
            self._queued.add(id(c))
            self._queue.append(c)

    def _wake_dependents(self, atom: Term) -> None:
        """A bound of ``atom`` tightened: every constraint mentioning it
        may now derive more."""
        for c in self._atom_cons.get(atom, ()):
            self._enqueue(c)

    # -- propagation --------------------------------------------------------

    def propagate(self) -> bool:
        """Run bound propagation to (bounded) fixpoint.

        Work-list driven: only constraints that are new or share an
        atom with a bound tightened since the last call are processed
        (tightening an atom re-wakes its dependents, so the fixpoint
        reached is the same as a full re-scan). A call with nothing
        pending costs two comparisons — closing a branch on top of an
        already-closed prefix only pays for the cone of the new
        assertions.

        Returns True if any bound changed (meaning callers may want to
        re-run after feeding back equalities).
        """
        changed_any = False
        # Generous divergence backstop, equivalent in spirit to the old
        # full-scan round cap: no realistic query re-processes a
        # constraint this many times.
        steps_left = _MAX_ROUNDS * max(len(self.constraints), 8)
        while True:
            if self.conflict:
                return changed_any
            progressed = False
            queue, self._queue, self._queued = self._queue, [], set()
            for i, c in enumerate(queue):
                if self._propagate_constraint(c):
                    progressed = True
                if self.conflict:
                    # Preserve the rest of the work-list: pop() must be
                    # able to restore a coherent pending state.
                    for rest in queue[i + 1:]:
                        self._enqueue(rest)
                    return True
                steps_left -= 1
                if steps_left <= 0:
                    for rest in queue[i + 1:]:
                        self._enqueue(rest)
                    self._collapse_equalities()
                    return True
            if self._fourier_motzkin():
                progressed = True
            if progressed:
                changed_any = True
            if not progressed and not self._queue:
                break
        self._collapse_equalities()
        return changed_any

    def _fourier_motzkin(self) -> bool:
        """Incremental pairwise variable elimination.

        Bound propagation alone cannot refute relational systems such as
        ``x - y <= 4  ∧  y - x <= -5`` when both variables are unbounded;
        combining opposite-signed occurrences closes that gap. Each
        constraint is combined against the ones before it exactly once
        (a frontier index), so repeated propagate() calls stay cheap —
        and the frontier is rewound by pop(), so sibling branches only
        redo combinations involving their own constraints.
        """
        if len(self.constraints) > _MAX_CONSTRAINTS:
            return False
        added = False
        while self._fm_frontier < len(self.constraints):
            c1 = self.constraints[self._fm_frontier]
            self._fm_frontier += 1
            for c2 in self.constraints[: self._fm_frontier - 1]:
                if c1.depth + c2.depth >= 4:
                    continue  # bound the combination closure
                shared = [
                    a
                    for a in c1.coeffs
                    if a in c2.coeffs and (c1.coeffs[a] > 0) != (c2.coeffs[a] > 0)
                ]
                for a in shared:
                    k1, k2 = abs(c2.coeffs[a]), abs(c1.coeffs[a])
                    coeffs: dict[Term, Rat] = {}
                    for atom, c in c1.coeffs.items():
                        coeffs[atom] = coeffs.get(atom, 0) + k1 * c
                    for atom, c in c2.coeffs.items():
                        coeffs[atom] = coeffs.get(atom, 0) + k2 * c
                    coeffs = {x: c for x, c in coeffs.items() if c != 0}
                    if len(coeffs) > 4:
                        continue
                    const = k1 * c1.const + k2 * c2.const
                    combined = LinConstraint(
                        coeffs, const, c1.strict or c2.strict,
                        depth=c1.depth + c2.depth + 1,
                    )
                    if combined.key() not in self._seen:
                        self._add(combined, integral=False)
                        added = True
                        if self.conflict:
                            return True
        return added

    def _propagate_constraint(self, c: LinConstraint) -> bool:
        # sum(ci * ai) + k <= 0  =>  cj*aj <= -k - sum_{i!=j}(ci*ai)
        changed = False
        bounds = self.bounds
        for target, ct in c.coeffs.items():
            rhs_hi = -c.const
            rhs_strict = c.strict
            feasible = True
            for a, ca in c.coeffs.items():
                if a is target:
                    continue
                b = bounds[a]
                if ca > 0:
                    # need lower bound of ca*a -> uses a.lo
                    if b.lo is None:
                        feasible = False
                        break
                    rhs_hi -= ca * b.lo
                    rhs_strict = rhs_strict or b.lo_strict
                else:
                    if b.hi is None:
                        feasible = False
                        break
                    rhs_hi -= ca * b.hi
                    rhs_strict = rhs_strict or b.hi_strict
            if not feasible:
                continue
            tb = bounds[target]
            if ct > 0:
                new_hi = _exact_div(rhs_hi, ct)
                if self._tighten_hi(target, tb, new_hi, rhs_strict):
                    changed = True
            else:
                new_lo = _exact_div(rhs_hi, ct)
                if self._tighten_lo(target, tb, new_lo, rhs_strict):
                    changed = True
            if tb.empty(integral=target.sort == INT):
                self.conflict = True
                self.conflict_reason = f"empty bounds for {target}: {tb}"
                return True
        return changed

    def _tighten_hi(self, atom: Term, b: Bounds, hi: Rat, strict: bool) -> bool:
        if b.hi is None or hi < b.hi or (hi == b.hi and strict and not b.hi_strict):
            if self._frames:
                self._trail.append(
                    (_T_BOUND, b, b.lo, b.lo_strict, b.hi, b.hi_strict)
                )
            b.hi = hi
            b.hi_strict = strict
            self._wake_dependents(atom)
            return True
        return False

    def _tighten_lo(self, atom: Term, b: Bounds, lo: Rat, strict: bool) -> bool:
        if b.lo is None or lo > b.lo or (lo == b.lo and strict and not b.lo_strict):
            if self._frames:
                self._trail.append(
                    (_T_BOUND, b, b.lo, b.lo_strict, b.hi, b.hi_strict)
                )
            b.lo = lo
            b.lo_strict = strict
            self._wake_dependents(atom)
            return True
        return False

    def _collapse_equalities(self) -> None:
        for a, b in self.bounds.items():
            if a.sort != INT:
                continue
            lo = _int_floor_lo(b)
            hi = _int_ceil_hi(b)
            if lo is not None and hi is not None and lo == hi:
                if not isinstance(a, IntLit):
                    self.pending_eqs.append((a, intlit(lo)))

    # -- queries ------------------------------------------------------------

    def value_range(self, t: Term) -> tuple[Optional[Rat], Optional[Rat]]:
        coeffs, const = linearize(t)
        lo: Optional[Rat] = const
        hi: Optional[Rat] = const
        for a, c in coeffs.items():
            b = self.bounds.get(a)
            if b is None:
                return (None, None)
            if c > 0:
                lo = None if (lo is None or b.lo is None) else lo + c * b.lo
                hi = None if (hi is None or b.hi is None) else hi + c * b.hi
            else:
                lo = None if (lo is None or b.hi is None) else lo + c * b.hi
                hi = None if (hi is None or b.lo is None) else hi + c * b.lo
        return (lo, hi)
