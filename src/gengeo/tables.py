"""Structure constants for the vectorized pointwise form algebra.

The grid backends re-implement nothing: the Clifford, d and Mukai tables
are generated once per dimension by evaluating the exact symbolic kernel
on constant basis forms, the Q-forms are composed from the Clifford and
Mukai tables, and all are frozen as integer index arrays for numpy.  That
keeps the float path and the rational path definitionally consistent.

The kernels write the first term of each output component in place and fold
signs, Q's +-4 and P's +-1 into additions, subtractions or one power-of-two
scaling.  Each result equals a zero-fill-and-add loop bit for bit, except that
an exact zero may come out as -0 where that loop gave +0.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from .algebra import Chart
from .forms import MixedForm, mukai_pairing, wedge
from .generalized import GenSection, clifford_act

Entry = tuple[int, int, int, int]  # (slot, src, dst, sign)


class FormTables:
    """Index tables for forms of one parity on an n-dimensional chart.

    Basis order: index tuples sorted by (degree, lex).  Section slots:
    0..n-1 are the coordinate vector fields, n..2n-1 the coordinate
    1-forms.
    """

    def __init__(self, dim: int):
        self.dim = dim
        chart = Chart(dim)
        all_idx = [idx for k in range(dim + 1) for idx in combinations(range(dim), k)]
        self.even_idx = sorted((i for i in all_idx if len(i) % 2 == 0), key=lambda i: (len(i), i))
        self.odd_idx = sorted((i for i in all_idx if len(i) % 2 == 1), key=lambda i: (len(i), i))
        self.pos = {idx: (len(idx) % 2, k)
                    for parity, basis in ((0, self.even_idx), (1, self.odd_idx))
                    for k, idx in enumerate(basis)}
        self.n_even = len(self.even_idx)
        self.n_odd = len(self.odd_idx)

        # Per source parity, for each basis index src:
        # - clifford: slot s applied to basis src yields sign * dst of the opposite parity;
        # - ext: dx_i ^ (basis src) -> sign * dst, consumed by grid d;
        # - mukai[(pa, pb)]: the sign of <src, b>, nonzero only for b the complement
        #   of src (parity-mixed pairs in odd dim, same-parity pairs in even dim).
        self.clifford: dict[int, list[Entry]] = {0: [], 1: []}
        self.ext: dict[int, list[Entry]] = {0: [], 1: []}
        self.mukai: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        sections = [GenSection.basis(chart, s) for s in range(2 * dim)]

        def add(entries: list[Entry], key: int, src: int, out: MixedForm) -> None:
            for out_idx, coeff in out.terms.items():
                entries.append((key, src, self.pos[out_idx][1], int(coeff.constant_value())))

        for parity, basis in ((0, self.even_idx), (1, self.odd_idx)):
            for src, idx in enumerate(basis):
                form = MixedForm.basis(chart, idx)
                for slot, sec in enumerate(sections):
                    add(self.clifford[parity], slot, src, clifford_act(sec, form))
                for i in range(dim):
                    add(self.ext[parity], i, src, wedge(MixedForm.basis(chart, (i,)), form))
                complement = tuple(i for i in range(dim) if i not in idx)
                pb, b = self.pos[complement]
                val = mukai_pairing(form, MixedForm.basis(chart, complement))
                self.mukai.setdefault((parity, pb), []).append((src, b, int(val.constant_value())))

    @cached_property
    def clifford_by_dst(self) -> dict[int, list[list[Entry]]]:
        """clifford[parity] split by output component, each in table order, with dst
        set to 0: ``clifford_apply(section, form, parity, (buf,), term, entries)`` with
        ``entries = clifford_by_dst[parity][dst]`` writes component dst into ``buf``,
        bitwise the full action's."""
        by_dst = {0: [[] for _ in range(self.n_odd)], 1: [[] for _ in range(self.n_even)]}
        for parity, entries in self.clifford.items():
            for slot, src, dst, s in entries:
                by_dst[parity][dst].append((slot, src, 0, s))
        return by_dst

    # -- vectorized operations (leading axis = component, rest = grid) -----

    def _accumulate(self, entries: list[Entry], form: np.ndarray, parity: int,
                    fill: Callable[[np.ndarray, int, np.ndarray, bool], object],
                    out: np.ndarray | None, term: np.ndarray | None,
                    sign: int = 1) -> np.ndarray:
        """Sum sign * s * fill(form[src], key) into out[dst] over entries (key, src,
        dst, s) in order; None buffers are allocated.  fill(comp, key, buf, negate)
        writes the term, negated if ``negate``, into ``buf``: out[dst] itself for the
        first term of each dst, ``term`` for the later ones, which are then added or
        subtracted.  Only components of ``out`` (any sequence of components) that no
        entry touches are zeroed."""
        if out is None:
            n_out = self.n_odd if parity == 0 else self.n_even
            out = np.empty((n_out,) + form.shape[1:], form.dtype)
        term = np.empty(form.shape[1:], form.dtype) if term is None else term
        written = set()
        for key, src, dst, s in entries:
            if dst in written:
                fill(form[src], key, term, False)
                (np.add if s * sign > 0 else np.subtract)(out[dst], term, out=out[dst])
            else:
                fill(form[src], key, out[dst], s * sign < 0)
                written.add(dst)
        for dst in set(range(len(out))) - written:
            out[dst].fill(0)
        return out

    def clifford_apply(self, section: np.ndarray, form: np.ndarray, parity: int,
                       out: np.ndarray | None = None, term: np.ndarray | None = None,
                       entries: list[Entry] | None = None) -> np.ndarray:
        """(X + xi) . form for numeric fields; returns the opposite parity, written
        into ``out`` if given, with ``term`` (one component) as scratch.  ``entries``, a
        subset of ``clifford[parity]`` (or one ``clifford_by_dst`` list) that keeps each
        output component's terms in table order, may leave out the slots on which the
        section vanishes; a slot of ``section`` may be a float constant."""
        entries = self.clifford[parity] if entries is None else entries
        return self._accumulate(entries, form, parity, _clifford_fill(section), out, term)

    def d_apply(self, form: np.ndarray, parity: int,
                derivative: Callable[[np.ndarray, int, np.ndarray, bool], object],
                out: np.ndarray | None = None, term: np.ndarray | None = None,
                sign: int = 1) -> np.ndarray:
        """d(sign * form), sign = +-1, in one pass over ext, written into ``out`` if
        given: derivative(form[src], i, buf, negate) writes d(form[src])/dx_i, negated
        if ``negate``, into ``buf``.  The sign only swaps additions and subtractions.
        ext is src-major, so form[src] is read for src = 0, 1, ... in turn (a source
        with no entry, such as the top-degree one, is never read): ``form`` may build
        each component when it is first read."""
        return self._accumulate(self.ext[parity], form, parity, derivative, out, term, sign)


def _clifford_fill(section) -> Callable[[np.ndarray, int, np.ndarray, bool], None]:
    """The Clifford term section[slot] * comp, negated in place after the product (the
    same bits as the product with -comp, without a negated copy of comp)."""
    def fill(comp: np.ndarray, slot: int, t: np.ndarray, negate: bool) -> None:
        np.multiply(section[slot], comp, out=t)
        if negate:
            np.negative(t, out=t)
    return fill


class QTables:
    """Quadratic forms behind Q(phi) on a five-dimensional chart.

    q_entries[slot] lists (a, b, coeff) with component_slot(phi) =
    sum coeff * phi_a * phi_b = 2 <e_slot . phi, phi>, phi even.
    q_pairs[slot] is the same sum with the (a, b) and (b, a) terms merged.
    """

    def __init__(self):
        self.dim = dim = 5
        forms = form_tables(dim)
        self.forms = forms
        # e_s . e_a = sign * (odd c), and <odd c, even b> is nonzero only for the
        # complement b of c.  Pairing against dx_i reads off X^i, pairing against
        # d/dx_i reads off xi_i, so output slot `s + dim` (mod 2 dim) is fed by e_s.
        partner = {c: (b, sign) for c, b, sign in forms.mukai[(1, 0)]}
        self.q_entries: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * dim)]
        for s, a, c, sign in forms.clifford[0]:
            b, mukai_sign = partner[c]
            self.q_entries[(s + dim) % (2 * dim)].append((a, b, 2 * sign * mukai_sign))
        for entries in self.q_entries:
            entries.sort()
        self.q_pairs: list[list[tuple[int, int, int]]] = []
        for entries in self.q_entries:
            merged: dict[tuple[int, int], int] = {}
            for a, b, coeff in entries:
                key = (min(a, b), max(a, b))
                merged[key] = merged.get(key, 0) + coeff
            self.q_pairs.append([(a, b, coeff) for (a, b), coeff in merged.items() if coeff])

    def q_apply(self, phi: np.ndarray, out: np.ndarray | None = None,
                term: np.ndarray | None = None) -> np.ndarray:
        """Densitized Q(phi): slots [X^1..X^5, xi_1..xi_5], written into ``out``
        if given, with ``term`` (one component) as scratch.  Every merged coefficient
        is +-4: a slot sums +-phi_a * phi_b relative to its first coefficient c, then
        is scaled by c, which commutes with rounding (barring overflow and subnormals)."""
        out = np.empty((2 * self.dim,) + phi.shape[1:], phi.dtype) if out is None else out
        term = np.empty(phi.shape[1:], phi.dtype) if term is None else term
        for slot, ((a, b, first), *rest) in enumerate(self.q_pairs):
            acc = out[slot]
            np.multiply(phi[a], phi[b], out=acc)
            for a, b, coeff in rest:
                np.multiply(phi[a], phi[b], out=term)
                (np.add if coeff == first else np.subtract)(acc, term, out=acc)
            acc *= first
        return out

    def p_apply(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Densitized symmetric P(phi, psi).  Every q_entries coefficient is +-2, so
        its half (+-1) is applied exactly as an addition or a subtraction."""
        out = np.zeros((2 * self.dim,) + phi.shape[1:], dtype=phi.dtype)
        term = np.empty((2,) + phi.shape[1:], dtype=phi.dtype)
        for slot, entries in enumerate(self.q_entries):
            acc = out[slot]
            for a, b, coeff in entries:
                np.multiply(phi[a], psi[b], out=term[0])
                np.multiply(psi[a], phi[b], out=term[1])
                term[0] += term[1]
                (np.add if coeff > 0 else np.subtract)(acc, term[0], out=acc)
        return out


def section_dim(u, v) -> int:
    """dim of two sections of 2 dim slot fields each; other slot counts are a ValueError."""
    if len(u) != len(v) or len(u) % 2:
        raise ValueError(f"sections need the same even number of slots, got {len(u)} and {len(v)}")
    return len(u) // 2


def section_inner(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None,
                  term: np.ndarray | None = None) -> np.ndarray:
    """Pointwise (u, v) = (i_{X_u} xi_v + i_{X_v} xi_u)/2 for sections of 2 dim slot
    fields, written into ``out`` if given, with ``term`` (two fields) as scratch."""
    dim = section_dim(u, v)
    out = np.empty(u.shape[1:], u.dtype) if out is None else out
    term = np.empty((2,) + u.shape[1:], u.dtype) if term is None else term
    for i in range(dim):
        pair = term[0] if i else out        # the first pair is summed in place
        np.multiply(u[i], v[dim + i], out=pair)
        np.multiply(v[i], u[dim + i], out=term[1])
        pair += term[1]
        if i:
            out += pair
    out *= 0.5
    return out


@lru_cache(maxsize=None)
def form_tables(dim: int) -> FormTables:
    return FormTables(dim)


@lru_cache(maxsize=None)
def q_tables() -> QTables:
    return QTables()
