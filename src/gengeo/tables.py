"""Structure constants for the vectorized pointwise form algebra.

The grid backends re-implement nothing: the Clifford, d and Mukai tables
are generated once per dimension by evaluating the exact symbolic kernel
on constant basis forms, the Q-forms are composed from the Clifford and
Mukai tables, and all are frozen as integer index arrays for numpy.  That
keeps the float path and the rational path definitionally consistent.
"""

from __future__ import annotations

from functools import lru_cache
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

    # -- vectorized operations (leading axis = component, rest = grid) -----

    def clifford_apply(self, section: np.ndarray, form: np.ndarray, parity: int) -> np.ndarray:
        """(X + xi) . form for numeric fields; returns the opposite parity."""
        n_out = self.n_odd if parity == 0 else self.n_even
        out = np.zeros((n_out,) + form.shape[1:], dtype=form.dtype)
        for slot, src, dst, sign in self.clifford[parity]:
            if sign == 1:
                out[dst] += section[slot] * form[src]
            else:
                out[dst] -= section[slot] * form[src]
        return out

    def d_apply(self, form: np.ndarray, parity: int,
                derivative: Callable[[np.ndarray, int, np.ndarray], object]) -> np.ndarray:
        """d(form) in one pass over ext: derivative(form[src], i, term) writes each
        d(form[src])/dx_i into one reusable buffer, added into out[dst] in ext order."""
        n_out = self.n_odd if parity == 0 else self.n_even
        out = np.zeros((n_out,) + form.shape[1:], dtype=form.dtype)
        term = np.empty(form.shape[1:], dtype=form.dtype)
        for i, src, dst, sign in self.ext[parity]:
            derivative(form[src], i, term)
            if sign == 1:
                out[dst] += term
            else:
                out[dst] -= term
        return out


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

    def q_apply(self, phi: np.ndarray) -> np.ndarray:
        """Densitized Q(phi): slots [X^1..X^5, xi_1..xi_5]."""
        out = np.zeros((2 * self.dim,) + phi.shape[1:], dtype=phi.dtype)
        term = np.empty(phi.shape[1:], dtype=phi.dtype)
        for slot, pairs in enumerate(self.q_pairs):
            acc = out[slot]
            for a, b, coeff in pairs:
                np.multiply(phi[a], coeff, out=term)
                term *= phi[b]
                acc += term
        return out

    def p_apply(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Densitized symmetric P(phi, psi)."""
        out = np.zeros((2 * self.dim,) + phi.shape[1:], dtype=phi.dtype)
        for slot, entries in enumerate(self.q_entries):
            acc = out[slot]
            for a, b, coeff in entries:
                acc += (coeff * 0.5) * (phi[a] * psi[b] + psi[a] * phi[b])
        return out


def section_inner(u: np.ndarray, v: np.ndarray, dim: int) -> np.ndarray:
    """Pointwise (u, v) = (i_{X_u} xi_v + i_{X_v} xi_u)/2 for numeric fields."""
    acc = np.zeros(u.shape[1:], dtype=u.dtype)
    for i in range(dim):
        acc += u[i] * v[dim + i] + v[i] * u[dim + i]
    return 0.5 * acc


@lru_cache(maxsize=None)
def form_tables(dim: int) -> FormTables:
    return FormTables(dim)


@lru_cache(maxsize=None)
def q_tables() -> QTables:
    return QTables()
