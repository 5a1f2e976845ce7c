"""The Mukai table is built from complementary index pairs only, and the Q tables
are composed from the Clifford and Mukai tables.  These tests rebuild every
table by exact evaluation over all basis pairs, the way the kernel defines
them, and compare entry for entry (order included)."""

from itertools import combinations

import pytest

from gengeo.algebra import Chart
from gengeo.forms import MixedForm, mukai_pairing, wedge
from gengeo.generalized import GenSection, clifford_act
from gengeo.tables import FormTables, QTables, form_tables


def reference_form_tables(dim):
    """Every attribute of FormTables(dim), each table from the exact kernel."""
    chart = Chart(dim)
    all_idx = [idx for k in range(dim + 1) for idx in combinations(range(dim), k)]
    even_idx = sorted((i for i in all_idx if len(i) % 2 == 0), key=lambda i: (len(i), i))
    odd_idx = sorted((i for i in all_idx if len(i) % 2 == 1), key=lambda i: (len(i), i))
    bases = ((0, even_idx), (1, odd_idx))
    pos = {idx: (parity, k) for parity, basis in bases for k, idx in enumerate(basis)}
    sections = [GenSection.basis(chart, s) for s in range(2 * dim)]
    clifford = {0: [], 1: []}
    ext = {0: [], 1: []}
    for parity, basis in bases:
        for src, idx in enumerate(basis):
            form = MixedForm.basis(chart, idx)
            for slot, sec in enumerate(sections):
                for out_idx, coeff in clifford_act(sec, form).terms.items():
                    clifford[parity].append((slot, src, pos[out_idx][1],
                                             int(coeff.constant_value())))
            for i in range(dim):
                for out_idx, coeff in wedge(MixedForm.basis(chart, (i,)), form).terms.items():
                    ext[parity].append((i, src, pos[out_idx][1], int(coeff.constant_value())))
    mukai = {}
    for pa, basis_a in bases:
        for pb, basis_b in bases:
            entries = []
            for a, ia in enumerate(basis_a):
                for b, ib in enumerate(basis_b):
                    cv = mukai_pairing(MixedForm.basis(chart, ia),
                                       MixedForm.basis(chart, ib)).constant_value()
                    if cv:
                        entries.append((a, b, int(cv)))
            if entries:
                mukai[(pa, pb)] = entries
    return {"dim": dim, "even_idx": even_idx, "odd_idx": odd_idx, "pos": pos,
            "n_even": len(even_idx), "n_odd": len(odd_idx), "clifford": clifford,
            "ext": ext, "mukai": mukai}


def reference_q_tables():
    """q_entries and q_pairs from 2 <e_dual . e_a, e_b> over all even basis pairs."""
    dim = 5
    chart = Chart(dim)
    even_idx = form_tables(dim).even_idx
    sections = [GenSection.basis(chart, s) for s in range(2 * dim)]
    q_entries = []
    for slot in range(2 * dim):
        entries = []
        for a, ia in enumerate(even_idx):
            acted = clifford_act(sections[(slot + dim) % (2 * dim)], MixedForm.basis(chart, ia))
            for b, ib in enumerate(even_idx):
                cv = mukai_pairing(acted, MixedForm.basis(chart, ib)).constant_value()
                if cv:
                    entries.append((a, b, 2 * int(cv)))
        q_entries.append(entries)
    q_pairs = []
    for entries in q_entries:
        merged = {}
        for a, b, coeff in entries:
            key = (min(a, b), max(a, b))
            merged[key] = merged.get(key, 0) + coeff
        q_pairs.append([(a, b, coeff) for (a, b), coeff in merged.items() if coeff])
    return {"dim": dim, "q_entries": q_entries, "q_pairs": q_pairs}


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_form_tables_equal_the_exact_evaluation(dim):
    tables, ref = FormTables(dim), reference_form_tables(dim)
    assert vars(tables) == ref
    assert list(tables.mukai) == list(ref["mukai"])      # key order as well


def test_q_tables_equal_the_exact_evaluation():
    qt = QTables()
    attrs = vars(qt)
    assert attrs.pop("forms") is form_tables(5)
    assert attrs == reference_q_tables()
