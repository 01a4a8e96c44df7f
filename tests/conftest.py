"""Shared fixtures: the field instances and a randomized algebra generator."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dcoh.algebras import (change_basis, direct_sum,
                           make_cyclic_group_algebra, make_mu_algebra,
                           make_split_algebra, make_truncated_algebra,
                           scalar_algebra)
from dcoh.fields import make_field


def assert_qq_normal_form(value):
    """A QQ raw value is an int when integral, else a Fraction with
    denominator > 1 (never a bool or a float)."""
    assert type(value) is int or (type(value) is Fraction and value.denominator > 1), value


@pytest.fixture
def QQ():
    return make_field("QQ")


@pytest.fixture
def shift_field():
    return make_field("QQ(t);shift")


@pytest.fixture
def subst_field():
    return make_field("QQ(t);subst:t^2")


@pytest.fixture
def gf4():
    return make_field("GF(4);frob^1")


@pytest.fixture
def gf9():
    return make_field("GF(9);frob^1")


def small_element(field, rng):
    """A block parameter that keeps structure-constant degrees tame."""
    if field.descriptor.startswith("QQ(t)"):
        return field.element(f"{rng.randint(-2, 2)}*t + {rng.randint(-2, 2)}")
    return field.random_element(rng)


def random_unit(field, rng):
    while True:
        x = small_element(field, rng)
        if not x.is_zero():
            return x


def random_mu_pair(field, rng):
    """(a, b) with sigma(a) = a*b^2: c^2 and sigma(c)/c times a base pair."""
    c = random_unit(field, rng)
    a = c * c
    b = c.sigma() / c
    if field.characteristic != 2 and rng.random() < 0.5:
        b = -b
    return a, b


def random_block(field, rng, max_dim: int):
    kind = rng.choice(["scalar", "mu", "split", "cyclic", "truncated"])
    if kind == "mu" and max_dim >= 2:
        a, b = random_mu_pair(field, rng)
        return make_mu_algebra(a, b)
    if kind == "split" and max_dim >= 2:
        m = rng.randint(2, min(3, max_dim))
        perm = list(range(m))
        rng.shuffle(perm)
        return make_split_algebra(field, m, perm)
    if kind == "cyclic" and max_dim >= 2:
        n = rng.randint(2, min(4, max_dim))
        j = rng.randint(0, n - 1)
        return make_cyclic_group_algebra(field, n, j)
    if kind == "truncated" and max_dim >= 2:
        n = rng.randint(2, min(3, max_dim))
        c = small_element(field, rng)
        return make_truncated_algebra(field, n, c)
    return scalar_algebra(field)


def random_basis_change(field, rng, m: int, polynomial: bool):
    """L * U with unit diagonals: determinant 1, so the inverse stays
    polynomial and table entries never grow denominators."""
    def entry():
        if polynomial and rng.random() < 0.5:
            return field.element(f"{rng.randint(-2, 2)}*t + {rng.randint(-2, 2)}")
        return field.element(rng.randint(-2, 2))

    one, zero = field.one(), field.zero()
    L = [[one if i == j else zero for j in range(m)] for i in range(m)]
    U = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            if i > j and rng.random() < 0.35:
                L[i][j] = entry()
            if i < j and rng.random() < 0.35:
                U[i][j] = entry()
    return [[sum((L[i][t] * U[t][j] for t in range(1, m)), L[i][0] * U[0][j])
             for j in range(m)] for i in range(m)]


def random_findim_algebra(field, rng: random.Random, max_dim: int = 6):
    """A validated random finite-dimensional sigma-algebra of dim <= max_dim."""
    target = rng.randint(1, max_dim)
    A = random_block(field, rng, target)
    while A.dim < target:
        room = target - A.dim
        if room < 1:
            break
        B = random_block(field, rng, room)
        if A.dim + B.dim > target:
            break
        A = direct_sum(A, B)
    polynomial = field.descriptor.startswith("QQ(t)") and A.dim <= 4
    if rng.random() < 0.7:
        A = change_basis(A, random_basis_change(field, rng, A.dim, polynomial))
    return A


def table_isomorphism_by_search(res, C0, A) -> bool:
    """Search an algebra isomorphism (descended invariants) -> C0, verify exactly.

    Candidates contract the A-slot with a functional theta supported on a
    single coordinate with theta(1) = 1; each candidate is checked for
    bijectivity, multiplicativity, sigma compatibility, and unit
    preservation, all by exact arithmetic.
    """
    from dcoh.algebras import AlgElement
    from dcoh.linalg import in_span

    field = C0.field
    unit = dict(A.unit_data())
    for pivot in A.index_list():
        if pivot not in unit:
            continue
        theta = {pivot: unit[pivot].inv()}

        def contract(x):
            out = {}
            for (c, a), coeff in x.data.items():
                if a in theta:
                    v = coeff * theta[a]
                    if not v.is_zero():
                        out[c] = out.get(c, field.zero()) + v
            return AlgElement(C0, {k: v for k, v in out.items() if not v.is_zero()})

        images = [contract(b) for b in res.basis_in_B]
        vecs = [C0.to_vector(img) for img in images]
        if any(in_span(vecs, C0.to_vector(C0.basis_element(i)), field) is None
               for i in C0.index_list()):
            continue
        B0 = res.invariants
        unit_in_b = None
        for coeff, vec in zip(B0._unit, res.basis_in_B):
            term = vec * coeff
            unit_in_b = term if unit_in_b is None else unit_in_b + term
        good = contract(unit_in_b) == C0.one()
        for i in range(B0.dim):
            if not good:
                break
            if images[i].sigma() != contract(res.basis_in_B[i].sigma()):
                good = False
            for j in range(B0.dim):
                if contract(res.basis_in_B[i] * res.basis_in_B[j]) != images[i] * images[j]:
                    good = False
                    break
        if good:
            return True
    return False
