"""The known answers, checked against facts of finite group theory."""

import os
import random

import pytest

import oracle
from conftest import ROOT


def z2_4():
    G = oracle.cyclic(2)
    for _ in range(3):
        G = oracle.direct_product(G, oracle.cyclic(2))
    return G


@pytest.mark.parametrize(
    "group, subgroups, normal, classes",
    [
        (oracle.symmetric(3), 6, 3, 3),
        (oracle.dihedral(4), 10, 6, 5),
        (oracle.symmetric(4), 30, 4, 5),
        (z2_4(), 67, 67, 16),
        (oracle.dihedral(5), 8, 3, 4),
    ],
)
def test_subgroup_and_class_counts(group, subgroups, normal, classes):
    assert oracle.is_associative(group)
    assert len(oracle.subgroups(group)) == subgroups
    assert len(oracle.normal_subgroups(group)) == normal
    assert len(oracle.conjugacy_classes(group)) == classes


def test_relabelling_keeps_the_counts():
    G = oracle.relabel(oracle.symmetric(4), random.Random(7))
    assert oracle.is_associative(G)
    assert (len(oracle.subgroups(G)), len(oracle.normal_subgroups(G))) == (30, 4)


def test_catalog_groups_match_their_names():
    cat = os.path.join(ROOT, "catalog")
    assert len(oracle.subgroups(oracle.catalog_group(cat, "s3"))) == 6
    assert len(oracle.normal_subgroups(oracle.catalog_group(cat, "d4"))) == 6


def test_catalog_totals_are_the_pinned_ones():
    answers = oracle.catalog_answers(os.path.join(ROOT, "catalog"))
    assert sum(v[1] for v in answers.values()) == 36
    assert sum(v[2] for v in answers.values()) == 29
    assert answers["f_s3"] == (3, 6, 3)
    assert answers["c_s3"] == (6, 3, 3)
    assert answers["f_z3_rtimes_z2"] == (6, 3, 3)


@pytest.mark.parametrize("seed", range(5))
def test_random_loops_are_latin_unital_and_not_associative(seed):
    T = oracle.random_loop(6, random.Random(seed))
    n = T.order
    assert all(sorted(row) == list(range(n)) for row in T.table)
    assert all(sorted(T.table[i][j] for i in range(n)) == list(range(n)) for j in range(n))
    assert T.identity == 0
    assert not oracle.is_associative(T)


def test_subset_closure():
    S3 = oracle.symmetric(3)
    e = S3.identity
    t = next(a for a in range(6) if a != e and S3.table[a][a] == e)
    assert oracle.is_closed(S3, {e, t})
    assert not oracle.is_normal(S3, {e, t})
    u = next(a for a in range(6) if a not in (e, t) and S3.table[a][a] == e)
    assert not oracle.is_closed(S3, {e, t, u})
