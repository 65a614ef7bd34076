"""Checks of the benchmark's instance generators, checker and tracer.

    python3 -m pytest benchmark/tests -q
"""

import json
from dataclasses import asdict
from random import Random

import pytest

from freesolv import conjugacy, power, wordproblem
from freesolv.conjugacy import ConjugacyResult
from freesolv.power import PowerResult
from freesolv.words import Word, commutator
from layers import Tracer, traced
from workloads import (RANK, WORKLOADS, Instance, build_pool, build_round,
                       certified_not_conjugate, check, probe_instances,
                       wreath_maps)


def _one_round(name, seed=7):
    return build_pool(WORKLOADS[name], seed, 1)[0]


@pytest.mark.parametrize("name", ["det-wp-pow", "mc-wp-pow"])
def test_pow_commutator_not_freely_trivial(name):
    pows = [inst for inst in _one_round(name) if inst.problem == "pow"]
    assert pows
    for inst in pows:
        u, v = inst.as_words()
        assert len(commutator(u, v)) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    def dump(seed):
        pool = build_pool(WORKLOADS[name], seed, 1)
        return json.dumps([[asdict(i) for i in rnd] for rnd in pool]).encode()

    assert dump(3) == dump(3)
    assert dump(3) != dump(4)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_round_is_balanced(name):
    rnd = _one_round(name)
    assert sum(i.answer for i in rnd) * 2 == len(rnd)
    assert len({i.id for i in rnd}) == len(rnd)


def test_wreath_certificate_never_splits_a_conjugate_pair():
    rng = Random(11)
    maps = wreath_maps(rng)
    for _ in range(20):
        x = Word(tuple(rng.choice((1, 2, -1, -2)) for _ in range(6)), rank=RANK)
        z = Word(tuple(rng.choice((1, 2, -1, -2)) for _ in range(4)), rank=RANK)
        assert not certified_not_conjugate(x, z * x * ~z, maps)


def test_det_conj_no_instances_scan_every_shift():
    rnd = [i for i in _one_round("det-conj") if i.bin == 0]
    tr = Tracer()
    with traced(tr):
        for inst in rnd:
            x, y = inst.as_words()
            before = tr.counts["conjugacy.shifts_scanned"]
            res = conjugacy.conjugacy_solve(x, y, RANK, inst.d)
            scanned = tr.counts["conjugacy.shifts_scanned"] - before
            assert check(inst, res) is None
            if not inst.answer:
                assert scanned == len(x) + 1
    assert tr.counts["conjugacy.shifts_scanned"] > 0


def test_traced_restores_entry_points():
    before = (wordproblem.word_problem, power.power_solve,
              conjugacy.member_of_cyclic, Word.__mul__,
              wordproblem.SupportChain.labels_at)
    with traced(Tracer()):
        assert wordproblem.word_problem is not before[0]
    after = (wordproblem.word_problem, power.power_solve,
             conjugacy.member_of_cyclic, Word.__mul__,
             wordproblem.SupportChain.labels_at)
    assert after == before


def test_check_catches_wrong_verdicts():
    rnd = _one_round("det-wp-pow")
    wp = next(i for i in rnd if i.problem == "wp")
    assert check(wp, wp.answer) is None
    assert check(wp, not wp.answer) is not None
    assert check(wp, ValueError("boom")).startswith("raised")
    found = next(i for i in rnd if i.problem == "pow" and i.answer)
    assert check(found, PowerResult(found.k)) is None
    assert check(found, PowerResult(found.k + 1)) is not None
    assert check(found, PowerResult(None)) is not None
    # x2 x1 = z (x1 x2) z^-1 for z = x1^-1, and for no z = x1
    pair = Instance(0, "conj-d2", "conj", "det", 2, 4, 0, ((1, 2), (2, 1)),
                    True, None)
    assert check(pair, ConjugacyResult(True, Word((-1,), rank=RANK))) is None
    assert check(pair, ConjugacyResult(True, Word((1,), rank=RANK))) is not None
    assert check(pair, ConjugacyResult(False, None)) is not None


def test_probes_are_answered_right_and_reach_repair():
    tr = Tracer()
    with traced(tr):
        for inst in probe_instances():
            words = inst.as_words()
            if inst.problem == "wp":
                res = wordproblem.word_problem(*words, RANK, inst.d)
            elif inst.problem == "pow":
                res = power.power_solve(*words, RANK, inst.d)
            else:
                res = conjugacy.conjugacy_solve(*words, RANK, inst.d)
            assert check(inst, res) is None
    assert tr.calls["conjugacy.repair_heights"] > 0
    assert tr.calls["power.commutator_check"] > 0


def test_build_round_shuffles_with_seed():
    wl = WORKLOADS["det-conj"]
    a = build_round(Random(5), wl, 0, wreath_maps(Random(1)), 0.5)
    b = build_round(Random(5), wl, 0, wreath_maps(Random(1)), 0.5)
    assert [i.words for i in a] == [i.words for i in b]
    assert [i.size for i in a] != sorted(i.size for i in a)
