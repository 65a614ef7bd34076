"""Known-answer instance families, workloads and verdict checks.

Every instance is built with its answer, from a seeded ``random.Random``:

* word problem, Yes: a product of conjugated nested commutators from
  F^(d), so trivial in S_{r,d}.  No: the same with a short tail from
  F^(d-1) appended, which ``oracle.is_trivial`` certifies nontrivial in
  S_{r,d}; the word is then equal to that tail.
* power problem, Found(k): u = v^k c with c a trivial word as above and
  v of nonzero abelianization.  Fail: u = v^k c c' with c' a certified
  nontrivial element of F^(d-1).  If u = v^j held, abelianizing would give
  j = k and so c' = 1, which the oracle ruled out.
* conjugacy (d = 2), Yes: y = z x z^-1 c with c trivial in S_{r,2} and
  z = (x_1..x_k)^-1, so z x z^-1 is a rotation of x; k/|x| steps evenly.
  No: y = z x z^-1 c c' with c' a short commutator, kept only when some
  homomorphism into the metabelian group Z_3 wr Z_4 sends x and y to
  non-conjugate elements (checked over all 324 elements).  Pairs that no
  map certifies are redrawn.

The reference code (``oracle``) is used only here, to certify answers
while the instances are built and to check conjugacy witnesses after the
timed region; no verdict is ever checked with the solvers themselves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from random import Random

from freesolv import oracle
from freesolv.words import (Word, commutator, random_reduced_word,
                            random_trivial_word)

RANK = 2

# instances per answer and family in a round, one in each of as many equal
# strata of log input length; sizes vary continuously, so the times of a
# run have no gaps for a median or p90 to fall into
SIZE_STRATA = 5
# where a round sits inside its strata steps by the golden ratio from round
# to round, so a few rounds already cover every stratum evenly
GOLDEN = (math.sqrt(5) - 1) / 2
# size bins for the scaling fit
SCALING_BINS = 3


@dataclass(frozen=True)
class Family:
    problem: str  # "wp", "pow" or "conj"
    mode: str     # "det" or "mc"
    d: int
    sizes: tuple[int, int]  # least and greatest input length: |w|,
                            # |u|+|v| or |x|+|y|

    @property
    def name(self) -> str:
        return f"{self.problem}-d{self.d}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: tuple[Family, ...]
    pool_rounds: int   # distinct rounds built at set-up; the run cycles them
    trace_rounds: int  # rounds in the batch of a traced run


WORKLOADS = {w.name: w for w in (
    Workload(
        "det-wp-pow",
        "deterministic word problem (d=3) and power problem (d=2, 3): time "
        "sits in SupportChain's batched refinement on large prefix trees",
        (Family("wp", "det", 3, (300, 1200)),
         Family("pow", "det", 2, (220, 880)),
         Family("pow", "det", 3, (180, 720))),
        pool_rounds=24, trace_rounds=3),
    Workload(
        "mc-wp-pow",
        "Monte Carlo word and power problems at 7-21x the deterministic "
        "lengths: the quasi-linear path, which never reaches det refinement",
        (Family("wp", "mc", 3, (6400, 25600)),
         Family("pow", "mc", 2, (1600, 6400)),
         Family("pow", "mc", 3, (1600, 6400))),
        pool_rounds=6, trace_rounds=4),
    Workload(
        "det-conj",
        "deterministic conjugacy (d=2): many tiny chains in coset "
        "discovery, the shift scan and witness checks; No pairs certified "
        "in Z_3 wr Z_4, uncertified pairs redrawn",
        (Family("conj", "det", 2, (16, 64)),),
        pool_rounds=128, trace_rounds=16),
)}


@dataclass(frozen=True)
class Instance:
    id: int
    family: str
    problem: str
    mode: str
    d: int
    size: int      # the input length the instance was built for
    bin: int       # its size bin, 0 .. SCALING_BINS - 1
    words: tuple[tuple[int, ...], ...]
    answer: bool   # Yes / Found / conjugate
    k: int | None  # the built power for Found instances

    @property
    def letters(self) -> int:
        return sum(len(w) for w in self.words)

    def as_words(self) -> list[Word]:
        return [Word(w, rank=RANK, _reduced=True) for w in self.words]


# -- word builders -----------------------------------------------------------


def _push(stack: list[int], letters) -> None:
    for s in letters:
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)


def trivial_word(rng: Random, d: int, length: int) -> Word:
    """A nonempty word of about the given length, trivial in S_{r,d}."""
    stack: list[int] = []
    while len(stack) < max(1, length):
        _push(stack, random_trivial_word(rng, RANK, d, conjugator_len=8,
                                         factors=1).letters)
    return Word(tuple(stack), rank=RANK, _reduced=True)


def nontrivial_tail(rng: Random, d: int) -> Word:
    """A short element of F^(d-1), certified nontrivial in S_{r,d}."""
    while True:
        c = random_trivial_word(rng, RANK, d - 1, conjugator_len=2, factors=1)
        if len(c) <= oracle.MAX_WORD and not oracle.is_trivial(c, RANK, d):
            return c


def _abelian(w: Word) -> tuple[int, ...]:
    vec = [0] * RANK
    for s in w.letters:
        vec[abs(s) - 1] += 1 if s > 0 else -1
    return tuple(vec)


def _word_with_abelian_image(rng: Random, length: int) -> Word:
    while True:
        w = random_reduced_word(rng, max(2, length), RANK)
        if any(_abelian(w)):
            return w


# -- the metabelian certificate for conjugacy "No" ---------------------------

WREATH_P, WREATH_M = 3, 4
WREATH_MAPS = 8


def _w_mul(a, b):
    (f, t), (g, s) = a, b
    m = WREATH_M
    return (tuple((f[i] + g[(i - t) % m]) % WREATH_P for i in range(m)),
            (t + s) % m)


def _w_inv(a):
    f, t = a
    m = WREATH_M
    return (tuple(-f[(i + t) % m] % WREATH_P for i in range(m)), -t % m)


WREATH = [(f, t) for f in itertools.product(range(WREATH_P), repeat=WREATH_M)
          for t in range(WREATH_M)]


def wreath_maps(rng: Random) -> list[dict[int, tuple]]:
    """Images of the generators (and their inverses) under random maps."""
    maps = []
    for _ in range(WREATH_MAPS):
        img = {}
        for i in range(1, RANK + 1):
            g = rng.choice(WREATH)
            img[i], img[-i] = g, _w_inv(g)
        maps.append(img)
    return maps


def _w_image(w: Word, img) -> tuple:
    out = ((0,) * WREATH_M, 0)
    for s in w.letters:
        out = _w_mul(out, img[s])
    return out


def wreath_conjugate(x: Word, y: Word, img) -> bool:
    """Are the images of x and y conjugate in Z_3 wr Z_4 (brute force)?"""
    X, Y = _w_image(x, img), _w_image(y, img)
    return any(_w_mul(_w_mul(g, X), _w_inv(g)) == Y for g in WREATH)


def certified_not_conjugate(x: Word, y: Word, maps) -> bool:
    return any(not wreath_conjugate(x, y, img) for img in maps)


# -- instances ---------------------------------------------------------------


def _wp(rng: Random, fam: Family, n: int, yes: bool):
    tail = None if yes else nontrivial_tail(rng, fam.d)
    w = trivial_word(rng, fam.d, n - (0 if yes else len(tail)))
    if tail is not None:
        w = w * tail
    return (w,), None


def _pow(rng: Random, fam: Family, n: int, yes: bool):
    while True:
        v = _word_with_abelian_image(rng, n // 8)
        k = rng.choice((2, 3))
        c = trivial_word(rng, fam.d, n - (k + 1) * len(v))
        u = v ** k * c
        if not yes:
            u = u * nontrivial_tail(rng, fam.d)
        # the commutator check is only reached when [u, v] is not freely 1
        if len(commutator(u, v)) > 0:
            return (u, v), (k if yes else None)


def _conj(rng: Random, fam: Family, n: int, yes: bool, maps, turn: float):
    while True:
        x = _word_with_abelian_image(rng, n // 3)
        # z = (x_1..x_k)^-1 makes z x z^-1 the rotation x_k+1..x_n x_1..x_k;
        # a Yes scan stops near shift k, so k = turn * |x| sets its cost
        z = ~x.prefix(int(turn * len(x)))
        y = z * x * ~z
        y = y * trivial_word(rng, fam.d, n - len(x) - len(y))
        if yes:
            return (x, y), None
        y = y * nontrivial_tail(rng, fam.d)
        if certified_not_conjugate(x, y, maps):
            return (x, y), None


def build_round(rng: Random, wl: Workload, next_id: int, maps,
                phase: float) -> list[Instance]:
    """One round: for every family, SIZE_STRATA Yes and as many No
    instances, with log-uniform sizes, one per stratum at ``phase``
    (0 <= phase < 1) of it; in a seeded shuffle."""
    out = []
    for fam in wl.families:
        lo, hi = fam.sizes
        for yes in (True, False):
            for j in range(SIZE_STRATA):
                pos = (j + phase) / SIZE_STRATA
                n = round(lo * (hi / lo) ** pos)
                if fam.problem == "wp":
                    words, k = _wp(rng, fam, n, yes)
                elif fam.problem == "pow":
                    words, k = _pow(rng, fam, n, yes)
                else:
                    # golden-ratio steps over instance ids spread the
                    # rotations evenly over [0, 1)
                    turn = ((next_id + len(out)) * GOLDEN) % 1.0
                    words, k = _conj(rng, fam, n, yes, maps, turn)
                out.append(Instance(next_id + len(out), fam.name,
                                    fam.problem, fam.mode, fam.d, n,
                                    math.floor(pos * SCALING_BINS),
                                    tuple(w.letters for w in words), yes, k))
    rng.shuffle(out)
    return out


def probe_instances() -> list[Instance]:
    """One tiny Yes instance per problem, the same for every seed: the
    set-up time solves these, and each traced pass starts with them so
    that every layer is entered on every workload.  The conjugacy probe
    uses a random conjugator, so its shift needs witness repair."""
    rng = Random(0)
    (w,), _ = _wp(rng, Family("wp", "det", 3, (40, 40)), 40, True)
    (u, v), k = _pow(rng, Family("pow", "det", 3, (60, 60)), 60, True)
    x = Word((2, 1, 2, -1, 2), rank=RANK)
    z = Word((-2, -1, -2, -2), rank=RANK)
    y = z * x * ~z * trivial_word(Random(0), 2, 10)
    return [Instance(-1, "probe-wp", "wp", "det", 3, 40, 0, (w.letters,),
                     True, None),
            Instance(-2, "probe-pow", "pow", "det", 3, 60, 0,
                     (u.letters, v.letters), True, k),
            Instance(-3, "probe-conj", "conj", "det", 2, len(x) + len(y), 0,
                     (x.letters, y.letters), True, None)]


def build_pool(wl: Workload, seed: int, rounds: int) -> list[list[Instance]]:
    rng = Random(seed)
    maps = wreath_maps(rng)
    start = rng.random()
    pool: list[list[Instance]] = []
    for r in range(rounds):
        pool.append(build_round(rng, wl, sum(map(len, pool)), maps,
                                (start + r * GOLDEN) % 1.0))
    return pool


# -- verdict checks (outside the timed region) -------------------------------


def magnus_long(w: Word, d: int, chunk: int = 48):
    """Magnus form of a word of any length, folded over guard-sized chunks."""
    out = oracle.magnus_form(Word((), rank=RANK), RANK, d)
    for i in range(0, len(w), chunk):
        piece = Word(w.letters[i:i + chunk], rank=RANK, _reduced=True)
        out = oracle.multiply(out, oracle.magnus_form(piece, RANK, d))
    return out


def witness_holds(z: Word, x: Word, y: Word, d: int) -> bool:
    """z x z^-1 = y in S_{r,d}, by chunked Magnus forms."""
    fz = magnus_long(z, d)
    lhs = oracle.multiply(oracle.multiply(fz, magnus_long(x, d)),
                          oracle.inverse(fz))
    return lhs == magnus_long(y, d)


def check(inst: Instance, result) -> str | None:
    """None when the solver's result matches the construction, else why not.

    ``result`` is the solver's return value, or the exception it raised.
    """
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    if inst.problem == "wp":
        return None if result == inst.answer else f"said {result}"
    if inst.problem == "pow":
        if result.k == inst.k:
            return None
        return f"said {result!r}, built " + (
            f"Found({inst.k})" if inst.answer else "Fail")
    if result.conjugate != inst.answer:
        return f"said {result!r}"
    if inst.answer:
        x, y = inst.as_words()
        if not witness_holds(result.witness, x, y, inst.d):
            return "witness fails z x z^-1 = y"
    return None


def allowed_mc_error(inst: Instance, why: str | None) -> bool:
    """A wrong answer on the side the Monte Carlo mode documents.

    The Monte Carlo word problem may call a nontrivial word trivial; the
    Monte Carlo power problem may err either way.  Exceptions never are.
    """
    if why is None or inst.mode != "mc" or why.startswith("raised"):
        return False
    return inst.problem == "pow" or not inst.answer
