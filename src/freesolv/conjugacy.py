"""Conjugacy in S_{r,d} through flows on the Schreier graph of <y>.

Two nontrivial words are conjugate exactly when some shift gamma_c =
y_i x[:c]^{-1} of x, 0 <= c <= |x|, defines the same flow as y on the
coset graph of <y> in S_{r,d-1}.  At d = 1, Z^r is abelian and equal
exponent vectors decide.  At every d >= 2 one exact path runs: a hash of
flows on Cay(A), A = Z^r / Z ab(y), sieves the cuts c, and one loop
takes the cuts it lets through, in order.  It walks each on the coded
Cay(A) and skips it unless that walk is y's; at d >= 3 it then compares
the cut on the coset graph itself.

At d = 2 the coset graph is Cay(A), and every translation of A is an
automorphism of it: gamma_c x gamma_c^{-1} has the flow F_x of x
translated by b_c = ab(y_i) - ab(x[:c]).  A linear hash H(F) = sum of
val * rho_s * chi(source) over the edges of F, for a character chi of A,
turns that translation into a product, H(T_b F) = chi(b) H(F).  So
H_chi(F) H_chi^{-1}(F) is a translation invariant: when x and y differ
in it, no shift matches and the answer is No after one pass over each
word.  Otherwise only the cuts with chi(b_c) H(F_x) = H(F_y) are
compared exactly.  The hash steers work and never decides a Yes, so
answers never depend on its constants: a collision costs one extra
comparison.  It works in F_p, p = 1073741789, the largest prime below
2^30, so the Horner products of its per-letter loops stay below 2^60;
the field changes only which cuts reach the exact test, each through a
spurious hit of chance about 1/p per cut.

At d >= 3 the same hash sieves the cuts.  Conjugate elements of S_{r,d}
are conjugate in S_{r,2}, so a differing invariant is an exact No at any
depth.  The map <y>g -> ab(g) + Z ab(y) sends the coset graph of <y> in
S_{r,d-1} onto Cay(A) and pushes walks and their flows forward, so a cut
whose shift has the flow of y at depth d-1 is a hash hit, and the first
hit that matches is the first matching cut of a scan of every cut.  For
the same reason a hit whose walk on Cay(A) differs from y's matches on
no coset graph, so the loop drops it after that one walk, as at d = 2;
these are the hits that torsion in A lets through the hash, whose
character is trivial on it.  Only the hits that pass are traced on a
support, built lazily, that finds cosets with the exact cyclic-membership
solver; the test that finds an edge's coset also gives its shift, the
power of y the edge crosses.

A positive answer also carries a verified witness.  The shift that
certifies conjugacy need not conjugate x to y on the nose: the leftover
is invisible to the Schreier flow (it lives along the <y>-direction).
The repair solves h - h^y = delta for the leftover flow delta on the
Cayley graph of S_{r,d-1}, realizes the solution as a product of based
cycle words, and prepends it.  It reads one of two coset graphs of <y>
with edge heights: the support at d >= 3, the coded Cay(Z^r) at d = 2.
Every step is exact, so the Monte Carlo mode gives the deterministic
answer at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, concat_reduced
from .wordproblem import DEFAULT_MAX_LEN, LengthGuardError, word_problem
# power_solve is unused here; benchmark/layers.py patches it (ROADMAP item 2)
from .power import member_of_cyclic, power_solve


@dataclass(frozen=True)
class ConjugacyResult:
    conjugate: bool
    witness: Word | None  # z with z x z^-1 = y whenever conjugate

    def __repr__(self):
        if not self.conjugate:
            return "No"
        return f"Yes(witness={self.witness.serialize()!r})"


NO = ConjugacyResult(False, None)


def _exponent_vector(letters: tuple[int, ...], r: int) -> tuple[int, ...]:
    vec = [0] * r
    for s in letters:
        vec[abs(s) - 1] += 1 if s > 0 else -1
    return tuple(vec)


def _moved(vec: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Exponent vector of a word times x_s, from the word's vector."""
    out = list(vec)
    out[abs(s) - 1] += 1 if s > 0 else -1
    return tuple(out)


class SchreierSupport:
    """Lazily built support of traced words in the coset graph of <y>,
    which the solver builds at d >= 3.

    Vertices are right cosets <y>g in S_{r,d-1}, keyed by their image in
    Z^r / Z ab(y).  Equal keys are necessary for equal cosets at every
    depth and exact at depth d-1 <= 1, where that quotient is S_{r,d-1}/<y>
    itself; deeper, a bucket's candidates q are told apart by exact
    membership tests g q^-1 in <y>, so the first that holds is the coset.
    Tracing follows existing edges for free and only locates cosets on
    missing ones.

    The coset table holds, per vertex v, its representative rep(v) and
    that word's exponent vector.  The edge table out maps each traced
    edge (u, s) to (v, j), its target and its shift, with rep(u) x_s =
    y^j rep(v) in S_{r,d-1}, and (v, -s) to (u, -j).  Both come from
    locating v once: j is 0 on an edge that created its target, read off
    the exponent vectors where the key decides, and otherwise the k of
    the membership test g q^-1 = y^k that matched, which the memo keeps.

    The membership calls take words the support builds, so they are
    guarded by a limit that follows from max_len, the guard the solver's
    input passed (|y| < max_len), not by the default one.
    A call pairs y with g q^-1, where g = rep(u) x_s for a traced edge
    (u, s) and q is the rep of an existing vertex.  With R the longest
    rep so far (longest), such a pair has at most 2 R + 1 + |y| < 2 R + 1
    + max_len letters, the limit it gets.  Each new rep is an old one
    with a letter added or removed, so R grows by at most one per traced
    letter.
    """

    def __init__(self, y: Word, r: int, d: int,
                 max_len: int = DEFAULT_MAX_LEN):
        if d < 1:
            raise ValueError("Schreier supports live at depth d-1 >= 0")
        self.y = y
        self.r = r
        self.depth = d - 1
        self.max_len = max_len
        self.longest = 0  # letters of the longest rep
        self.memo: dict = {}
        self.reps: list[tuple[int, ...]] = [()]
        self.vecs: list[tuple[int, ...]] = [(0,) * r]
        self.out: dict[tuple[int, int], tuple[int, int]] = {}
        self._ab_y = _exponent_vector(y.letters, r)
        self._pivot = next((i for i, c in enumerate(self._ab_y) if c), None)
        self.buckets: dict[tuple, list[int]] = {self._bucket_key((0,) * r):
                                                [0]}
        self.y_path, self.y_flow = self.trace(y)
        if self.y_path[-1] != 0:
            # <y> y = <y>, so a correct construction closes the cycle
            raise AssertionError("the y-trace failed to close")

    # -- coset bookkeeping -------------------------------------------------

    def _bucket_key(self, vec: tuple[int, ...]) -> tuple:
        """Canonical image of an exponent vector in Z^r / Z ab(y), or ()
        at depth 0; equal keys are necessary for equal cosets at every
        depth and sufficient at depth <= 1."""
        if self.depth == 0:
            return ()
        if self._pivot is not None:
            k = vec[self._pivot] // self._ab_y[self._pivot]
            vec = tuple(a - k * b for a, b in zip(vec, self._ab_y))
        return vec

    def _locate_or_add(self, letters: tuple[int, ...],
                       vec: tuple[int, ...]) -> tuple[int, int]:
        """Vertex v of the coset <y> * letters, creating it if unseen, and
        the shift j with letters = y^j rep(v) in S_{r,d-1}."""
        bucket = self.buckets.setdefault(self._bucket_key(vec), [])
        if bucket and self.depth <= 1:
            # the key is the coset itself: y = 1 at depth 0, and at depth 1
            # letters and rep(q) differ by j ab(y) in Z^r
            q, p = bucket[0], self._pivot
            if self.depth == 0 or p is None:
                return q, 0
            return q, (vec[p] - self.vecs[q][p]) // self._ab_y[p]
        for q in bucket:
            gq = Word._trusted(concat_reduced(
                letters, tuple(-s for s in reversed(self.reps[q]))), self.r)
            if member_of_cyclic(gq, self.y, self.r, self.depth, memo=self.memo,
                                max_len=self._limit()):
                # the memo keeps the k with g q^-1 = y^k
                return q, self.memo[gq.letters, self.y.letters, self.r,
                                    self.depth]
        v = len(self.reps)
        self.reps.append(letters)
        self.longest = max(self.longest, len(letters))
        self.vecs.append(vec)
        bucket.append(v)
        return v, 0

    def arc(self, u: int, s: int) -> tuple[int, int]:
        """Target v of the edge (u, s) and its shift j: rep(u) x_s =
        y^j rep(v) in S_{r,d-1}.  A missing edge is located once, with
        its shift, and stored both ways: (v, -s) leads to (u, -j)."""
        edge = self.out.get((u, s))
        if edge is not None:
            return edge
        p = self.reps[u]
        nxt = p[:-1] if p and p[-1] == -s else p + (s,)
        v, j = self._locate_or_add(nxt, _moved(self.vecs[u], s))
        if (v, -s) in self.out:
            raise AssertionError("the support lost foldedness")
        self.out[(u, s)] = v, j
        self.out[(v, -s)] = u, -j
        return v, j

    def _limit(self) -> int:
        """The guard of a membership call (see the class)."""
        return self.max_len + 2 * self.longest + 1

    def lift(self, v: int, j: int) -> Word:
        """y^j rep(v): a word for the vertex at height j over coset v."""
        return self.y ** j * Word._trusted(self.reps[v], self.r)

    # -- tracing -----------------------------------------------------------

    def trace(self, w: Word) -> tuple[list[int], dict[tuple[int, int], int]]:
        """Vertex path and flow of w from the root, extending the support.

        Flow keys are (origin vertex, generator index) in positive-label
        orientation; zero entries are dropped, so flows over different
        extension states compare directly (absent means zero).
        """
        v = 0
        path = [0]
        flow: dict[tuple[int, int], int] = {}
        for s in w.letters:
            nxt = self.arc(v, s)[0]
            key = (v, s) if s > 0 else (nxt, -s)
            val = flow.get(key, 0) + (1 if s > 0 else -1)
            if val:
                flow[key] = val
            else:
                flow.pop(key, None)
            v = nxt
            path.append(v)
        return path, flow


# -- witness construction --------------------------------------------------


def _witness_repair(x: Word, y: Word, gamma: Word, graph, r: int, d: int,
                    max_len: int) -> Word | None:
    """Turn a flow-equality shift gamma into a genuine conjugator.

    gamma x gamma^-1 agrees with y on the Schreier graph of <y>, so their
    difference flow delta on Cay(S_{r,d-1}) sums to zero along every
    <y>-orbit of edges.  Cayley edges are coordinatized as (coset vertex,
    height, letter) where g = y^height * rep(coset): graph.arc(v, s) gives
    the target coset of the edge (v, s) and its height shift, and
    graph.lift(v, j) a word for the vertex (v, j).  A prefix's height is
    the running sum of the shifts along its walk from the root 0 at
    height 0.  Translation by y is height + 1, so h with h - h^y = delta
    comes out of prefix sums along each orbit.  Realizing h as a product
    of based Eulerian cycle words lift C lift^-1 and prepending it to
    gamma gives the conjugator, a word fixed by y, gamma and the graph.

    At d = 2, graph is the coded Cay(Z^r) and a lift is the axis word
    x_1^b_1 ... x_r^b_r of the base's exponent vector b.  Every vertex
    the walks of y and gamma x gamma^-1 pass has |b|_1 <= |x| + |y|, so
    does every vertex of h, which lies between two of them on a <y>-orbit,
    and a lift has at most n + 1 letters, n = |x| + |y|.  A closed walk
    on Cay(Z^r) that crosses no edge both ways has at least 4 edges, so h
    splits into at most |h|_1 / 4 circuits, and the witness has at most
    |gamma| + |h|_1 + 2 (n + 1) |h|_1 / 4 = |gamma| + |h|_1 (n + 3) / 2
    letters.

    The check word z x z^-1 y^-1 is built here, not given, so it is
    checked under a limit that follows from max_len, not under the input
    guard.  Every circuit has at least one edge, so with L the longest
    lift |z| <= |gamma| + |h|_1 (2 L + 1) at every depth; with |gamma|
    <= n < max_len the check word then has fewer than (2 |h|_1 + 3)
    (2 max(max_len, L) + 1) letters, the limit it gets.  At d = 2, L <=
    n + 1 <= max_len.

    Returns None when the premise fails, which only a faulty coset graph
    can cause: the caller raises AssertionError on it.
    """
    w = gamma * x * ~gamma

    def cayley_flow(u: Word) -> dict[tuple[int, int, int], int]:
        """Flow of u on Cay(S_{r,d-1}) keyed (coset, height, letter)."""
        flow: dict[tuple[int, int, int], int] = {}
        v = height = 0
        for s in u.letters:
            nxt, j = graph.arc(v, s)
            key = (v, height, s) if s > 0 else (nxt, height + j, -s)
            val = flow.get(key, 0) + (1 if s > 0 else -1)
            if val:
                flow[key] = val
            else:
                del flow[key]
            v, height = nxt, height + j
        return flow

    delta = cayley_flow(y)
    for k, v in cayley_flow(w).items():
        delta[k] = delta.get(k, 0) - v

    # h(v, J, c) = sum of delta over (v, j, c) with j <= J; orbit totals
    # vanish exactly when the Schreier flows of y and w agree
    orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (v, j, c), val in delta.items():
        if val:
            orbits.setdefault((v, c), []).append((j, val))
    h: dict[tuple[int, int, int], int] = {}
    for (v, c), entries in orbits.items():
        entries.sort()
        if sum(val for _, val in entries) != 0:
            return None
        run = 0
        for (j0, val), (j1, _) in zip(entries, entries[1:]):
            run += val
            if run:
                for j in range(j0, j1):
                    h[(v, j, c)] = run

    adj: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
    bal: dict[tuple[int, int], int] = {}
    for (v, j, c), val in h.items():
        vv, dj = graph.arc(v, c)  # every edge of h was walked above
        a, b = (v, j), (vv, j + dj)
        tail, head, letter = (a, b, c) if val > 0 else (b, a, -c)
        adj.setdefault(tail, []).extend([(head, letter)] * abs(val))
        adj.setdefault(head, [])
        bal[tail] = bal.get(tail, 0) + abs(val)
        bal[head] = bal.get(head, 0) - abs(val)
    if any(bal.values()):
        return None  # h is not a circulation: the premise failed

    # one circuit per component, from its least vertex: each exhausts the
    # component, so the bases come in sorted order
    z_h: list[int] = []
    longest = 0
    for base in sorted(adj):
        if not adj[base]:
            continue
        node_stack = [base]
        letter_stack: list[int] = []
        circuit: list[int] = []
        while node_stack:
            u = node_stack[-1]
            if adj[u]:
                vtx, letter = adj[u].pop()
                node_stack.append(vtx)
                letter_stack.append(letter)
            else:
                node_stack.pop()
                if letter_stack and node_stack:
                    circuit.append(letter_stack.pop())
        circuit.reverse()
        lift = graph.lift(*base)
        longest = max(longest, len(lift))
        z_h += [*lift.letters, *circuit, *(~lift).letters]
    candidate = Word(z_h, rank=r) * gamma
    h1, top = sum(map(abs, h.values())), max(max_len, longest)
    ok = word_problem(candidate * x * ~candidate * ~y, r, d, mode="det",
                      max_len=(2 * h1 + 3) * (2 * top + 1))
    return candidate if ok else None


def _verified_witness(x: Word, y: Word, gamma: Word, graph, r: int, d: int,
                      max_len: int) -> Word | None:
    """gamma if it conjugates x to y, else its repair on graph, or None.

    Used at d >= 3, where no cheaper test has already ruled gamma out.  The
    shifts gamma have at most n = |x| + |y| < max_len letters, so the
    check word has fewer than 3 max_len.
    """
    if word_problem(gamma * x * ~gamma * ~y, r, d, mode="det",
                    max_len=3 * max_len):
        return gamma
    return _witness_repair(x, y, gamma, graph, r, d, max_len)


# -- Cay(A): hashes of flows, and coded walks -------------------------------

_P = 1073741789               # hashes live in F_p, the largest prime < 2^30
_G = 663608922                # a primitive root mod _P, no small integer
_G_INV = 98920561             # _G^-1 mod _P
_RHO = 833529759              # generator x_s weighs rho_s = _RHO^s mod _P
_W = 1 << 21                  # spreads t over the generators at rank >= 3


class _FlowHash:
    """Hashes of the flows of x and y on Cay(A), A = Z^m / Z ab(y), the
    sieve of the shift loop at every d >= 2.

    The character is chi(v) = G^(t.v) with t.ab(y) = 0 over Z, so it is
    well defined on A.  Off the pivot of ab(y) (its first nonzero entry),
    generator i gets t_i = ab(y)_pivot w_i for weights w = 1, W, W^2, ...,
    and the pivot takes what makes t.ab(y) vanish; with ab(y) = 0, t = w.
    At rank 2 that is t = +-(ab(y)_2, -ab(y)_1), injective on A modulo
    torsion.  The letter table is a list of length 2m+1 read at the letter
    itself, so -s lands at index 2m+1-s.  At every depth
    _conjugacy_attempt walks each cut the hash lets through on the coded
    Cay(A), which names the torsion of A that chi cannot see, and skips
    it unless that walk is y's; at d >= 3 a trace on the support then
    compares it exactly.

    The field is F_p for p = _P, the largest prime below 2^30: every
    element is a one-digit CPython int and every Horner product stays
    below 2^60.  The field only changes which cuts reach the exact test,
    each spurious hit with chance about 1/p per cut.  That needs G and
    G^-1 far from small integers: H is an integer polynomial in them with
    the flow values as coefficients, so with G = 2 a flow of -2 on the
    x_s-edge from v and +1 on the one from v', chi(v') = 2 chi(v), would
    already hash to 0.
    """

    def __init__(self, x: Word, y: Word, m: int, ab_y: tuple[int, ...]):
        pivot = next((i for i, c in enumerate(ab_y) if c), None)
        t = [0] * m
        w = 1
        for i, a in enumerate(ab_y):
            if i != pivot:
                if pivot is None:
                    t[i] = w
                else:
                    t[i] = ab_y[pivot] * w
                    t[pivot] -= a * w
                w = w * _W % (_P - 1)
        # step[s] = chi(sign(s) e_|s|)
        step = [1] * (2 * m + 1)
        for i, e in enumerate(t, 1):
            up, down = (_G, _G_INV) if e >= 0 else (_G_INV, _G)
            e = abs(e) % (_P - 1)
            step[i], step[-i] = pow(up, e, _P), pow(down, e, _P)
        # per letter: its weight under chi, the chi step, the same two
        # under chi^-1.  The edge x_s crosses starts at the current vertex,
        # the one x_s^-1 crosses at the next, so it weighs -rho_s chi(-e_s)
        table = [(0, 1, 0, 1)] * (2 * m + 1)
        rho = 1
        for i in range(1, m + 1):
            rho = rho * _RHO % _P
            up, down = step[i], step[-i]
            table[i] = (rho, up, rho, down)
            table[-i] = (-rho * down % _P, down, -rho * up % _P, up)
        self.x, self.y, self.step, self.ab_y = x, y, step, ab_y
        self.h_x, inv_x = self._hashes(x, table)
        self.h_y, inv_y = self._hashes(y, table)
        # translate flows have equal invariants H_chi H_chi^-1
        self.may_translate = self.h_x * inv_x % _P == self.h_y * inv_y % _P

    @staticmethod
    def _hashes(w: Word, table) -> tuple[int, int]:
        """H_chi and H_chi^-1 of the flow of w from the root, by Horner's
        rule from the last letter: H(s w') = weight(s) + chi(s) H(w')."""
        p = _P
        h = h_back = 0
        for s in reversed(w.letters):
            weight, up, weight_back, down = table[s]
            h = (weight + up * h) % p
            h_back = (weight_back + down * h_back) % p
        return h, h_back

    def cuts(self, pick: int):
        """The cuts c, in order, with chi(b_c) H(F_x) = H(F_y), where
        b_c = ab(y[:pick]) - ab(x[:c]): one product per cut."""
        step, target = self.step, self.h_y
        h = self.h_x
        for s in self.y.letters[:pick]:
            h = h * step[s] % _P
        if h == target:
            yield 0
        for cut, s in enumerate(self.x.letters, 1):
            h = h * step[-s] % _P
            if h == target:
                yield cut


class _Coding:
    """Integer keys for the edges of Cay(Z^m / Z a) that the walks of one
    conjugacy test reach, for words x and y of n letters in all; the
    solver builds one with a = ab(y) at every d >= 2.

    A vertex is named by the exponent vector in its coset of Z a whose
    pivot entry (the first nonzero one of a, its sign chosen positive)
    lies in [0, a_pivot); with a = 0 every vector names itself.  Its code
    is M times the number with those entries as digits in base B, the
    pivot entry lowest, and the edge x_g from it has key code + g, with M
    = m + 1 and B a power of two above twice any entry those walks
    reach: y's, the rotations', and those of the conjugates gamma_c x
    gamma_c^-1, which _witness_repair walks too.  Each of their vertices
    is a vector b with |b|_1 <= n, so each entry of its name is below
    2 (n + 2)^2.  The pivot entry of a key is key // M % B.  At d >= 3
    the coding walks the same words, y and the hits' conjugates, so the
    bound holds there unchanged.

    With a = ab(y) it is also Cay(Z^m) as a coset graph of <y> for
    _witness_repair: the vertex coded v at height j is the vector
    vec(v) + j ab(y).  arc reports each wrap of the pivot entry as a
    height shift, and lift names a vertex by its axis word.
    """

    def __init__(self, m: int, n: int, a):
        pivot = next((i for i, c in enumerate(a) if c), 0)
        self.ab_y = tuple(a) or (0,) * m
        # a wrap up subtracts the positive a, that is wrap ab(y)
        self.wrap = -1 if a and a[pivot] < 0 else 1
        a = [self.wrap * c for c in a]
        self.m = m
        self.M = M = m + 1
        bits = (4 * (n + 2) ** 2).bit_length()
        self.base = 1 << bits
        unit = [0] * m
        self.order = [pivot] + [i for i in range(m) if i != pivot]
        for j, i in enumerate(self.order):
            unit[i] = M << bits * j
        self.a_p = a[pivot] if a else 0
        self.a_code = sum(c * u for c, u in zip(a, unit))
        # per letter, read at the letter itself: code step, generator
        # index, pivot entry step (tracked only when a != 0)
        self.moves = [(0, 0, 0)] * (2 * m + 1)
        for i in range(m):
            dc = 1 if i == pivot and self.a_p else 0
            self.moves[i + 1] = (unit[i], i + 1, dc)
            self.moves[-i - 1] = (-unit[i], i + 1, -dc)

    def arc(self, v: int, s: int) -> tuple[int, int]:
        """The vertex the edge x_s from vertex v leads to, and the height
        shift: +-1 when the pivot entry wraps out of [0, a_pivot)."""
        dv, _, dc = self.moves[s]
        if dc:
            c = v // self.M % self.base + dc
            if c == self.a_p:
                return v + dv - self.a_code, self.wrap
            if c < 0:
                return v + dv + self.a_code, -self.wrap
        return v + dv, 0

    def lift(self, v: int, j: int) -> Word:
        """x_1^b_1 ... x_m^b_m for the vector b of vertex v at height j."""
        n, base, half = v // self.M, self.base, self.base >> 1
        b = [0] * self.m
        for i in self.order:
            digit = (n + half) % base - half
            n = (n - digit) // base
            b[i] = digit + j * self.ab_y[i]
        return Word._trusted(tuple(i if e > 0 else -i for i, e in
                                   enumerate(b, 1) for _ in range(abs(e))),
                             self.m)

    def walk(self, letters, keys: list | None = None) -> dict[int, int]:
        """The flow from 0 of the walk that letters spells, by edge key
        as in SchreierSupport.trace, zero entries dropped; appends the key
        of each letter's edge to keys if given."""
        moves, a_p, a_code = self.moves, self.a_p, self.a_code
        v = c = 0
        flow: dict[int, int] = {}
        get = flow.get
        for s in letters:
            dv, g, dc = moves[s]
            if s > 0:
                key = v + g
                v += dv
                if dc:
                    c += 1
                    if c == a_p:
                        c, v = 0, v - a_code
                flow[key] = get(key, 0) + 1
            else:
                v += dv
                if dc:
                    c -= 1
                    if c < 0:
                        c, v = c + a_p, v + a_code
                key = v + g
                flow[key] = get(key, 0) - 1
            if keys is not None:
                keys.append(key)
        return {key: n for key, n in flow.items() if n}


def _retract(x: Word, y: Word) -> tuple[Word, Word, int, list[int] | None]:
    """x and y renumbered onto x1..xm, m the number of generators they
    use, in the same order, and the old index of each new one (None when
    they already use exactly x1..xm).  S_{m,d} is a retract of S_{r,d},
    so conjugacy and its witnesses carry over."""
    used = set(map(abs, x.letters))
    used.update(map(abs, y.letters))
    m = max(len(used), 1)
    if max(used, default=0) == len(used):
        return (Word._trusted(x.letters, m), Word._trusted(y.letters, m), m,
                None)
    old = sorted(used)
    new = {g: i for i, g in enumerate(old, 1)}

    def renumber(w: Word) -> Word:
        return Word._trusted(tuple(new[s] if s > 0 else -new[-s]
                                   for s in w.letters), m)

    return renumber(x), renumber(y), m, old


# -- the solver -------------------------------------------------------------


def conjugacy_solve(x: Word, y: Word, r: int, d: int, mode: str = "det",
                    rng=None, cube_bound: int | None = None,
                    max_len: int = DEFAULT_MAX_LEN) -> ConjugacyResult:
    """Decide whether x and y are conjugate in S_{r,d}.

    Yes answers carry a witness z with z x z^-1 = y, verified
    deterministically.  Every step is exact, so both modes give the exact
    answer at every depth: mode, rng and cube_bound are taken for the
    signature the three solvers share, and change nothing.  The solve
    runs in S_{m,d}, m the number of generators x and y use, and maps the
    witness back, so its cost does not grow with r.  At d = 1 equal
    abelianizations answer Yes with the empty witness.  At every d >= 2
    a translation invariant of the flows of x and y on Cay(A), hashed in
    one pass over each word, answers most No pairs outright, and only
    the cuts whose hashes match go on, through one loop at every depth
    (see the module docstring and _conjugacy_attempt).  Each is walked
    on the coded Cay(A) and dropped unless the walk is y's.  At d = 2
    that walk is the exact comparison: no coset graph is built, and a
    witness that needs repair is repaired on the coded Cay(Z^m).  At
    d >= 3 only the cuts that pass are traced on a SchreierSupport.
    The hash steers work only, so the answer and the witness never
    depend on its constants.  Raises LengthGuardError when |x|+|y| >=
    max_len, like word_problem and power_solve; the check words the
    solver builds itself get limits that follow from max_len (see
    _verified_witness and _witness_repair), not the input guard.
    """
    if r < 1 or d < 0:
        raise ValueError("need r >= 1 and d >= 0")
    if max(x.rank, y.rank) > r:
        raise ValueError(f"word rank {max(x.rank, y.rank)} exceeds r = {r}")
    n = len(x) + len(y)
    if n >= max_len:
        raise LengthGuardError(f"|x|+|y| = {n} exceeds guard {max_len}")
    if d == 0:
        return ConjugacyResult(True, Word((), rank=r, _reduced=True))
    x, y, m, old = _retract(x, y)
    ab = _exponent_vector(x.letters, m)
    if ab != _exponent_vector(y.letters, m):
        # conjugation-invariant in the abelianization, so never conjugate
        return NO
    if d == 1:  # S_{r,1} = Z^r is abelian
        return ConjugacyResult(True, Word((), rank=r, _reduced=True))
    flow_hash = _FlowHash(x, y, m, ab)
    if not flow_hash.may_translate:
        return NO  # F_y is no translate of F_x: no shift can match
    if not any(ab):
        # a nonzero abelianization is nontrivial at every depth d >= 1
        xt = word_problem(x, m, d, mode="det", max_len=max_len)
        yt = word_problem(y, m, d, mode="det", max_len=max_len)
        if xt and yt:
            return ConjugacyResult(True, Word((), rank=r, _reduced=True))
        if xt or yt:
            return NO
    res = _conjugacy_attempt(x, y, m, d, flow_hash, max_len)
    if old is None or not res.conjugate:
        return res
    return ConjugacyResult(True, Word._trusted(
        tuple(old[s - 1] if s > 0 else -old[-s - 1]
              for s in res.witness.letters), r))


def _conjugacy_attempt(x: Word, y: Word, r: int, d: int,
                       flow_hash: _FlowHash,
                       max_len: int) -> ConjugacyResult:
    """No when no shift gamma_c = y_i x[:c]^-1 has the flow of y on the
    coset graph of <y> in S_{r,d-1}, else Yes with the first that does,
    repaired unless it conjugates x to y on the nose.  y must be
    nontrivial in S_{r,d}, so that it has a flow there (d >= 2).

    Only the cuts flow_hash lets through are looked at, in order; every
    flow-equal cut is among them (see the module docstring).  One loop
    tests each hit at every depth, cheapest test first:

    1. At d = 2 a shift conjugates x to y exactly when y_i^-1 gamma_c x
       gamma_c^-1 y_i, the rotation x[c:] x[:c], equals the rotation
       y[i:] y[:i] in S_{r,2}: by the Magnus embedding, when their flows
       on Cay(Z^r) agree.  Such a shift also has the flow of y on
       Cay(A), so the first hit that conjugates is the first flow-equal
       cut.
    2. At every depth gamma_c x gamma_c^-1 is walked on the coded Cay(A)
       and compared with y's walk there.  At d = 2 that is the coset
       graph; deeper, the coset graph maps onto it, so a hit whose walks
       differ has no flow match and is skipped before any trace.  This
       rejects the hits the hash lets through on the torsion of A.
    3. At d = 2 a match goes straight to _witness_repair on the coded
       Cay(Z^r), since the rotations have already shown that gamma_c
       does not conjugate on the nose.
    4. At d >= 3 a match is traced on a SchreierSupport, and a match
       there goes to _verified_witness on that support.
    """
    xs, ys = x.letters, y.letters
    coded = _Coding(r, len(xs) + len(ys), flow_hash.ab_y)
    keys: list = []
    coded_y = flow_y = coded.walk(ys, keys)
    if d > 2:
        support = SchreierSupport(y, r, d, max_len=max_len)
        flow_y, path = support.y_flow, support.y_path
        keys = [(path[i], s) if s > 0 else (path[i + 1], -s)
                for i, s in enumerate(ys)]
    if not flow_y:
        # pi_y = 0 on Sch_{d-1}(y) holds only for y = 1 in S_{r,d}
        raise AssertionError("trivial flow for a word nontrivial in S_{r,d}")
    # the first letter of y on an edge of nonzero flow
    pick = next(i for i, key in enumerate(keys) if key in flow_y)
    y_i = y.prefix(pick)
    if d == 2:
        plain = _Coding(r, len(xs) + len(ys), ())
        rotated_y = plain.walk(ys[pick:] + ys[:pick])
    for cut in flow_hash.cuts(pick):
        gamma = y_i * ~x.prefix(cut)
        if d == 2 and plain.walk(xs[cut:] + xs[:cut]) == rotated_y:
            return ConjugacyResult(True, gamma)
        w = gamma * x * ~gamma
        if coded.walk(w.letters) != coded_y:
            continue
        if d == 2:
            witness = _witness_repair(x, y, gamma, coded, r, 2, max_len)
        elif support.trace(w)[1] == flow_y:
            witness = _verified_witness(x, y, gamma, support, r, d, max_len)
        else:
            continue
        if witness is None:
            raise AssertionError("deterministic witness repair failed")
        return ConjugacyResult(True, witness)
    return NO
