"""Conjugacy in S_{r,d} through flows on the Schreier graph of <y>.

Two nontrivial words are conjugate exactly when some shift gamma of x
defines the same flow as y on the coset graph of <y> in S_{r,d-1}.  The
solver builds that coset graph lazily, identifying cosets by their image
in Z^r / Z ab(y) (exact for d <= 2) and, for d >= 3, through the
cyclic-membership solver, and scans the |x|+1 shifts gamma = y_i x'^{-1}.

A positive answer also carries a verified witness.  The shift that
certifies conjugacy need not conjugate x to y on the nose: the leftover
is invisible to the Schreier flow (it lives along the <y>-direction).
The repair solves h - h^y = delta for the leftover flow delta, realizes
the solution as a product of based cycle words, and prepends it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Word, concat_reduced
from .xdigraph import FoldConflict, XDigraph
from .wordproblem import word_problem
from .power import member_of_cyclic, power_solve

_MC_RETRIES = 5


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


def _ab_height(word_ab, rep_ab, ab_y) -> int | None:
    """Exponent j with word = y^j * rep in S_{r,1} = Z^r, or None if none.

    That is ab(word) - ab(rep) = j ab(y).  With ab(y) = 0 it is 1 when the
    difference vanishes and None otherwise, as power_solve reports then.
    """
    diff = [a - b for a, b in zip(word_ab, rep_ab)]
    pivot = next((i for i, c in enumerate(ab_y) if c), None)
    if pivot is None:
        return None if any(diff) else 1
    j, rem = divmod(diff[pivot], ab_y[pivot])
    if rem or any(a != j * c for a, c in zip(diff, ab_y)):
        return None
    return j


class SchreierSupport:
    """Lazily built support of traced words in the coset graph of <y>.

    Vertices are right cosets <y>g in S_{r,d-1}, keyed by their image in
    Z^r / Z ab(y).  Equal keys are necessary for equal cosets at every
    depth and exact at depth d-1 <= 1, where that quotient is S_{r,d-1}/<y>
    itself; deeper, a bucket's candidates q are told apart by membership
    tests g q^-1 in <y>.  Tracing follows existing edges for free and only
    locates cosets on missing ones.
    """

    def __init__(self, y: Word, r: int, d: int, mode: str = "det", rng=None,
                 cube_bound: int | None = None):
        if d < 1:
            raise ValueError("Schreier supports live at depth d-1 >= 0")
        self.y = y
        self.r = r
        self.depth = d - 1
        self.mode = mode
        self.rng = rng
        self.cube_bound = cube_bound
        self.memo: dict = {}
        self.reps: list[tuple[int, ...]] = [()]
        self.out: dict[tuple[int, int], int] = {}
        self._ab_y = _exponent_vector(y.letters, r)
        self._pivot = next((i for i, c in enumerate(self._ab_y) if c), None)
        self.buckets: dict[tuple, list[int]] = {self._bucket_key(()): [0]}
        self.y_path, self.y_flow = self.trace(y)
        if self.y_path[-1] != 0:
            # <y> y = <y>, so a correct construction closes the cycle
            if mode == "mc":
                raise FoldConflict("membership noise broke the base cycle")
            raise AssertionError("deterministic y-trace failed to close")

    # -- coset bookkeeping -------------------------------------------------

    def _bucket_key(self, letters: tuple[int, ...]) -> tuple:
        """Canonical image in Z^r / Z ab(y), or () at depth 0; equal keys
        are necessary for equal cosets at every depth and sufficient at
        depth <= 1."""
        if self.depth == 0:
            return ()
        vec = _exponent_vector(letters, self.r)
        if self._pivot is not None:
            k = vec[self._pivot] // self._ab_y[self._pivot]
            vec = [a - k * b for a, b in zip(vec, self._ab_y)]
        return tuple(vec)

    def _locate_or_add(self, letters: tuple[int, ...]) -> int:
        """Vertex of the coset <y> * letters, creating it if unseen."""
        bucket = self.buckets.setdefault(self._bucket_key(letters), [])
        if bucket and self.depth <= 1:
            return bucket[0]  # the key is the coset itself
        hits = []
        for q in bucket:
            gq = Word(concat_reduced(letters,
                                     tuple(-s for s in reversed(self.reps[q]))),
                      rank=self.r, _reduced=True)
            if member_of_cyclic(gq, self.y, self.r, self.depth,
                                mode=self.mode, rng=self.rng,
                                cube_bound=self.cube_bound, memo=self.memo):
                hits.append(q)
                if self.mode == "det":
                    # exact membership never matches two cosets
                    return q
        if len(hits) > 1:
            raise FoldConflict("membership noise merged two cosets")
        if hits:
            return hits[0]
        v = len(self.reps)
        self.reps.append(letters)
        bucket.append(v)
        return v

    def _step(self, u: int, s: int) -> int:
        tgt = self.out.get((u, s))
        if tgt is not None:
            return tgt
        p = self.reps[u]
        nxt = p[:-1] if p and p[-1] == -s else p + (s,)
        tgt = self._locate_or_add(nxt)
        back = self.out.get((tgt, -s))
        if back is not None and back != u:
            if self.mode == "mc":
                raise FoldConflict("membership noise unfolded the graph")
            raise AssertionError("deterministic support lost foldedness")
        self.out[(u, s)] = tgt
        self.out[(tgt, -s)] = u
        return tgt

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
            nxt = self._step(v, s)
            key = (v, s) if s > 0 else (nxt, -s)
            val = flow.get(key, 0) + (1 if s > 0 else -1)
            if val:
                flow[key] = val
            else:
                flow.pop(key, None)
            v = nxt
            path.append(v)
        return path, flow

    def coset_path(self, w: Word) -> list[int]:
        return self.trace(w)[0]

    def as_xdigraph(self) -> XDigraph:
        edges = set()
        for (u, s), tgt in self.out.items():
            edges.add((u, tgt, s) if s > 0 else (tgt, u, -s))
        return XDigraph(len(self.reps), 0, edges)


def schreier_support(y: Word, extra=(), r: int | None = None, d: int = 2,
                     mode: str = "det", rng=None,
                     cube_bound: int | None = None) -> SchreierSupport:
    """Support of the traces of y and the extra words in Sch_{d-1}(y)."""
    if r is None:
        r = max([y.rank] + [w.rank for w in extra])
    sup = SchreierSupport(y, r, d, mode=mode, rng=rng, cube_bound=cube_bound)
    for w in extra:
        sup.trace(w)
    return sup


# -- witness construction --------------------------------------------------



def _height(word_letters: tuple[int, ...], rep: tuple[int, ...], y: Word,
            r: int, depth: int, memo: dict) -> int | None:
    """Exponent j with word = y^j * rep in S_{r,depth}, or None if none.

    Exact at every depth via the power solver; heights are unique because
    free solvable groups are torsion free.  Witness repair calls it at
    depth >= 2 only: _ab_height gives depth 1 in closed form.
    """
    key = (word_letters, rep)
    if key in memo:
        return memo[key]
    g = Word(concat_reduced(word_letters, tuple(-s for s in reversed(rep))),
             rank=r, _reduced=True)
    res = power_solve(g, y, r, depth, mode="det")
    memo[key] = res.k
    return res.k


def _witness_repair(x: Word, y: Word, gamma: Word, sup: SchreierSupport,
                    r: int, d: int) -> Word | None:
    """Turn a flow-equality shift gamma into a genuine conjugator.

    gamma x gamma^-1 agrees with y on the Schreier graph of <y>, so their
    difference flow delta on Cay(S_{r,d-1}) sums to zero along every
    <y>-orbit of edges.  Cayley edges are coordinatized as (coset vertex,
    height, letter) where g = y^height * rep(coset); translation by y is
    height + 1, so h with h - h^y = delta comes out of prefix sums along
    each orbit.  Realizing h as a product of based Eulerian cycle words
    and prepending it to gamma gives the conjugator.

    Returns None when the premise fails, which only happens under Monte
    Carlo membership noise; callers treat that as an inconclusive trial.
    """
    depth = d - 1
    if depth < 1:
        return None  # depth-0 repairs never arise: gamma already verifies
    w = gamma * x * ~gamma
    memo: dict = {}
    rep_ab: dict[int, tuple[int, ...]] = {}

    def ab_height(word_ab, v: int) -> int | None:
        if v not in rep_ab:
            rep_ab[v] = _exponent_vector(sup.reps[v], r)
        return _ab_height(word_ab, rep_ab[v], sup._ab_y)

    def cayley_flow(u: Word) -> dict[tuple[int, int, int], int] | None:
        """Flow of u on Cay(S_{r,depth}) keyed (coset, height, letter)."""
        path, _ = sup.trace(u)
        heights = []
        ab = [0] * r  # exponent vector of the prefix, built incrementally
        for i in range(len(u) + 1):
            if depth == 1:
                if i:
                    s = u.letters[i - 1]
                    ab[abs(s) - 1] += 1 if s > 0 else -1
                j = ab_height(ab, path[i])
            else:
                j = _height(tuple(u.letters[:i]), sup.reps[path[i]], y, r,
                            depth, memo)
            if j is None:
                return None  # coset bookkeeping was wrong (Monte Carlo noise)
            heights.append(j)
        flow: dict[tuple[int, int, int], int] = {}
        for i, s in enumerate(u.letters):
            if s > 0:
                key = (path[i], heights[i], s)
                val = flow.get(key, 0) + 1
            else:
                key = (path[i + 1], heights[i + 1], -s)
                val = flow.get(key, 0) - 1
            if val:
                flow[key] = val
            else:
                del flow[key]
        return flow

    fy = cayley_flow(y)
    fw = cayley_flow(w)
    if fy is None or fw is None:
        return None
    delta = dict(fy)
    for k, v in fw.items():
        nv = delta.get(k, 0) - v
        if nv:
            delta[k] = nv
        else:
            delta.pop(k, None)

    # h(v, J, c) = sum of delta over (v, j, c) with j <= J; orbit totals
    # vanish exactly when the Schreier flows of y and w agree
    orbits: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (v, j, c), val in delta.items():
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

    candidate = gamma
    if h:
        # per-edge height shift: rep(v) * x_c = y^shift * rep(v') exactly
        def edge_target(v: int, c: int) -> tuple[int, int] | None:
            vv = sup._step(v, c)
            if depth == 1:
                j = ab_height(_exponent_vector(sup.reps[v] + (c,), r), vv)
            else:
                j = _height(concat_reduced(sup.reps[v], (c,)), sup.reps[vv],
                            y, r, depth, memo)
            return None if j is None else (vv, j)

        shifts: dict[tuple[int, int], tuple[int, int]] = {}
        adj: dict[tuple[int, int], list[tuple[tuple[int, int], int]]] = {}
        for (v, j, c), val in h.items():
            if (v, c) not in shifts:
                tgt = edge_target(v, c)
                if tgt is None:
                    return None
                shifts[(v, c)] = tgt
            vv, dj = shifts[(v, c)]
            a, b = (v, j), (vv, j + dj)
            arc = (a, b, c) if val > 0 else (b, a, -c)
            for _ in range(abs(val)):
                adj.setdefault(arc[0], []).append((arc[1], arc[2]))
                adj.setdefault(arc[1], [])
        bal: dict[tuple[int, int], int] = {}
        for a, outs in adj.items():
            bal[a] = bal.get(a, 0) + len(outs)
            for (b, _) in outs:
                bal[b] = bal.get(b, 0) - 1
        if any(bal.values()):
            return None  # h is not a circulation: premise was noise

        def vertex_word(vj: tuple[int, int]) -> Word:
            v, j = vj
            return (y ** j) * Word(sup.reps[v], rank=r, _reduced=True)

        z_h = Word((), rank=r, _reduced=True)
        while True:
            remaining = sorted(a for a, outs in adj.items() if outs)
            if not remaining:
                break
            base = remaining[0]
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
            rep = vertex_word(base)
            z_h = z_h * (rep * Word(circuit, rank=r) * ~rep)
        candidate = z_h * gamma

    ok = word_problem(candidate * x * ~candidate * ~y, r, d, mode="det")
    return candidate if ok else None


def _verified_witness(x: Word, y: Word, gamma: Word, sup: SchreierSupport,
                      r: int, d: int) -> Word | None:
    if word_problem(gamma * x * ~gamma * ~y, r, d, mode="det"):
        return gamma
    return _witness_repair(x, y, gamma, sup, r, d)


# -- the solver -------------------------------------------------------------


def conjugacy_solve(x: Word, y: Word, r: int, d: int, mode: str = "det",
                    rng=None, cube_bound: int | None = None) -> ConjugacyResult:
    """Decide whether x and y are conjugate in S_{r,d}.

    Yes answers carry a witness z with z x z^-1 = y, verified
    deterministically.  Monte Carlo trials that trip over inconsistent
    membership answers are retried with fresh randomness a bounded number
    of times before the conflict is surfaced.
    """
    if r < 1 or d < 0:
        raise ValueError("need r >= 1 and d >= 0")
    if d == 0:
        return ConjugacyResult(True, Word((), rank=r, _reduced=True))
    n = len(x) + len(y)
    B = None
    if mode == "mc":
        B = cube_bound if cube_bound is not None else 25 * max(1, n) ** 6
    ab = _exponent_vector(x.letters, r)
    if ab != _exponent_vector(y.letters, r):
        # conjugation-invariant in the abelianization, so never conjugate
        return NO
    if not any(ab):
        # a nonzero abelianization is nontrivial at every depth d >= 1
        xt = word_problem(x, r, d, mode=mode, rng=rng, cube_bound=B)
        yt = word_problem(y, r, d, mode=mode, rng=rng, cube_bound=B)
        if xt and yt:
            return ConjugacyResult(True, Word((), rank=r, _reduced=True))
        if xt or yt:
            return NO

    attempts = _MC_RETRIES if mode == "mc" else 1
    last_conflict: Exception | None = None
    for _ in range(attempts):
        try:
            return _conjugacy_attempt(x, y, r, d, mode, rng, B)
        except FoldConflict as exc:
            last_conflict = exc
    raise last_conflict  # surfaced after bounded retries


def _conjugacy_attempt(x: Word, y: Word, r: int, d: int, mode: str, rng,
                       cube_bound: int | None) -> ConjugacyResult:
    sup = SchreierSupport(y, r, d, mode=mode, rng=rng, cube_bound=cube_bound)
    flow_y = sup.y_flow
    if not flow_y:
        # pi_y = 0 on Sch_{d-1}(y) holds only for y = 1 in S_{r,d}
        if mode == "mc":
            raise FoldConflict("flow of y vanished on its own Schreier graph")
        raise AssertionError("trivial flow for a word nontrivial in S_{r,d}")
    pick = None
    for i, s in enumerate(y.letters):
        u, nxt = sup.y_path[i], sup.y_path[i + 1]
        key = (u, s) if s > 0 else (nxt, -s)
        if flow_y.get(key, 0) != 0:
            pick = i
            break
    if pick is None:
        raise AssertionError("nonzero flow without a nonzero edge on the path")
    y_i = y.prefix(pick)

    for cut in range(len(x) + 1):
        gamma = y_i * ~x.prefix(cut)
        _, flow_w = sup.trace(gamma * x * ~gamma)
        if flow_w == flow_y:
            witness = _verified_witness(x, y, gamma, sup, r, d)
            if witness is None:
                if mode == "mc":
                    raise FoldConflict("flow equality was not certifiable")
                raise AssertionError("deterministic witness repair failed")
            return ConjugacyResult(True, witness)
    return NO
