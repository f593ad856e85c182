"""MVDMiner: discovery of eps-MVDs with minimal separators (Sec. 6).

Implements Figures 3-6 of the paper plus the appendix optimization
(Figs 16/17):

- :meth:`MVDMiner.mine_min_seps` -- MineMinSeps (Fig 5): the Gunopulos
  "dualize and advance" loop. Maintain the family C of known minimal
  A,B-separators; repeatedly take a minimal transversal D of C and test
  whether the complement of D separates A,B; if so, reduce it to a new
  minimal separator (Theorem 6.1 guarantees completeness).
- :meth:`MVDMiner.reduce_min_sep` -- ReduceMinSep (Fig 4): greedy
  shrink under a fixed global attribute ordering (the completeness
  proof of Theorem 6.2 requires the ordering to be the same across
  calls).
- :meth:`MVDMiner.get_full_mvds` -- getFullMVDs (Fig 6) as a DFS over
  dependent-merges starting from the all-singleton MVD, with the
  pairwise-consistency closure of Fig 16 as sound-and-complete pruning:
  if I(Ci;Cj|S) > eps then *every* satisfying coarsening merges Ci and
  Cj (I is monotone under grouping and bounded by J), so the merge can
  be applied eagerly. The closure is incremental: each dependence test
  ``I(Ci;Cj|S) > eps`` is memoized per miner (:meth:`MVDMiner._dependent`),
  and a DFS child re-checks only its merged block against the parent's
  other blocks, which are already pairwise independent.
- :meth:`MVDMiner.separates` -- the separator predicate (Def 5.5): X
  separates A,B iff some eps-MVD with key X puts A and B in different
  dependents. Merging dependents never raises J (Prop 5.1, Fig 16), so
  such an MVD exists iff a two-block one does. ``X ->> A|U-A`` and
  ``X ->> U-B|B`` (U = Omega - X) are two of those, so either one with
  J <= eps is already an exact yes. After the necessary test
  I(A;B|X) <= eps, the predicate tries these two witnesses, whose
  entropies the pair's other keys share, and runs the closure and DFS
  of getFullMVDs only when both fail.
- :meth:`MVDMiner.mine` -- MVDMiner (Fig 3) collects, for each pair
  and each of its minimal separators X, the full MVDs with key X that
  separate the pair. Many pairs share a key, so getFullMVDs runs once
  per key with no pair constraint, and each pair keeps the MVDs that
  separate it (:meth:`MVDMiner._shared_full_mvds`). That is exactly the
  pair-constrained answer: the closure makes only merges that every
  satisfying coarsening makes, so the DFS reaches a satisfying
  refinement of each satisfying partition, and the post-filter keeps
  exactly the finest ones; a refinement of a partition that separates
  A,B separates them too.

Attribute sets are the engine's int bitmasks (bit i is the i-th name in
sorted order), so ReduceMinSep's global ordering (ascending bits) and
the block order (lowest bit first) follow sorted names. Every method
but :meth:`MVDMiner.mine` takes and yields masks only, MVDs included;
``mine`` turns each pair of names into a mask on the way in and each
separator into names on the way out.

A search that explores more than :attr:`MVDMiner.max_nodes` nodes is
counted as truncated; its "no" is not memoized by
:meth:`MVDMiner.separates`, its MVDs are not shared by
:meth:`MVDMiner._shared_full_mvds`, and :attr:`MinerResult.complete`
reports the run as partial.

Deviations from the pseudocode, documented in DESIGN.md: a visited set
over canonical partitions (the merge graph is a DAG), a post-filter
dropping returned MVDs strictly refined by other returned MVDs (the
paper's traversal can emit non-full satisfying MVDs), and one
getFullMVDs search per key in :meth:`MVDMiner.mine` instead of one per
pair and separator.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from repro.core.mvd import MVD, canon, refines
from repro.entropy.base import FLOAT_TOL, EntropyEngine
from repro.hypergraph.transversal import bits, minimal_transversals


class DeadlineReached(Exception):
    """Raised when the cooperative time budget is exhausted."""


class Deadline:
    """Cooperative wall-clock budget (the paper's TL, scaled down)."""

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self._t0 = time.monotonic()

    def check(self) -> None:
        if self.seconds is not None and time.monotonic() - self._t0 > self.seconds:
            raise DeadlineReached()


@dataclass
class MinerResult:
    """Output of a mining run; partial unless :attr:`complete`."""

    epsilon: float
    minseps: dict[tuple[str, str], list[frozenset]] = field(default_factory=dict)
    full_mvds: list[MVD] = field(default_factory=list)
    timed_out: bool = False
    elapsed: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """False if the deadline or a search's node budget cut the run."""
        return not self.timed_out and not self.stats.get("truncated_searches", 0)

    @property
    def n_minseps(self) -> int:
        return sum(len(v) for v in self.minseps.values())

    @property
    def n_full_mvds(self) -> int:
        return len(self.full_mvds)


_Node = tuple[int, ...]


#: Per-miner counters reported in ``MinerResult.stats`` (per run).
_COUNTERS = (
    "nodes_explored", "truncated_searches", "dependence_tests", "dependence_memo_hits",
    "separator_tests", "witness_hits", "transversal_rounds", "full_searches", "full_shared",
)


class MVDMiner:
    """Mines ``M_eps`` (Eq. 11) over one relation via an entropy engine."""

    #: Node budget of one getFullMVDs search (a documented heuristic).
    max_nodes = 50_000

    def __init__(self, engine: EntropyEngine, epsilon: float, *, deadline_s: float | None = None):
        self.engine = engine
        self.eps = float(epsilon)
        # All threshold comparisons use eps + FLOAT_TOL (see entropy.base).
        self.eps_eff = self.eps + FLOAT_TOL
        self.deadline = Deadline(deadline_s)
        self._all = (1 << len(engine.columns)) - 1
        # (X, A|B) -> X separates A, B.
        self._sep_memo: dict[tuple[int, int], bool] = {}
        # (key, Ci, Cj) with Ci < Cj -> I(Ci;Cj|key) > eps.
        self._dep_memo: dict[tuple[int, int, int], bool] = {}
        # key -> get_full_mvds(key), from searches the node budget did not cut.
        self._full_memo: dict[int, list[MVD]] = {}
        self.nodes_explored = 0
        self.truncated_searches = 0
        self.dependence_tests = 0
        self.dependence_memo_hits = 0
        self.separator_tests = 0  # separates() calls that miss _sep_memo
        self.witness_hits = 0  # separator tests a two-block witness answered
        self.transversal_rounds = 0  # minimal_transversals() calls
        self.full_searches = 0  # getFullMVDs runs made by mine()
        self.full_shared = 0  # separators mine() answered from _full_memo

    # ------------------------------------------------------------------
    # getFullMVDs (Fig 6 / Fig 17)
    # ------------------------------------------------------------------
    def _dependent(self, key: int, ci: int, cj: int) -> bool:
        """Memoized dependence test I(Ci;Cj|key) > eps."""
        memo_key = (key, ci, cj) if ci < cj else (key, cj, ci)
        dep = self._dep_memo.get(memo_key)
        if dep is None:
            self.dependence_tests += 1
            dep = self.engine.mutual_info(ci, cj, key) > self.eps_eff
            self._dep_memo[memo_key] = dep
        else:
            self.dependence_memo_hits += 1
        return dep

    def _closure(self, key: int, done: list[int], todo: list[int], pair: int) -> _Node | None:
        """Pairwise-consistency closure (Fig 16): merge dependent blocks
        until every pair has I(Ci;Cj|key) <= eps; None if A,B get merged
        (``pair`` is the mask of A and B, or 0).

        ``done`` must be pairwise independent. Each block popped from
        ``todo`` is tested against ``done`` only: a dependent partner is
        merged into it and the union goes back onto ``todo``. I is
        monotone under grouping, so every merge is forced in any order
        and the fixpoint (and the A,B abort) does not depend on it.
        """
        while todo:
            c = todo.pop()
            for t, d in enumerate(done):
                if self._dependent(key, c, d):
                    if c & pair and d & pair:
                        return None
                    del done[t]
                    todo.append(c | d)
                    break
            else:
                done.append(c)
        return canon(done)

    def get_full_mvds(self, key: int, pair: int = 0, k: float = math.inf) -> list[MVD]:
        """Up to ``k`` full eps-MVDs with key ``key`` (separating the two
        attributes of ``pair``, if given)."""
        if pair & key:
            raise ValueError("pair attributes must not be in the key")
        root = self._closure(key, [], bits(self._all & ~key), pair)
        if root is None or len(root) < 2:
            return []
        # Every node keeps A and B in different blocks: the DFS never
        # merges their blocks, and the closure aborts rather than do so.
        found: list[_Node] = []
        visited: set[_Node] = {root}
        stack: list[_Node] = [root]
        nodes = 0
        while stack and len(found) < k:
            self.deadline.check()
            nodes += 1
            self.nodes_explored += 1
            if nodes > self.max_nodes:
                self.truncated_searches += 1
                break  # search budget; partial results (documented heuristic)
            parts = stack.pop()
            if self.engine.j_parts(key, parts) <= self.eps_eff:
                found.append(parts)
                continue
            m = len(parts)
            for i in range(m):
                for j in range(i + 1, m):
                    if parts[i] & pair and parts[j] & pair:
                        continue  # never merge A's and B's components
                    others = [p for t, p in enumerate(parts) if t not in (i, j)]
                    if not others:
                        continue
                    child = self._closure(key, others, [parts[i] | parts[j]], pair)
                    if child is None or len(child) < 2:
                        continue
                    if child not in visited:
                        visited.add(child)
                        stack.append(child)
        # All found nodes partition the same attributes under one key, so
        # "o strictly refines m" is "o has more blocks and refines m". The
        # filter is quadratic in len(found), so it answers to the deadline.
        full = []
        for m in found:
            self.deadline.check()
            if not any(len(o) > len(m) and refines(o, m) for o in found):
                full.append(m)
        return sorted((MVD.of(key, m, self.engine.names) for m in full), key=str)

    def _shared_full_mvds(self, key: int, pair: int) -> list[MVD]:
        """``get_full_mvds(key, pair)``, from one search per key with no
        pair constraint, shared by every pair that ``key`` separates. A
        search the node budget cut is not memoized: its partial list is
        not a fact."""
        full = self._full_memo.get(key)
        if full is None:
            self.full_searches += 1
            truncated = self.truncated_searches
            full = self.get_full_mvds(key)
            if self.truncated_searches == truncated:
                self._full_memo[key] = full
        else:
            self.full_shared += 1
        return [m for m in full if m.separates(pair)]

    # ------------------------------------------------------------------
    # separator predicate (Def. 5.5), memoized
    # ------------------------------------------------------------------
    def _witness(self, x: int, pair: int) -> bool:
        """Whether ``X ->> A|U-A`` or ``X ->> B|U-B`` has J <= eps, where
        U is every attribute outside X and A, B are the bits of ``pair``.

        Either MVD separates A and B, so a yes is exact. Its entropies
        are H(X), H(XA), H(XB), which the I(A;B|X) test has read, and
        H(Omega), H(Omega-A), H(Omega-B), which every key of the pair
        shares.
        """
        rest = self._all & ~x
        low = pair & -pair
        return any(self.engine.j_parts(x, (a, rest ^ a)) <= self.eps_eff for a in (low, pair ^ low))

    def separates(self, x: int, pair: int) -> bool:
        memo_key = (x, pair)
        hit = self._sep_memo.get(memo_key)
        if hit is not None:
            return hit
        self.separator_tests += 1
        # Necessary condition (Prop. 5.1): I(A;B|X) <= J of any separating MVD.
        low = pair & -pair
        if self._dependent(x, low, pair ^ low):
            ans = False
        elif self._witness(x, pair):
            self.witness_hits += 1
            ans = True
        else:
            truncated = self.truncated_searches
            ans = bool(self.get_full_mvds(x, pair, k=1))
            if not ans and self.truncated_searches > truncated:
                return ans  # a cut search's "no" is not a fact
        self._sep_memo[memo_key] = ans
        return ans

    # ------------------------------------------------------------------
    # ReduceMinSep (Fig 4)
    # ------------------------------------------------------------------
    def reduce_min_sep(self, x: int, pair: int) -> int:
        """Greedily shrink a separator to a minimal one, scanning the
        fixed global ordering: ascending bits."""
        for attr in bits(x):
            self.deadline.check()
            if self.separates(x ^ attr, pair):
                x ^= attr
        return x

    # ------------------------------------------------------------------
    # MineMinSeps (Fig 5)
    # ------------------------------------------------------------------
    def mine_min_seps(self, pair: int) -> Iterator[int]:
        """All minimal A,B-separators of the two attributes of ``pair``,
        each yielded as soon as it is found, so a caller that stops at a
        deadline keeps the separators found before it.

        Each round takes the minimal transversals of the separators found
        so far and either adds one separator or ends the pair, so a
        complete pair makes one round per separator. The family only
        grows by appending, so :func:`minimal_transversals` folds just the
        new separator into the transversals it cached for the last round.
        """
        universe = self._all & ~pair
        if not self.separates(universe, pair):
            return
        c = [self.reduce_min_sep(universe, pair)]
        yield c[0]
        processed: set[int] = set()
        while True:
            self.transversal_rounds += 1
            for d in minimal_transversals(c):
                self.deadline.check()
                if d in processed:
                    continue
                processed.add(d)
                comp = universe & ~d
                if self.separates(comp, pair):
                    # d hits every known separator, so x (inside comp) is new.
                    x = self.reduce_min_sep(comp, pair)
                    c.append(x)
                    yield x
                    break
            else:
                return

    # ------------------------------------------------------------------
    # MVDMiner main loop (Fig 3)
    # ------------------------------------------------------------------
    def mine(
        self,
        pairs: Sequence[tuple[str, str]] | None = None,
        *,
        minseps_only: bool = False,
    ) -> MinerResult:
        """Run the full miner; partial results on deadline or node budget
        (see :attr:`MinerResult.complete`). Each separator's full MVDs
        are taken as MineMinSeps yields it, so a run cut by the deadline
        keeps the full MVDs of the separators found before it. They come
        from :meth:`_shared_full_mvds`."""
        t0 = time.monotonic()
        counts0 = [getattr(self, c) for c in _COUNTERS]
        info0 = self.engine.cache_info()
        res = MinerResult(epsilon=self.eps)
        if pairs is None:
            pairs = list(combinations(sorted(self.engine.columns), 2))
        seen: set[MVD] = set()
        try:
            for a, b in pairs:
                seps = res.minseps[(a, b)] = []
                pair = self.engine.mask((a, b))
                for x in self.mine_min_seps(pair):
                    seps.append(self.engine.attrs(x))
                    if minseps_only:
                        continue
                    for m in self._shared_full_mvds(x, pair):
                        if m not in seen:
                            seen.add(m)
                            res.full_mvds.append(m)
        except DeadlineReached:
            res.timed_out = True
        res.elapsed = time.monotonic() - t0
        info = self.engine.cache_info()
        # Counters are this run's work; "cached" is the memo's size.
        res.stats = {
            **{c: getattr(self, c) - n0 for c, n0 in zip(_COUNTERS, counts0)},
            "cached": info["cached"],
            "calls": info["calls"] - info0["calls"],
            "computations": info["computations"] - info0["computations"],
        }
        return res

