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
- :meth:`MVDMiner._splits` -- the one split search behind both
  getFullMVDs and the separator predicate. It places the blocks of a
  partition, one at a time, on S's side or on T's side, and drops a
  partial placement once I(S0;T0|X) passes its slack: adding a block
  never lowers I (chain rule, I >= 0). Every I comes from one memo per
  miner (:meth:`MVDMiner._info`).
- The pairwise-consistency closure of Fig 16 gives the blocks it
  places: if I(Ci;Cj|X) > eps then *every* satisfying coarsening merges
  Ci and Cj (I is monotone under grouping and bounded by J), so every
  satisfying partition of U = Omega - X coarsens the closure root.
- :meth:`MVDMiner.get_full_mvds` -- getFullMVDs (Fig 6), top-down.
  Splitting a block C of a partition into C1|C2 adds exactly
  I(C1;C2|X) to J. So from the one-block partition U, the children of a
  satisfying partition are its single splits (into unions of root
  blocks) that keep J <= eps, and the leaves are exactly the full
  eps-MVDs: a partition is full iff no single split of it satisfies. A
  satisfying root is the one full MVD.
- :meth:`MVDMiner.separates` -- the separator predicate (Def 5.5): X
  separates A,B iff some eps-MVD with key X puts A and B in different
  dependents. Merging dependents never raises J (Prop 5.1, Fig 16), so
  such an MVD exists iff a two-block one does. ``X ->> A|U-A`` and
  ``X ->> U-B|B`` are two of those, so either one with J <= eps is
  already an exact yes. After the necessary test I(A;B|X) <= eps, the
  predicate tries these two witnesses, whose entropies the pair's other
  keys share. When both fail, the answer is no if A and B share a
  closure root block, and otherwise yes iff the split search, started
  from A's block and B's block, places every other root block with
  I(S;T|X) <= eps.
- :meth:`MVDMiner.mine` -- MVDMiner (Fig 3) collects, for each pair
  and each of its minimal separators X, the full MVDs with key X that
  separate the pair. Many pairs share a key, so getFullMVDs runs once
  per key and each pair keeps the MVDs that separate it
  (:meth:`MVDMiner.shared_full_mvds`). That is exactly the
  pair-constrained answer, since a refinement of a partition that
  separates A,B separates them too.

Attribute sets are the engine's int bitmasks (bit i is the i-th name in
sorted order), so ReduceMinSep's global ordering (ascending bits) and
the block order (lowest bit first) follow sorted names. Every method
but :meth:`MVDMiner.mine` takes and yields masks only, MVDs included;
``mine`` turns each pair of names into a mask on the way in and each
separator into names on the way out.

A getFullMVDs search that visits more than :attr:`MVDMiner.max_nodes`
partitions is counted as truncated; its MVDs are not shared by
:meth:`MVDMiner.shared_full_mvds`, and :attr:`MinerResult.complete`
reports the run as partial. Its leaves are full all the same, so a cut
search returns a subset of the true answer. The separator predicate has
no node budget: it is exact, and only the deadline stops it, by raising.

Deviations from the pseudocode, documented in DESIGN.md: getFullMVDs
runs top-down over the satisfying partitions (with a visited set)
instead of bottom-up over dependent merges, and :meth:`MVDMiner.mine`
runs one getFullMVDs search per key instead of one per pair and
separator.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from repro.core.mvd import MVD, canon
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
    "separator_tests", "witness_hits", "split_nodes", "transversal_rounds", "full_searches",
    "full_shared",
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
        # (key, Ci, Cj) with Ci < Cj -> I(Ci;Cj|key).
        self._info_memo: dict[tuple[int, int, int], float] = {}
        # key -> get_full_mvds(key), from searches the node budget did not cut.
        self._full_memo: dict[int, list[MVD]] = {}
        self.nodes_explored = 0  # partitions getFullMVDs visited
        self.truncated_searches = 0
        self.dependence_tests = 0
        self.dependence_memo_hits = 0
        self.separator_tests = 0  # separates() calls that miss _sep_memo
        self.witness_hits = 0  # separator tests a two-block witness answered
        self.split_nodes = 0  # partial placements the split search visited
        self.transversal_rounds = 0  # minimal_transversals() calls
        self.full_searches = 0  # getFullMVDs runs made by mine()
        self.full_shared = 0  # separators mine() answered from _full_memo

    # ------------------------------------------------------------------
    # the split search, getFullMVDs (Fig 6 / Fig 17) and Def 5.5
    # ------------------------------------------------------------------
    def _info(self, key: int, ci: int, cj: int) -> float:
        """Memoized I(Ci;Cj|key)."""
        memo_key = (key, ci, cj) if ci < cj else (key, cj, ci)
        info = self._info_memo.get(memo_key)
        if info is None:
            self.dependence_tests += 1
            info = self._info_memo[memo_key] = self.engine.mutual_info(ci, cj, key)
        else:
            self.dependence_memo_hits += 1
        return info

    def _closure(self, key: int, todo: list[int]) -> _Node:
        """Pairwise-consistency closure (Fig 16) of the blocks ``todo``:
        merge dependent blocks until every pair has I(Ci;Cj|key) <= eps.

        Each block popped from ``todo`` is tested against the blocks
        done, which are pairwise independent: a dependent partner is
        merged into it and the union goes back onto ``todo``. I is
        monotone under grouping, so every merge is forced in any order
        and the fixpoint does not depend on it.
        """
        done: list[int] = []
        while todo:
            c = todo.pop()
            for t, d in enumerate(done):
                if self._info(key, c, d) > self.eps_eff:
                    del done[t]
                    todo.append(c | d)
                    break
            else:
                done.append(c)
        return canon(done)

    def _splits(self, key: int, s: int, t: int, rest: list[int], slack: float) -> Iterator:
        """Each (S, T), T not empty, that places every block of ``rest``
        on the side of ``s`` or of ``t`` while each partial placement
        keeps I(S0;T0|key) within ``slack``.

        Adding a block never lowers I (chain rule, I >= 0), so a partial
        placement past the slack has no leaf within it. The prune allows
        a FLOAT_TOL margin, so rounding cannot drop a leaf; callers
        decide each leaf by an exact test. Every I is read through
        :meth:`_info`.
        """
        bound = slack + FLOAT_TOL
        stack = [(s, t, 0)]
        while stack:
            self.deadline.check()
            self.split_nodes += 1
            s, t, i = stack.pop()
            if i < len(rest):
                c = rest[i]
                if not t or self._info(key, s | c, t) <= bound:
                    stack.append((s | c, t, i + 1))
                if self._info(key, s, t | c) <= bound:
                    stack.append((s, t | c, i + 1))
            elif t:
                yield s, t

    def get_full_mvds(self, key: int) -> list[MVD]:
        """The full eps-MVDs with key ``key``, top-down: splitting a block
        C into C1|C2 adds exactly I(C1;C2|key) to J, so from the one-block
        partition the children of a satisfying partition are its single
        splits that keep J <= eps, and its leaves are the full MVDs.
        Every satisfying partition coarsens the closure root, so the
        splits follow root blocks, and a satisfying root is the answer."""
        root = self._closure(key, bits(self._all & ~key))
        if len(root) < 2:
            return []
        if self.engine.j_parts(key, root) <= self.eps_eff:
            return [MVD.of(key, root, self.engine.names)]
        start: _Node = (self._all & ~key,)
        found, visited, stack = [], {start}, [(start, 0.0)]
        nodes0 = self.nodes_explored
        while stack:
            self.deadline.check()
            self.nodes_explored += 1
            if self.nodes_explored - nodes0 > self.max_nodes:
                self.truncated_searches += 1
                break  # search budget; the leaves found are full all the same
            parts, j = stack.pop()
            leaf = True
            for i, c in enumerate(parts):
                blocks = [r for r in root if r & c]
                for s, t in self._splits(key, blocks[0], 0, blocks[1:], self.eps_eff - j):
                    child = canon((*parts[:i], *parts[i + 1 :], s, t))
                    j_child = self.engine.j_parts(key, child)
                    if j_child <= self.eps_eff:
                        leaf = False
                        if child not in visited:
                            visited.add(child)
                            stack.append((child, j_child))
            if leaf and len(parts) > 1:
                found.append(parts)
        return sorted((MVD.of(key, m, self.engine.names) for m in found), key=str)

    def shared_full_mvds(self, key: int, pair: int) -> list[MVD]:
        """The full eps-MVDs with key ``key`` that separate the two
        attributes of ``pair``, from one search per key shared by every
        pair. A search the node budget cut is not memoized: its partial
        list is not the whole answer."""
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
        if self._info(x, low, pair ^ low) > self.eps_eff:
            ans = False
        elif self._witness(x, pair):
            self.witness_hits += 1
            ans = True
        else:
            root = self._closure(x, bits(self._all & ~x))
            s, t = (next(c for c in root if c & side) for side in (low, pair ^ low))
            ans = s != t and any(
                self._info(x, *split) <= self.eps_eff
                for split in self._splits(x, s, t, [c for c in root if not c & pair], self.eps_eff)
            )
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
        from :meth:`shared_full_mvds`."""
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
                    for m in self.shared_full_mvds(x, pair):
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

