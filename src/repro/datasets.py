"""Synthetic analogs of the paper's evaluation datasets.

The paper evaluates on 20 real-world Metanome datasets plus UCI Nursery
(Table 2, Sec. 8). Those files are unavailable offline, so each is
replaced by a *seeded synthetic analog* with the same column count and
(scaled) row count, generated with a **planted approximate acyclic
schema**: sample a random join tree over the columns, materialize the
exact acyclic join (globally consistent by construction, so the planted
schema has J = 0 before noise), then inject uniform noise tuples. This
reproduces the structure the algorithms are sensitive to -- existence
of low-J separators, brittleness of MVDs to single tuples, runtime
scaling in rows/columns/#separators. See DESIGN.md, substitutions 1-2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd


def attr_names(n: int) -> list[str]:
    """A..Z for small n, then zero-padded C00.. (lexicographic order)."""
    if n <= 26:
        return [chr(ord("A") + i) for i in range(n)]
    return [f"C{i:02d}" for i in range(n)]


# ---------------------------------------------------------------------------
# Planted acyclic schemas
# ---------------------------------------------------------------------------
#: Largest bag, and largest separator with an earlier bag, of a planted schema.
_MAX_BAG, _MAX_SEP = 4, 2


def random_tree_schema(
    cols: Sequence[str], rng: np.random.Generator
) -> list[tuple[frozenset, frozenset]]:
    """A random acyclic schema over ``cols``.

    Returns a BFS-ordered list of (bag, separator-with-previous-bags);
    the first bag has an empty separator. Each later bag borrows 1..
    ``_MAX_SEP`` attributes from one earlier bag and adds fresh ones, so
    the running-intersection property holds by construction.
    """
    cols = list(cols)
    k0 = min(len(cols), int(rng.integers(2, _MAX_BAG + 1)))
    bags: list[tuple[frozenset, frozenset]] = [(frozenset(cols[:k0]), frozenset())]
    used = k0
    while used < len(cols):
        parent = bags[int(rng.integers(0, len(bags)))][0]
        n_sep = min(len(parent), int(rng.integers(1, _MAX_SEP + 1)))
        sep = frozenset(rng.choice(sorted(parent), n_sep, replace=False).tolist())
        n_new = min(len(cols) - used, int(rng.integers(1, _MAX_BAG)))
        fresh = frozenset(cols[used : used + n_new])
        used += n_new
        bags.append((sep | fresh, sep))
    return bags


def planted_relation(
    n_cols: int,
    target_rows: int,
    *,
    seed: int = 0,
    noise: float = 0.02,
) -> pd.DataFrame:
    """A relation with a planted acyclic schema plus noise tuples.

    Exact part: the full acyclic join of bag relations built pairwise
    consistently along the tree (every separator value in a child comes
    from its parent's projection and vice versa), which makes the join
    globally consistent -- ``J(planted schema) = 0`` on the noise-free
    relation. ``noise`` is the fraction of uniform random tuples added.
    """
    rng = np.random.default_rng(seed)
    cols = attr_names(n_cols)
    # Larger relations need larger attribute domains (as real data has)
    # or the planted join cannot reach the row target.
    hi = int(np.clip(3 + target_rows ** 0.25, 7, 40))
    domains = {c: int(rng.integers(2, hi)) for c in cols}
    schema = random_tree_schema(cols, rng)

    # Root bag: distinct tuples; children then branch adaptively so the
    # final join lands near target_rows.
    n_children = len(schema) - 1
    root_bag = sorted(schema[0][0])
    root_space = int(np.prod([domains[c] for c in root_bag]))
    k0 = int(np.clip(target_rows, 1, root_space))
    idx = rng.choice(root_space, size=k0, replace=False)
    root = pd.DataFrame(
        {
            c: (idx // int(np.prod([domains[d] for d in root_bag[i + 1 :]])))
            % domains[c]
            for i, c in enumerate(root_bag)
        }
    )
    r = root.drop_duplicates().reset_index(drop=True)

    for t, (bag, sep) in enumerate(schema[1:]):
        fresh = sorted(bag - sep)
        sep_cols = sorted(sep)
        sep_vals = r[sep_cols].drop_duplicates().reset_index(drop=True)
        # Mean branching factor that would reach target_rows by the last
        # bag, re-estimated after every join (self-correcting).
        need = max(1.0, (target_rows / max(1, len(r))) ** (1.0 / (n_children - t)))
        fresh_space = int(np.prod([domains[c] for c in fresh]))
        branches = 1 + rng.poisson(max(0.25, need - 1.0), len(sep_vals))
        branches = np.minimum(branches, fresh_space)
        child_rel = sep_vals.loc[sep_vals.index.repeat(branches)].reset_index(
            drop=True
        )
        for c in fresh:
            child_rel[c] = rng.integers(0, domains[c], len(child_rel))
        # Duplicate (sep, fresh) rows just collapse a branch of 2 to 1.
        child_rel = child_rel.drop_duplicates()
        r = r.merge(child_rel, on=sep_cols)
        if len(r) > 4 * target_rows:  # keep the join from exploding
            break

    # Any columns never reached (early break) get i.i.d. values: still a
    # valid relation, just without planted structure on those columns.
    for c in cols:
        if c not in r.columns:
            r[c] = rng.integers(0, domains[c], len(r))
    r = r[cols].drop_duplicates().reset_index(drop=True)

    n_noise = int(noise * len(r))
    if n_noise:
        noise_rows = pd.DataFrame(
            {c: rng.integers(0, domains[c], n_noise) for c in cols}
        )
        r = (
            pd.concat([r, noise_rows], ignore_index=True)
            .drop_duplicates()
            .reset_index(drop=True)
        )
    return r


# ---------------------------------------------------------------------------
# Nursery analog (Sec. 8.1)
# ---------------------------------------------------------------------------
NURSERY_DOMAINS = (3, 5, 4, 4, 3, 2, 3, 3)  # inputs A..H; class I has 5 values


def nursery(*, seed: int = 0, noise: float = 0.02) -> pd.DataFrame:
    """Nursery-like training data: the full product of 8 categorical
    inputs (12 960 rows, like the real UCI Nursery) plus a 5-level class
    attribute I computed by a hierarchical rule dominated by a few
    attributes, with ``noise`` fraction of random class flips.

    The full-product inputs make every input-only MVD exact while the
    class attribute ties all columns together, reproducing the paper's
    "no exact decomposition, good approximate ones" behaviour.
    """
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*[np.arange(d) for d in NURSERY_DOMAINS], indexing="ij")
    pdf = pd.DataFrame(
        {chr(ord("A") + i): g.ravel() for i, g in enumerate(grids)}
    )
    score = 2 * pdf["E"] + pdf["G"] + (pdf["A"] == 2).astype(int)
    cls = np.where(pdf["H"] == 0, 0, 1 + np.minimum(3, score // 2))
    flip = rng.random(len(pdf)) < noise
    cls = np.where(flip, rng.integers(0, 5, len(pdf)), cls)
    pdf["I"] = cls
    return pdf


# ---------------------------------------------------------------------------
# Table 2 registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DatasetSpec:
    """One Table-2 dataset: paper-reported facts + generator parameters."""

    name: str
    n_cols: int
    paper_rows: int
    paper_runtime_s: float | str  # "TL" = 5 h time limit in the paper
    paper_full_mvds: int | str  # "NA" when the paper timed out with none
    seed: int


TABLE2: tuple[DatasetSpec, ...] = tuple(
    DatasetSpec(name, cols, rows, rt, mvds, seed)
    for seed, (name, cols, rows, rt, mvds) in enumerate(
        [
            ("ditag_feature", 13, 3_960_124, "TL", "NA"),
            ("four_square", 15, 973_516, 17017, 105),
            ("image", 12, 777_676, 3747, 151),
            ("fd_reduced_30", 30, 250_000, 8024, 21),
            ("fd_reduced_15", 15, 250_000, 1006, 21),
            ("census", 42, 199_524, "TL", "NA"),
            ("sg_bioentry", 7, 184_292, 101, 3),
            ("atom_sites", 26, 160_000, "TL", 242),
            ("classification", 12, 70_859, 1327, 27),
            ("adult", 15, 32_561, 1083, 58),
            ("entity_source", 33, 26_139, 14155, 153),
            ("reflns", 27, 24_769, "TL", 543),
            ("letter", 17, 20_000, 605, 44),
            ("school_results", 27, 14_384, 7202, 2394),
            ("voter_state", 45, 10_000, "TL", 262),
            ("abalone", 9, 4_177, 602, 36),
            ("breast_cancer", 11, 699, 5, 30),
            ("hepatitis", 20, 155, 479, 2953),
            ("echocardiogram", 13, 132, 6, 104),
            ("bridges", 13, 108, 3.8, 60),
        ]
    )
)

_BY_NAME = {s.name: s for s in TABLE2}


def spec(name: str) -> DatasetSpec:
    return _BY_NAME[name]


def load(name: str, *, rows_cap: int = 2_000, noise: float = 0.02) -> pd.DataFrame:
    """Generate the synthetic analog of a Table-2 dataset.

    Row counts are ``min(paper_rows, rows_cap)`` -- the scale-down
    substitution documented in DESIGN.md.
    """
    s = _BY_NAME[name]
    return planted_relation(
        s.n_cols,
        min(s.paper_rows, rows_cap),
        seed=s.seed,
        noise=noise,
    )


def take_cols(pdf: pd.DataFrame, frac: float) -> pd.DataFrame:
    """First ``frac`` of the columns (the paper's column-scalability cut)."""
    k = max(2, int(round(frac * len(pdf.columns))))
    return pdf[list(pdf.columns[:k])]


def sample_rows(pdf: pd.DataFrame, frac: float) -> pd.DataFrame:
    """A ``frac`` row sample (the paper's row-scalability cut), seeded."""
    n = max(1, int(round(frac * len(pdf))))
    return pdf.sample(n=n, random_state=1).reset_index(drop=True)
