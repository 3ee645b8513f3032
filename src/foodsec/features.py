"""Per-user features from the call and top-up columns.

Three measures per user: a home tower (the tower with the most night-time
originating calls, 18:00-08:00 local by default), top-up statistics over the
observation period (sum, mean, min, max, count, exact), and social
diversity (normalized Shannon entropy of how the user's call volume spreads
over their contacts).

Everything here is order-independent: processing the same records in any
order, or in any partitioning merged afterwards, yields identical output.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Mapping

import numpy as np

from .ingest import (
    CallColumns,
    TopUpColumns,
    money_decimals,
    money_texts,
    parse_column,
    parse_money,
    read_table,
    write_table,
)

log = logging.getLogger(__name__)

USER_FEATURE_HEADER = ["user_id", "home_sector", "topup_sum", "topup_mean", "topup_min",
                       "topup_max", "topup_count", "social_diversity"]


def _pair_counts(pairs: list[tuple[np.ndarray, np.ndarray]],
                 width: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys ``first * width + second`` over the ``(first,
    second)`` column pairs, sorted, and the count of each: ``np.unique`` with
    ``return_counts``, with the one int64 key array sorted in place."""
    keys = np.empty(sum(len(first) for first, _ in pairs), dtype=np.int64)
    at = 0
    for first, second in pairs:
        part = keys[at:at + len(first)]
        np.multiply(first, width, out=part, dtype=np.int64)
        part += second
        at += len(first)
    keys.sort()
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) if len(keys) else keys
    return keys[starts], np.diff(np.r_[starts, len(keys)])


def _modal_rank(owners: np.ndarray, ranks: np.ndarray, n_owners: int) -> np.ndarray:
    """Per owner, the most frequent rank (the smallest among equals); -1 for
    owners without rows."""
    best = np.full(n_owners, -1, dtype=np.int64)
    if not len(owners):
        return best
    width = int(ranks.max()) + 1
    keys, counts = _pair_counts([(owners, ranks)], width)
    owner, rank = np.divmod(keys, width)
    # keys run by owner, then rank: per owner, the first pair at its top count
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    top = np.repeat(np.maximum.reduceat(counts, starts), np.diff(np.r_[starts, len(owner)]))
    at_top = np.flatnonzero(counts == top)
    first = at_top[np.r_[True, owner[at_top][1:] != owner[at_top][:-1]]]
    best[owner[first]] = rank[first]
    return best


def home_towers(calls: CallColumns, home_hours: str = "night") -> np.ndarray:
    """Home tower code per user code; -1 for users who never call.

    The tower with the most originating calls in the night window wins; a
    user with zero night calls, or ``home_hours="all"``, takes the
    all-hours maximum. Ties break to the lexicographically smallest
    tower_id, so the result never depends on input order.
    """
    by_id = sorted(range(len(calls.towers)), key=calls.towers.__getitem__)
    rank = np.empty(len(by_id), dtype=np.int32)
    rank[by_id] = np.arange(len(by_id))
    ranks = rank[calls.tower]
    n_users = len(calls.users)
    home = _modal_rank(calls.caller, ranks, n_users)
    if home_hours == "night":
        night = _modal_rank(calls.caller[calls.night], ranks[calls.night], n_users)
        home = np.where(night >= 0, night, home)
    # rank -1 (no calls) picks the trailing -1
    return np.asarray(by_id + [-1], dtype=np.int64)[home]


def contact_volumes(calls: CallColumns, direction: str = "both") -> tuple[np.ndarray, np.ndarray]:
    """Call volume per (user, contact) pair, grouped by user.

    Returns ``(bounds, volumes)``, both int64: user code ``u``'s volumes are
    ``volumes[bounds[u]:bounds[u + 1]]``. ``direction="both"`` counts a call
    for caller and callee, ``"out"`` for the caller only.
    """
    pairs = [(calls.caller, calls.callee)]
    if direction == "both":
        pairs.append((calls.callee, calls.caller))
    n = len(calls.users)
    keys, counts = _pair_counts(pairs, n)
    return np.searchsorted(keys // n, np.arange(n + 1)), counts


def topup_stats(topups: TopUpColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sum, min, max and count of each user code's top-up amounts.

    The money columns keep the amounts' element type. Each reduction starts
    from the user's first amount and runs in file order, so a ``Decimal`` sum
    keeps the exponents that order gives it, and among equal amounts the
    first in file order is kept as min or max (``np.minimum`` returns its
    first argument on a tie).
    """
    _, first = np.unique(topups.user, return_index=True)
    later = np.ones(len(topups), dtype=bool)
    later[first] = False
    codes, amounts = topups.user[later], topups.amount[later]
    stats = []
    for reduce in (np.add, np.minimum, np.maximum):
        column = topups.amount[first]
        reduce.at(column, codes, amounts)
        stats.append(column)
    return (*stats, np.bincount(topups.user, minlength=len(topups.users)))


def social_diversity(bounds: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Shannon entropy of each user's contact volumes, normalized to [0, 1].

    User ``u``'s contacts have the int64 volumes ``volumes[bounds[u]:bounds[u + 1]]``,
    each >= 1 (see :func:`contact_volumes`). With k contacts and volume shares
    p_j, this is -sum(p_j * log2 p_j) / log2 k: 0 for one contact (the
    normalizer is 0 there), NaN (undefined) for none. ``math.log2`` is used
    since numpy's SIMD ``log2`` need not round as libm does; each user's
    terms go through one ``math.fsum``, which rounds once, so the order of
    the contacts does not matter.
    """
    k = np.diff(bounds)
    totals = np.diff(np.r_[0, np.cumsum(volumes)][bounds])
    # int64 over int64 rounds as Python's int / int below 2**53; the
    # memoryview makes one Python float at a time, not one per term at once
    shares = memoryview(volumes / np.repeat(totals, k))
    terms = map(mul, shares, map(math.log2, shares))
    entropy = np.array([math.fsum(islice(terms, n)) / math.log2(max(n, 2)) for n in k.tolist()])
    return np.where(k > 1, np.clip(-entropy, 0.0, 1.0), np.where(k == 1, 0.0, np.nan))


@dataclass(frozen=True)
class UserFeatures:
    """One entry per user, sorted by ``user_id``.

    ``home`` indexes the sorted ``sectors``, each of which is some user's
    home. Sum, min and max are money columns (see
    :class:`foodsec.ingest.TopUpColumns`); the mean, the sum divided by the
    count at context precision, is a ``Decimal`` column, or a money column
    when read back from a file. An undefined diversity is NaN.
    """

    user_id: list[str]
    sectors: list[str]
    home: np.ndarray  # int64 codes into sectors
    topup_sum: np.ndarray
    topup_mean: np.ndarray
    topup_min: np.ndarray
    topup_max: np.ndarray
    topup_count: np.ndarray  # int64
    social_diversity: np.ndarray  # float64

    @classmethod
    def from_columns(cls, user_id, home_sector, topup_sum, topup_mean, topup_min, topup_max,
                     topup_count, social_diversity) -> "UserFeatures":
        """The columns in ``user_features.csv`` order, each home given by its
        sector ID."""
        sectors = sorted(set(home_sector))
        code = {sector: i for i, sector in enumerate(sectors)}
        return cls(
            user_id=list(user_id),
            sectors=sectors,
            home=np.fromiter(map(code.__getitem__, home_sector), np.int64, len(user_id)),
            topup_sum=topup_sum,
            topup_mean=topup_mean,
            topup_min=topup_min,
            topup_max=topup_max,
            topup_count=np.asarray(topup_count, dtype=np.int64),
            social_diversity=np.asarray(social_diversity, dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.user_id)

    def home_sectors(self) -> dict[str, str]:
        """Each user's home sector ID."""
        return dict(zip(self.user_id, map(self.sectors.__getitem__, self.home.tolist())))


def user_features(
    calls: CallColumns,
    topups: TopUpColumns,
    tower_map: Mapping[str, str],
    *,
    home_hours: str = "night",
    diversity_direction: str = "both",
) -> tuple[UserFeatures, Counter]:
    """The features of every user with calls and top-ups.

    ``home_hours`` goes to :func:`home_towers`, ``diversity_direction`` to
    :func:`contact_volumes`. Exclusion counts: ``no_topups`` (calls only),
    ``no_calls`` (top-ups only), ``unmapped_home_tower`` (home tower absent
    from the map).
    """
    if home_hours not in ("night", "all") or diversity_direction not in ("both", "out"):
        raise ValueError(f"home_hours must be 'night' or 'all' ({home_hours!r}), "
                         f"diversity_direction 'both' or 'out' ({diversity_direction!r})")
    home = home_towers(calls, home_hours)
    callers = np.flatnonzero(home >= 0)
    # object arrays sort as sorted() does, and keep an ID's trailing NULs,
    # which a fixed-width str array drops
    users, at_call, at_topup = np.intersect1d(
        np.array(calls.users, dtype=object)[callers], np.array(topups.users, dtype=object),
        assume_unique=True, return_indices=True)
    codes = callers[at_call]
    sectors = np.array([tower_map.get(t) for t in calls.towers], dtype=object)[home[codes]]
    mapped = np.not_equal(sectors, None)
    exclusions = +Counter(no_calls=len(topups.users) - len(users),
                          no_topups=len(callers) - len(users),
                          unmapped_home_tower=len(users) - np.count_nonzero(mapped))
    diversity = social_diversity(*contact_volumes(calls, diversity_direction))
    total, lo, hi, count = (column[at_topup[mapped]] for column in topup_stats(topups))
    mean = money_decimals(total) / count  # one Decimal division per user
    return UserFeatures.from_columns(users[mapped].tolist(), sectors[mapped].tolist(), total, mean,
                                     lo, hi, count, diversity[codes[mapped]]), exclusions


def write_user_features(features: UserFeatures, path) -> None:
    homes = map(features.sectors.__getitem__, features.home.tolist())
    diversity = ("" if d != d else repr(d) for d in features.social_diversity.tolist())
    write_table(path, USER_FEATURE_HEADER, zip(
        features.user_id, homes, money_texts(features.topup_sum),
        money_texts(features.topup_mean), money_texts(features.topup_min),
        money_texts(features.topup_max), map(str, features.topup_count.tolist()), diversity,
    ))


def read_user_features(path) -> UserFeatures:
    """``user_features.csv`` as written, each money column laid out as a
    top-up file's amounts (:func:`foodsec.ingest.parse_money`)."""
    what = "user_features"
    _, lines, columns = read_table(path, what, USER_FEATURE_HEADER, ids=2, unique=1)
    texts = dict(zip(USER_FEATURE_HEADER, columns))
    del columns  # each column's texts go once its values are made, which lowers the peak

    def parse(name, *how, **options):
        return parse_column(what, lines, texts.pop(name), *how, **options)

    diversity = parse("social_diversity", optional=True)  # None reads as NaN
    money = [parse_money(what, lines, texts.pop(name)) for name in USER_FEATURE_HEADER[2:6]]
    return UserFeatures.from_columns(texts.pop("user_id"), texts.pop("home_sector"), *money,
                                     parse("topup_count", int), diversity)
