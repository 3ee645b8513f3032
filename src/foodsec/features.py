"""Per-user features from the call and top-up columns.

Three measures per user: a home tower (the tower with the most night-time
originating calls, 18:00-08:00 local by default), top-up statistics over the
observation period (sum, mean, min, max, count as exact decimals), and social
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
from decimal import Decimal
from typing import Iterable, Mapping

import numpy as np

from .ingest import (
    CallColumns,
    TopUpColumns,
    parse_column,
    TableReader,
    write_table,
)

log = logging.getLogger(__name__)

USER_FEATURE_HEADER = ["user_id", "home_sector", "topup_sum", "topup_mean", "topup_min",
                       "topup_max", "topup_count", "social_diversity"]


@dataclass(frozen=True)
class UserFeatureVector:
    user_id: str
    home_sector: str
    topup_sum: Decimal
    topup_mean: Decimal
    topup_min: Decimal
    topup_max: Decimal
    topup_count: int
    social_diversity: float | None


def _modal_rank(owners: np.ndarray, ranks: np.ndarray, n_owners: int) -> np.ndarray:
    """Per owner, the most frequent rank (the smallest among equals); -1 for
    owners without rows."""
    best = np.full(n_owners, -1, dtype=np.int64)
    if not len(owners):
        return best
    width = int(ranks.max()) + 1
    keys, counts = np.unique(owners.astype(np.int64) * width + ranks, return_counts=True)
    owner, rank = np.divmod(keys, width)
    order = np.lexsort((rank, -counts, owner))
    first = order[np.r_[True, owner[order][1:] != owner[order][:-1]]]
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
    rank = np.empty(len(by_id), dtype=np.int64)
    rank[by_id] = np.arange(len(by_id))
    ranks = rank[calls.tower]
    n_users = len(calls.users)
    home = _modal_rank(calls.caller, ranks, n_users)
    if home_hours == "night":
        night = _modal_rank(calls.caller[calls.night], ranks[calls.night], n_users)
        home = np.where(night >= 0, night, home)
    # rank -1 (no calls) picks the trailing -1
    return np.asarray(by_id + [-1], dtype=np.int64)[home]


def contact_volumes(calls: CallColumns, direction: str = "both") -> tuple[np.ndarray, list[int]]:
    """Call volume per (user, contact) pair, grouped by user.

    Returns ``(bounds, volumes)``: user code ``u``'s volumes are
    ``volumes[bounds[u]:bounds[u + 1]]``. ``direction="both"`` counts a call
    for caller and callee, ``"out"`` for the caller only.
    """
    if direction == "both":
        owner = np.stack([calls.caller, calls.callee], axis=1).ravel()
        contact = np.stack([calls.callee, calls.caller], axis=1).ravel()
    else:
        owner, contact = calls.caller, calls.callee
    n = len(calls.users)
    keys, counts = np.unique(owner.astype(np.int64) * n + contact, return_counts=True)
    return np.searchsorted(keys // n, np.arange(n + 1)), counts.tolist()


def topup_stats(topups: TopUpColumns) -> dict[str, tuple[Decimal, Decimal, Decimal, int]]:
    """(sum, min, max, count) of each user's top-up amounts.

    The sum is exact decimal arithmetic; among equal amounts the first in
    file order is kept as min or max.
    """
    sums: dict[int, Decimal] = {}
    mins: dict[int, Decimal] = {}
    maxs: dict[int, Decimal] = {}
    for code, amount in zip(topups.user.tolist(), topups.amount):
        if code in sums:
            sums[code] += amount
            if amount < mins[code]:
                mins[code] = amount
            if amount > maxs[code]:
                maxs[code] = amount
        else:
            sums[code] = mins[code] = maxs[code] = amount
    counts = np.bincount(topups.user, minlength=len(topups.users)).tolist()
    return {topups.users[c]: (sums[c], mins[c], maxs[c], counts[c]) for c in sums}


def social_diversity(volumes: Mapping[str, int] | Iterable[int]) -> float:
    """Shannon entropy of the contact-volume distribution, normalized to [0, 1].

    ``volumes`` maps each contact to its call volume, or lists the volumes.
    With k contacts and volume shares p_j, this is -sum(p_j * log p_j) / log k.
    A single contact has no diversity and is defined as 0 (the normalizer is
    0 there). The log base cancels; base 2 is used internally. The terms
    are summed with ``math.fsum``, which rounds once, so the result does not
    depend on the order of the contacts.
    """
    values = list(volumes.values() if isinstance(volumes, Mapping) else volumes)
    k = len(values)
    if k == 0:
        raise ValueError("no contacts")
    if min(values) <= 0:
        raise ValueError("contact volumes must be >= 1")
    if k == 1:
        return 0.0
    total = sum(values)
    entropy = -math.fsum(p * math.log2(p) for p in (v / total for v in values))
    d = entropy / math.log2(k)
    return min(max(d, 0.0), 1.0)


def user_features(
    calls: CallColumns,
    topups: TopUpColumns,
    tower_map: Mapping[str, str],
    *,
    home_hours: str = "night",
    diversity_direction: str = "both",
) -> tuple[list[UserFeatureVector], Counter]:
    """One vector per user with calls and top-ups, sorted by user_id.

    ``home_hours`` goes to :func:`home_towers`, ``diversity_direction`` to
    :func:`contact_volumes`. Exclusion counts: ``no_topups`` (calls only),
    ``no_calls`` (top-ups only), ``unmapped_home_tower`` (home tower absent
    from the map).
    """
    if home_hours not in ("night", "all") or diversity_direction not in ("both", "out"):
        raise ValueError(f"home_hours must be 'night' or 'all' ({home_hours!r}), "
                         f"diversity_direction 'both' or 'out' ({diversity_direction!r})")
    home = home_towers(calls, home_hours).tolist()
    bounds, volumes = contact_volumes(calls, diversity_direction)
    bounds = bounds.tolist()
    stats = topup_stats(topups)
    callers = {calls.users[c]: c for c, tower in enumerate(home) if tower >= 0}
    exclusions: Counter = Counter()
    out: list[UserFeatureVector] = []
    for user in sorted(callers.keys() | stats.keys()):
        code = callers.get(user)
        if code is None:
            exclusions["no_calls"] += 1
            continue
        if user not in stats:
            exclusions["no_topups"] += 1
            continue
        sector = tower_map.get(calls.towers[home[code]])
        if sector is None:
            exclusions["unmapped_home_tower"] += 1
            continue
        total, lo, hi, count = stats[user]
        out.append(
            UserFeatureVector(
                user_id=user,
                home_sector=sector,
                topup_sum=total,
                topup_mean=total / count,
                topup_min=lo,
                topup_max=hi,
                topup_count=count,
                social_diversity=social_diversity(volumes[bounds[code] : bounds[code + 1]]),
            )
        )
    return out, exclusions


def write_user_features(features: Iterable[UserFeatureVector], path) -> None:
    write_table(path, USER_FEATURE_HEADER, (
        (v.user_id, v.home_sector, str(v.topup_sum), str(v.topup_mean), str(v.topup_min),
         str(v.topup_max), str(v.topup_count),
         "" if v.social_diversity is None else repr(v.social_diversity))
        for v in features
    ))


def read_user_features(path) -> list[UserFeatureVector]:
    what = "user_features"
    table = TableReader(path, what, USER_FEATURE_HEADER)
    lines, (users, homes, sums, means, mins, maxs, counts, diversity) = table.columns()

    def money(cells):
        return parse_column(what, lines, cells, Decimal)

    return list(map(
        UserFeatureVector, users, homes, money(sums), money(means), money(mins), money(maxs),
        parse_column(what, lines, counts, int),
        parse_column(what, lines, diversity, optional=True),
    ))
