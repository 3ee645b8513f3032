"""Seeded synthetic dataset generator with planted sector-level relationships.

Generates the five pipeline input families (CDR, top-ups, tower map, survey
with metadata, poverty table) plus ``truth.csv``, the ground-truth file the
``verify`` step checks recovered results against. Generation is a pure
function of the config: identical configs yield byte-identical files.

The planted structure hangs off one latent wealth value per sector:

* each user's total top-up spend is linear in sector wealth plus user noise,
* each household's food expenditure follows a linear or quadratic link,
* food-item frequencies (integers 0..7) are binomial draws whose success
  probability is a logistic curve in wealth, one slope per item, grouped
  into high / middle / low / negative correlation bands,
* poverty headcount and intensity decrease with wealth.

When a target correlation ``planted_r`` is set, sector-level noise on both
sides is calibrated so the population correlation between the sector mean
of user top-up sums and mean food expenditure equals it exactly, accounting
for the user- and household-level noise that survives averaging. When the
expense link is quadratic, household noise is instead calibrated so a
degree-2 fit attains ``planted_fit_r``.

Money is generated in integer cents so every written amount is an exact
two-decimal value and user sums reproduce the planted linear predictor to
within half a cent.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from datetime import date
from itertools import groupby, islice
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import ConfigError, parse_kv_file
from .ingest import (
    CDR_HEADER,
    POVERTY_HEADER,
    SURVEY_ID_COLUMNS,
    SURVEY_META_HEADER,
    TOPUP_HEADER,
    TOWER_HEADER,
    FormatError,
    parse_number,
    read_table,
    write_table,
)
from .workers import forked, worker_count

TRUTH_HEADER = ["kind", "key", "value", "extra"]

PLANTED_PAIR = ("topup_sum.mean", "food_expenditure")

SECONDS_PER_DAY = 86400
NIGHT_START_SEC = 18 * 3600
NIGHT_SPAN_SEC = 14 * 3600  # 18:00 -> 08:00
DAY_START_SEC = 8 * 3600
DAY_SPAN_SEC = 10 * 3600

#: below this many users in all, ``generate`` makes its sectors in-process.
#: The measured crossover, the smallest size at which no probe ran more
#: than 2 % slower forked: on a 2-vCPU host, in pairs of 10 from a bare
#: parent and from one holding 400 MiB, two workers took 0.93-1.37 of the
#: in-process time at 100-156 users, 0.84-1.25 at 200, 0.77-1.02 at 300
#: and 0.73-0.85 at 600 (``tests/bench_synth.py`` times these sizes).
FORK_MIN_USERS = 300


@dataclass(frozen=True)
class FoodItem:
    name: str
    group: str  # "high" | "middle" | "low" | "negative" | "fcs"
    alpha: float  # logistic intercept
    beta: float  # logistic slope on sector wealth


# Nine columns named for the standard FCS food groups (so household scores
# are computable with the default weight table) plus 21 planted items in
# four correlation bands: five high, five middle, ten near-zero, one
# clearly negative.
DEFAULT_FOOD_ITEMS: tuple[FoodItem, ...] = (
    FoodItem("staples", "fcs", 0.3, 0.9),
    FoodItem("pulses", "fcs", 0.5, 0.15),
    FoodItem("vegetables", "fcs", 0.4, 0.7),
    FoodItem("fruit", "fcs", -0.4, 0.55),
    FoodItem("meat_fish", "fcs", -0.9, 1.2),
    FoodItem("milk", "fcs", -0.7, 0.8),
    FoodItem("sugar", "fcs", -0.3, 1.0),
    FoodItem("oil", "fcs", 0.1, 0.45),
    FoodItem("condiments", "fcs", 0.9, 0.05),
    FoodItem("item_h1", "high", -0.5, 1.75),
    FoodItem("item_h2", "high", -0.3, 1.65),
    FoodItem("item_h3", "high", -0.6, 1.55),
    FoodItem("item_h4", "high", -0.2, 1.45),
    FoodItem("item_h5", "high", -0.4, 1.4),
    FoodItem("item_m1", "middle", -0.1, 0.42),
    FoodItem("item_m2", "middle", 0.1, 0.4),
    FoodItem("item_m3", "middle", -0.2, 0.38),
    FoodItem("item_m4", "middle", 0.0, 0.35),
    FoodItem("item_m5", "middle", 0.2, 0.32),
    FoodItem("item_l1", "low", 0.3, 0.05),
    FoodItem("item_l2", "low", -0.1, 0.04),
    FoodItem("item_l3", "low", 0.5, 0.03),
    FoodItem("item_l4", "low", 0.0, 0.02),
    FoodItem("item_l5", "low", 0.2, 0.01),
    FoodItem("item_l6", "low", -0.3, 0.0),
    FoodItem("item_l7", "low", 0.4, -0.01),
    FoodItem("item_l8", "low", 0.1, -0.02),
    FoodItem("item_l9", "low", -0.2, -0.03),
    FoodItem("item_l10", "low", 0.6, -0.04),
    FoodItem("item_n1", "negative", 0.3, -0.85),
)


#: counts, means of counts, standard deviations and tolerances
_NON_NEGATIVE = ("night_calls_min", "night_calls_extra_mean", "day_calls_mean",
                 "topup_user_sd", "expense_household_sd", "sector_noise_mobile",
                 "sector_noise_survey", "food_sector_noise", "food_household_noise",
                 "pair_tolerance", "fit_tolerance")


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 1
    n_sectors: int = 40
    towers_per_sector: int = 3
    users_per_sector: int = 120
    households_per_sector: int = 30
    period_start: date = date(2012, 1, 1)
    period_days: int = 182

    # calls
    p_home: float = 0.8
    night_calls_min: int = 20
    night_calls_extra_mean: float = 6.0
    day_calls_mean: float = 6.0
    contacts_min: int = 3
    contacts_max: int = 8
    contact_skew: float = 1.2
    diversity_wealth_slope: float = 0.0

    # top-ups (currency units; generated in integer cents)
    topup_events_mean: float = 10.0
    topup_base: float = 1000.0
    topup_scale: float = 250.0
    topup_user_sd: float = 120.0

    # survey expense link
    expense_base: float = 250.0
    expense_scale: float = 25.0
    expense_household_sd: float = 40.0
    expense_link: str = "linear"  # or "quadratic"
    expense_quad_coeff: float = 0.5

    # planted targets; None disables calibration and the explicit
    # sector-level noise values below are used as-is
    planted_r: float | None = 0.8
    planted_fit_r: float = 0.89
    sector_noise_mobile: float = 0.0
    sector_noise_survey: float = 0.0

    # food items
    food_sector_noise: float = 0.5
    food_household_noise: float = 0.8
    food_slope_scale: float = 1.0

    # verify tolerances recorded into truth.csv
    pair_tolerance: float = 0.05
    fit_tolerance: float = 0.05
    verify_p_max: float = 1e-6
    home_accuracy_min: float = 0.95
    negative_r_max: float = -0.2

    food_items: tuple[FoodItem, ...] = DEFAULT_FOOD_ITEMS

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        return cls.from_mapping(parse_kv_file(path))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str]) -> "SynthConfig":
        known = {f.name: f for f in fields(cls) if f.name != "food_items"}
        values = {}
        for key, text in mapping.items():
            if key not in known:
                raise ConfigError(f"unknown synth config key {key!r}")
            if key == "planted_r" and text.lower() in ("none", ""):
                values[key] = None
            elif key == "expense_link":
                values[key] = text
            else:
                values[key] = _setting(key, text, type(getattr(cls, key)))
        return cls(**values)

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.expense_link not in ("linear", "quadratic"):
            raise ConfigError("expense_link must be 'linear' or 'quadratic'")
        if self.n_sectors < 1 or self.users_per_sector < 1 or self.households_per_sector < 1:
            raise ConfigError("sector, user, and household counts must all be >= 1")
        if self.towers_per_sector < 1:
            raise ConfigError("towers_per_sector must be >= 1")
        if self.period_days < 1:
            raise ConfigError("period_days must be >= 1")
        if not 0.0 <= self.p_home <= 1.0:
            raise ConfigError("p_home must be in [0, 1]")
        if self.contacts_min < 1 or self.contacts_max < self.contacts_min:
            raise ConfigError("need 1 <= contacts_min <= contacts_max")
        if self.contacts_max >= self.users_per_sector:
            raise ConfigError("contacts_max must be below users_per_sector")
        for name in _NON_NEGATIVE:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("contact_skew", "topup_scale", "expense_scale"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if self.topup_events_mean < 1:
            raise ConfigError("topup_events_mean must be >= 1: every user tops up once")
        if not 0.0 < self.verify_p_max <= 1.0:
            raise ConfigError("verify_p_max must lie in (0, 1]")
        if not 0.0 <= self.home_accuracy_min <= 1.0:
            raise ConfigError("home_accuracy_min must lie in [0, 1]")
        if not -1.0 <= self.negative_r_max <= 1.0:
            raise ConfigError("negative_r_max must lie in [-1, 1]")
        if self.planted_r is not None and not -1.0 < self.planted_r < 1.0:
            raise ConfigError("planted_r must lie in (-1, 1)")
        if not 0.0 < self.planted_fit_r < 1.0:
            raise ConfigError("planted_fit_r must lie in (0, 1)")
        self.derived_noise()

    def derived_noise(self) -> tuple[float, float, float]:
        """(sector_noise_mobile, sector_noise_survey, expense_household_sd)
        after calibration against the planted targets.

        Linear link with ``planted_r`` r*: both sector means equal latent
        wealth plus independent noise, so r* = 1/sqrt((1+a)(1+b)) with a and
        b the per-side excess variance ratios. Splitting evenly gives a
        budget of 1/r* - 1 per side, from which the share already produced
        by averaged user/household noise is deducted.

        Quadratic link with ``planted_fit_r``: sector noise is zeroed and
        household noise is sized so the residual variance around the
        quadratic curve gives the target fit correlation.
        """
        if self.expense_link == "quadratic":
            q = self.expense_quad_coeff
            signal_var = 1.0 + 2.0 * q * q  # Var(w + q w^2), w standard normal
            resid_var = signal_var * (1.0 / self.planted_fit_r**2 - 1.0)
            hh_sd = self.expense_scale * math.sqrt(self.households_per_sector * resid_var)
            return 0.0, 0.0, hh_sd
        if self.planted_r is None:
            return self.sector_noise_mobile, self.sector_noise_survey, self.expense_household_sd
        r = abs(self.planted_r)
        budget = 1.0 / r - 1.0
        user_term = (self.topup_user_sd / self.topup_scale) ** 2 / self.users_per_sector
        hh_term = (self.expense_household_sd / self.expense_scale) ** 2 / self.households_per_sector
        sx2 = budget - user_term
        sy2 = budget - hh_term
        if sx2 < 0 or sy2 < 0:
            raise ConfigError(
                f"planted_r={self.planted_r} infeasible: averaged user/household noise "
                "already exceeds the correlation budget; lower the noise or the target"
            )
        return math.sqrt(sx2), math.sqrt(sy2), self.expense_household_sd


def _setting(key: str, text: str, kind: type):
    """A config value as ``kind``: a date, or a number read by the rule of
    every input file (:func:`foodsec.ingest.parse_number`: finite, no
    ``_``)."""
    try:
        if kind is date:
            return date.fromisoformat(text)
        return parse_number("synth config", 0, text, kind)
    except (ValueError, FormatError):
        raise ConfigError(f"config key {key!r}: not a valid {kind.__name__}: {text!r}") from None


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


@dataclass
class _SectorLatents:
    wealth: np.ndarray
    mobile: np.ndarray  # x_s = w + sx * eta
    survey: np.ndarray  # y_s = w + sy * eta'
    food: np.ndarray  # (n_sectors, n_items) logistic-argument noise
    pov_h: np.ndarray
    pov_a: np.ndarray
    share: np.ndarray
    income: np.ndarray
    nonfood: np.ndarray


def _draw_sector_latents(cfg: SynthConfig, rng: np.random.Generator) -> _SectorLatents:
    s = cfg.n_sectors
    sx, sy, _ = cfg.derived_noise()
    wealth = rng.standard_normal(s)
    latents = _SectorLatents(
        wealth=wealth,
        mobile=wealth + sx * rng.standard_normal(s),
        survey=wealth + sy * rng.standard_normal(s),
        food=cfg.food_sector_noise * rng.standard_normal((s, len(cfg.food_items))),
        pov_h=rng.standard_normal(s),
        pov_a=rng.standard_normal(s),
        share=rng.standard_normal(s),
        income=rng.standard_normal(s),
        nonfood=rng.standard_normal(s),
    )
    return latents


def _expense_mu(cfg: SynthConfig, y: np.ndarray) -> np.ndarray:
    if cfg.expense_link == "quadratic":
        g = y + cfg.expense_quad_coeff * y * y
    else:
        g = y
    return cfg.expense_base + cfg.expense_scale * g


def _stamper(period_start: date, period_days: int):
    """A function from seconds since the start of the period to ISO-8601
    UTC stamps, looked up in tables of the period's dates and of the
    minutes and seconds of a day."""
    days = np.datetime64(period_start, "D") + np.arange(period_days)
    dates = [f"{d}T" for d in np.datetime_as_string(days, unit="D").tolist()]
    minutes = [f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60)]
    seconds = [f"{s:02d}Z" for s in range(60)]

    def stamp(offsets: np.ndarray) -> list[str]:
        minute, second = np.divmod(offsets, 60)
        day, minute = np.divmod(minute, 24 * 60)
        return [
            dates[d] + minutes[m] + seconds[s]
            for d, m, s in zip(day.tolist(), minute.tolist(), second.tolist())
        ]

    return stamp


def _weighted_draw(rng: np.random.Generator, weights: np.ndarray, size: int) -> np.ndarray:
    """``rng.choice(len(weights), size, p=weights)`` by its own steps: the
    same values, dtype and stream, without the call's checks of ``p``."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _user_rows(cfg, rng, si, sector, tower_ids, topup_mu, wealth, stamp):
    """One sector's cdr.csv rows, topup.csv rows and truth.csv user_home rows.

    The per-user loop only draws from ``rng``: the order, sizes and arguments
    of its draws fix the stream, and with it every byte written. All else is
    done once for the sector: placing and sorting each user's calls (night
    calls before day calls on a tie), splitting each user's top-up total
    into exact cents, and formatting the rows.
    """
    n_users = cfg.users_per_sector
    n_towers = cfg.n_sectors * cfg.towers_per_sector
    period_secs = cfg.period_days * SECONDS_PER_DAY
    conc = cfg.contact_skew * math.exp(cfg.diversity_wealth_slope * wealth)

    home, n_night, n_day, n_contacts, k_top, z, mult_sum = [], [], [], [], [], [], []
    picks, contact, night_p, night_away, day_tower = [], [], [], [], []
    night_day, night_sec, day_day, day_sec, mult, top_ts = [], [], [], [], [], []
    for _ in range(n_users):
        home.append(rng.integers(cfg.towers_per_sector))
        nn = cfg.night_calls_min + int(rng.poisson(cfg.night_calls_extra_mean))
        nd = int(rng.poisson(cfg.day_calls_mean))
        k = int(rng.integers(cfg.contacts_min, cfg.contacts_max + 1))
        n_night.append(nn)
        n_day.append(nd)
        n_contacts.append(k)
        picks.append(rng.choice(n_users - 1, size=k, replace=False))
        weights = rng.dirichlet(np.full(k, conc))
        contact.append(_weighted_draw(rng, weights, nn + nd))
        night_p.append(rng.random(nn))
        night_away.append(rng.integers(0, n_towers, nn))
        day_tower.append(rng.integers(0, n_towers, nd))
        night_day.append(rng.integers(0, cfg.period_days, nn))
        night_sec.append(rng.integers(0, NIGHT_SPAN_SEC, nn))
        day_day.append(rng.integers(0, cfg.period_days, nd))
        day_sec.append(rng.integers(0, DAY_SPAN_SEC, nd))
        kt = 1 + int(rng.poisson(max(cfg.topup_events_mean - 1.0, 0.0)))
        k_top.append(kt)
        z.append(rng.standard_normal())
        mult.append(0.5 + rng.random(kt))
        # numpy sums pairwise, so a segmented sum could round differently
        mult_sum.append(mult[-1].sum())
        top_ts.append(rng.integers(0, period_secs, kt))

    cat = np.concatenate
    home, n_night, n_day, n_contacts, k_top, z, mult_sum = map(
        np.array, (home, n_night, n_day, n_contacts, k_top, z, mult_sum)
    )
    users = np.array([f"u{si:04d}_{k:05d}" for k in range(n_users)])
    user = np.arange(n_users)
    home_tower = si * cfg.towers_per_sector + home

    # calls laid out user by user, each user's night calls before its day calls
    n_calls = n_night + n_day
    caller = np.repeat(user, n_calls)
    call_first = np.cumsum(n_calls) - n_calls
    night = np.arange(len(caller)) - call_first[caller] < n_night[caller]
    towers = np.empty(len(caller), np.int64)
    towers[night] = np.where(
        cat(night_p) < cfg.p_home, home_tower[caller[night]], cat(night_away)
    )
    towers[~night] = cat(day_tower)
    ts = np.empty(len(caller), np.int64)
    ts[night] = (
        cat(night_day) * SECONDS_PER_DAY + NIGHT_START_SEC + cat(night_sec)
    ) % period_secs
    ts[~night] = cat(day_day) * SECONDS_PER_DAY + DAY_START_SEC + cat(day_sec)
    # a user's contacts are the other users of the sector, skipping itself
    picks = cat(picks)
    picks += picks >= np.repeat(user, n_contacts)
    callee = picks[(np.cumsum(n_contacts) - n_contacts)[caller] + cat(contact)]
    # each user's calls in time order, ties in draw order; users stay in place
    order = np.lexsort((ts, caller))
    cdr_text = "".join([
        f"{a},{b},{t},{s}\n"
        for a, b, t, s in zip(
            users[caller].tolist(),
            users[callee[order]].tolist(),
            tower_ids[towers[order]].tolist(),
            stamp(ts[order]),
        )
    ])

    # top-ups: an exact integer-cent split of each user's total
    total = topup_mu + cfg.topup_user_sd * z
    cents = np.maximum(3 * k_top, np.round(100.0 * total).astype(np.int64))
    payer = np.repeat(user, k_top)
    parts = np.floor(
        np.repeat(cents, k_top) * (cat(mult) / np.repeat(mult_sum, k_top))
    ).astype(np.int64)
    top_first = np.cumsum(k_top) - k_top
    parts[top_first] += cents - np.add.reduceat(parts, top_first)
    top_ts = cat(top_ts)
    top_text = "".join([
        f"{u},{p // 100}.{p % 100:02d},{s}\n"
        for u, p, s in zip(
            users[payer].tolist(),
            parts.tolist(),
            stamp(top_ts[np.lexsort((top_ts, payer))]),
        )
    ])

    home_text = "".join([
        f"user_home,{u},{sector},{t}\n"
        for u, t in zip(users.tolist(), tower_ids[home_tower].tolist())
    ])
    return cdr_text, top_text, home_text


def generate(config: SynthConfig, out_dir) -> dict[str, Path]:
    """Write the full synthetic dataset into ``out_dir``; returns the paths.

    Files: cdr.csv, topup.csv, towers.csv, survey.csv, survey_meta.csv,
    poverty.csv, truth.csv. Assembly is ordered sector then user (calls
    time-sorted within a user), so output bytes depend only on the config.
    Each sector's rows are made from its own stream, in forked workers when
    the dataset is large enough, and written in sector order, so memory is
    bounded by about one sector's rows per worker.
    """
    cfg = config
    cfg.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        name: out / f"{name}.csv"
        for name in ("cdr", "topup", "towers", "survey", "survey_meta", "poverty", "truth")
    }

    master = np.random.SeedSequence(cfg.seed)
    latent_seed, *sector_seeds = master.spawn(cfg.n_sectors + 1)
    latents = _draw_sector_latents(cfg, np.random.default_rng(latent_seed))
    _, _, hh_sd = cfg.derived_noise()
    expense_mu = _expense_mu(cfg, latents.survey)
    topup_mu = cfg.topup_base + cfg.topup_scale * latents.mobile

    sector_ids = [f"s{i:04d}" for i in range(cfg.n_sectors)]
    tower_ids = np.array(
        [f"t{i:04d}_{j}" for i in range(cfg.n_sectors) for j in range(cfg.towers_per_sector)]
    )
    stamp = _stamper(cfg.period_start, cfg.period_days)

    items = [
        replace(item, beta=item.beta * cfg.food_slope_scale) for item in cfg.food_items
    ]
    alphas = np.array([it.alpha for it in items])
    betas = np.array([it.beta for it in items])

    survey_columns = (
        ["household_size", "crowding_index", "share_food_own_production"]
        + [it.name for it in items]
        + ["food_expenditure", "total_expenditure", "income_per_capita"]
    )
    survey_categories = (
        ["V1", "V1", "V2"] + ["food_group"] * len(items) + ["V3", "V3", "V3"]
    )

    def sector_rows(si: int) -> tuple[str, str, str, str]:
        """Sector ``si``'s cdr.csv, topup.csv, truth.csv user_home and
        survey.csv rows, drawn from the sector's own stream."""
        rng = np.random.default_rng(sector_seeds[si])
        sector = sector_ids[si]
        wealth = latents.wealth[si]
        cdr_text, top_text, home_text = _user_rows(
            cfg, rng, si, sector, tower_ids, topup_mu[si], wealth, stamp
        )

        # households
        n_h = cfg.households_per_sector
        size = 1 + rng.poisson(2.5 * math.exp(-0.06 * wealth), n_h)
        rooms = 1 + rng.binomial(4, float(_sigmoid(0.2 + 0.35 * wealth)), n_h)
        crowding = np.round(size / rooms, 3)
        share = np.round(
            100.0
            * _sigmoid(-0.9 * (wealth + 0.4 * latents.share[si]) - 0.7 * rng.standard_normal(n_h)),
            2,
        )
        food_latent = (
            alphas
            + betas * wealth
            + latents.food[si]
            + cfg.food_household_noise * rng.standard_normal((n_h, len(items)))
        )
        freqs = rng.binomial(7, _sigmoid(food_latent))
        expense_cents = np.maximum(
            1, np.round(100.0 * (expense_mu[si] + hh_sd * rng.standard_normal(n_h)))
        ).astype(np.int64)
        nonfood = 90.0 + 14.0 * (wealth + 0.3 * latents.nonfood[si]) + 20.0 * rng.standard_normal(n_h)
        nonfood_cents = np.maximum(1, np.round(100.0 * nonfood)).astype(np.int64)
        total_cents = expense_cents + nonfood_cents
        income = np.round(
            30.0
            * np.exp(0.45 * (wealth + 0.4 * latents.income[si]) + 0.35 * rng.standard_normal(n_h)),
            2,
        )
        survey_text = "".join([
            f"h{si:04d}_{h:04d},{sector},{n},{crowd},{own},{','.join(map(str, freq))},"
            f"{food // 100}.{food % 100:02d},{total // 100}.{total % 100:02d},{inc}\n"
            for h, (n, crowd, own, freq, food, total, inc) in enumerate(zip(
                size.tolist(), crowding.tolist(), share.tolist(), freqs.tolist(),
                expense_cents.tolist(), total_cents.tolist(), income.tolist(),
            ))
        ])
        return cdr_text, top_text, home_text, survey_text

    user_home_rows: list[str] = []
    large = cfg.n_sectors * cfg.users_per_sector >= FORK_MIN_USERS
    workers = worker_count(cfg.n_sectors) if large else 1
    with open(paths["cdr"], "w", encoding="utf-8", newline="\n") as f_cdr, open(
        paths["topup"], "w", encoding="utf-8", newline="\n"
    ) as f_top, open(paths["survey"], "w", encoding="utf-8", newline="\n") as f_survey, (
        forked(sector_rows, cfg.n_sectors, workers) if workers > 1
        else nullcontext(map(sector_rows, range(cfg.n_sectors)))
    ) as rows:
        f_cdr.write(",".join(CDR_HEADER) + "\n")
        f_top.write(",".join(TOPUP_HEADER) + "\n")
        f_survey.write(",".join(SURVEY_ID_COLUMNS + survey_columns) + "\n")
        for cdr_text, top_text, home_text, survey_text in rows:
            f_cdr.write(cdr_text)
            f_top.write(top_text)
            user_home_rows.append(home_text)
            f_survey.write(survey_text)

    write_table(paths["towers"], TOWER_HEADER,
                zip(tower_ids.tolist(), np.repeat(sector_ids, cfg.towers_per_sector).tolist()))
    write_table(paths["survey_meta"], SURVEY_META_HEADER,
                zip(survey_columns, survey_categories))
    headcount = _sigmoid(-0.1 - 0.9 * (latents.wealth + 0.3 * latents.pov_h))
    intensity = 0.34 + 0.25 * _sigmoid(-0.8 * (latents.wealth + 0.3 * latents.pov_a))
    write_table(paths["poverty"], POVERTY_HEADER, (
        (s, f"{h:.6f}", f"{a:.6f}") for s, h, a in zip(sector_ids, headcount, intensity)
    ))

    _write_truth(cfg, paths["truth"], sector_ids, latents, topup_mu, items, user_home_rows)
    return paths


def _write_truth(cfg, path, sector_ids, latents, topup_mu, items, user_home_rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(TRUTH_HEADER) + "\n")
        params = {
            "seed": cfg.seed,
            "n_sectors": cfg.n_sectors,
            "users_per_sector": cfg.users_per_sector,
            "households_per_sector": cfg.households_per_sector,
            "topup_user_sd": cfg.topup_user_sd,
            "expense_link": cfg.expense_link,
            "pair_tolerance": cfg.pair_tolerance,
            "fit_tolerance": cfg.fit_tolerance,
            "verify_p_max": cfg.verify_p_max,
            "home_accuracy_min": cfg.home_accuracy_min,
            "negative_r_max": cfg.negative_r_max,
        }
        for key, value in params.items():
            f.write(f"param,{key},{value},\n")
        if cfg.planted_r is not None and cfg.expense_link == "linear":
            f.write(f"planted_pair,{PLANTED_PAIR[0]}|{PLANTED_PAIR[1]},{cfg.planted_r!r},\n")
        if cfg.expense_link == "quadratic":
            f.write(f"planted_model,food_expenditure,{cfg.planted_fit_r!r},degree=2\n")
        for item in items:
            f.write(f"food_item,{item.name},{item.beta!r},{item.group}\n")
        for i, sector in enumerate(sector_ids):
            f.write(f"sector,{sector},{float(latents.wealth[i])!r},{float(topup_mu[i])!r}\n")
        f.writelines(user_home_rows)


def read_truth(path) -> dict[str, list[tuple[int, str, str, str]]]:
    """truth.csv grouped by kind: {kind: [(line, key, value, extra), ...]}."""
    _, lines, (kinds, *rest) = read_table(path, "truth", TRUTH_HEADER)
    rows = zip(lines, *rest)
    out: dict[str, list[tuple[int, str, str, str]]] = {}
    for kind, run in groupby(kinds):  # runs of one kind; synth writes each as one
        out.setdefault(kind, []).extend(islice(rows, sum(1 for _ in run)))
    return out


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class VerifyReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]


def verify_outputs(truth_path, outputs_dir) -> VerifyReport:
    """Compare pipeline outputs in ``outputs_dir`` against truth.csv.

    Checks planted pair correlations (value and significance), the
    food-item correlation ordering across groups, home-location accuracy,
    per-sector recovered top-up means, and (when planted) the quadratic
    model's fit correlation. Missing output files are fatal.
    """
    from .correlate import read_correlations
    from .features import read_user_features
    from .aggregate import read_sector_matrix
    from .models import read_model_summary

    truth = read_truth(truth_path)
    params = {key: (line, value) for line, key, value, _ in truth.get("param", [])}
    outputs = Path(outputs_dir)

    def param(key: str, default: float, parse=float):
        return parse_number("truth", *params[key], parse) if key in params else default

    def need(name: str) -> Path:
        p = outputs / name
        if not p.exists():
            raise FormatError(f"verify: missing pipeline output {p}")
        return p

    checks: list[CheckResult] = []

    correlations = {
        (e.mobile_var, e.survey_var): e for e in read_correlations(need("correlations.csv"))
    }

    # planted pairwise correlations
    tol = param("pair_tolerance", 0.05)
    p_max = param("verify_p_max", 1e-6)
    for line, key, value, _ in truth.get("planted_pair", []):
        mobile_var, _, survey_var = key.partition("|")
        target = parse_number("truth", line, value)
        entry = correlations.get((mobile_var, survey_var))
        if entry is None or not entry.defined:
            checks.append(CheckResult(f"pair {key}", False, "correlation undefined"))
            continue
        ok = abs(entry.r - target) <= tol and entry.p is not None and entry.p < p_max
        detail = (f"recovered r={entry.r:.4f} (target {target} +/- {tol}), "
                  f"p={entry.p:.3g} (required < {p_max})")
        checks.append(CheckResult(f"pair {key}", ok, detail))

    # food-item ordering across planted groups
    groups: dict[str, list[tuple[str, float]]] = {}
    for _, name, _, group in truth.get("food_item", []):
        if group not in ("high", "middle", "low", "negative"):
            continue
        entry = correlations.get((PLANTED_PAIR[0], name))
        if entry is None or not entry.defined:
            checks.append(CheckResult("food ordering", False, f"{name}: undefined"))
            break
        groups.setdefault(group, []).append((name, entry.r))
    else:
        if groups:
            checks.extend(_ordering_checks(groups, param("negative_r_max", -0.2)))

    # home-location accuracy
    homes = {key: value for _, key, value, _ in truth.get("user_home", [])}
    if homes:
        features = read_user_features(need("user_features.csv"))
        hits = sum(1 for user, sector in features.home_sectors().items()
                   if homes.get(user) == sector)
        accuracy = hits / len(features) if features else 0.0
        floor = param("home_accuracy_min", 0.95)
        detail = f"{accuracy:.4f} over {len(features)} user(s), floor {floor}"
        checks.append(CheckResult("home accuracy", accuracy >= floor and bool(features), detail))

    # recovered per-sector top-up means
    expected = {
        key: parse_number("truth", line, extra) for line, key, _, extra in truth.get("sector", [])
    }
    if expected:
        matrix = read_sector_matrix(need("sector_mobile.csv"))
        user_sd = param("topup_user_sd", 0.0)
        n_users = param("users_per_sector", 1, int)
        tol_mean = 6.0 * user_sd / math.sqrt(n_users) + 0.05
        col = matrix.column("topup_sum.mean")
        worst = 0.0
        missing = [s for s in expected if s not in matrix.sectors]
        for i, sector in enumerate(matrix.sectors):
            if sector in expected:
                worst = max(worst, abs(col[i] - expected[sector]))
        detail = f"max |recovered-planted|={worst:.3f} (tol {tol_mean:.3f})"
        if missing:
            detail += f"; {len(missing)} sector(s) missing"
        checks.append(CheckResult("sector means", not missing and worst <= tol_mean, detail))

    # planted model fit
    fit_tol = param("fit_tolerance", 0.05)
    for line, target, value, _ in truth.get("planted_model", []):
        planted = parse_number("truth", line, value)
        summary = read_model_summary(need(f"model_{target}.csv"))
        fit_r = summary.get("fit_r")
        ok = fit_r is not None and abs(fit_r - planted) <= fit_tol
        detail = f"fit_r={fit_r} (target {value} +/- {fit_tol})"
        checks.append(CheckResult(f"model {target}", ok, detail))

    return VerifyReport(checks)


def _ordering_checks(
    groups: dict[str, list[tuple[str, float]]], negative_r_max: float
) -> list[CheckResult]:
    order = ["high", "middle", "low", "negative"]
    present = [g for g in order if groups.get(g)]
    results = []
    for upper, lower in zip(present, present[1:]):
        lo_name, lo_r = min(groups[upper], key=lambda kv: kv[1])
        hi_name, hi_r = max(groups[lower], key=lambda kv: kv[1])
        detail = f"min({upper})={lo_r:.3f} ({lo_name}) vs max({lower})={hi_r:.3f} ({hi_name})"
        results.append(CheckResult(f"food ordering {upper}>{lower}", lo_r > hi_r, detail))
    for name, r in groups.get("negative", []):
        detail = f"{name}: r={r:.3f} (required <= {negative_r_max})"
        results.append(CheckResult("negative food item", r <= negative_r_max, detail))
    return results


def write_verify_report(report: VerifyReport, path) -> None:
    write_table(path, ["check", "status", "detail"], (
        (c.name, "pass" if c.passed else "fail", c.detail.replace(",", ";"))
        for c in report.checks
    ))
