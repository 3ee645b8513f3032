import hashlib
import math
import os

import numpy as np
import pytest

from foodsec.aggregate import build_sector_matrix
from foodsec.cli import main
from foodsec.config import ConfigError
from foodsec.correlate import pearson
from foodsec.features import user_features
from foodsec.indices import build_survey_matrix, load_poverty
from foodsec.ingest import (
    FormatError,
    RowErrorLog,
    load_survey,
    load_tower_map,
    read_cdr,
    read_topups,
)
from foodsec import synth
from foodsec.synth import (
    DEFAULT_FOOD_ITEMS,
    SynthConfig,
    _weighted_draw,
    generate,
    read_truth,
    verify_outputs,
)

FILES = ["cdr.csv", "topup.csv", "towers.csv", "survey.csv", "survey_meta.csv",
         "poverty.csv", "truth.csv"]


# Each generated file's sha256, computed once and pinned: generation is part
# of the oracle's contract, so a change that moves any byte (a draw made in
# another order, a number formatted differently) must show up here. The
# small configs reach the generator's edge cases: no planted target, the
# quadratic link, one tower per sector, never/always calling from home, a
# single top-up, the 3-cents-per-top-up floor on a negative planted mean,
# users with no day calls, no night calls or no calls at all, wealth-dependent
# contact diversity, the fewest users the contact draw allows, and a one-day
# period.
PINNED_SMALL = dict(n_sectors=4, users_per_sector=15, households_per_sector=12, period_days=20)
PINNED_CONFIGS = {
    "default": {},
    "unplanted": dict(PINNED_SMALL, seed=2, planted_r=None, sector_noise_mobile=0.3,
                      sector_noise_survey=0.6),
    "quadratic": dict(PINNED_SMALL, seed=3, expense_link="quadratic"),
    "one-tower": dict(PINNED_SMALL, seed=4, towers_per_sector=1),
    "never-home": dict(PINNED_SMALL, seed=5, p_home=0.0),
    "always-home": dict(PINNED_SMALL, seed=6, p_home=1.0),
    "one-topup": dict(PINNED_SMALL, seed=7, topup_events_mean=1.0),
    "cents-floor": dict(PINNED_SMALL, seed=8, topup_base=-500.0),
    "no-day-calls": dict(PINNED_SMALL, seed=9, day_calls_mean=0.0),
    "no-night-calls": dict(PINNED_SMALL, seed=10, night_calls_min=0, night_calls_extra_mean=0.0,
                           day_calls_mean=1.0),
    "no-calls": dict(PINNED_SMALL, seed=11, night_calls_min=0, night_calls_extra_mean=0.0,
                     day_calls_mean=0.0),
    "edges": dict(PINNED_SMALL, seed=12, diversity_wealth_slope=0.7, users_per_sector=9,
                  period_days=1),
}

PINNED_DIGESTS = {
    'default': {
        'cdr': 'f03c9198bee09ec0040eaca704a8454144bc72c76a67a05d63af853e48aadcab',
        'topup': '45aab19e0e8e03e01050f83974e0d838c2c06dc123d0d2be8ccea1484dd37e18',
        'towers': '6ba017bcd18a1979ce16af42db6d094d8669c3ccd28c34aadc0482bfb90b07b3',
        'survey': '09cb6f3ef9451d687d72ac203c0d829a8fbaad69986a8536113f0ee1f0e9a277',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': '3964d5e550b336c6364c32e1053994d4d8b4ad750f5431c939132da2357e6591',
        'truth': 'd0b72c439aefdbed12ead55c3fc0dbbe7d8c7cedc967dc7ef7763a38087f3d11',
    },
    'unplanted': {
        'cdr': '6fcd21fa13268979c3d860d0beedb65dce46cfd865ab9a360c285cce85f11f14',
        'topup': 'f87625dd689086c2e5adefb81f909792d85957a1f6f5a97c7833f7460331f721',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': '32986a6269c379bef7622ec668d5e9ef6840cb06e34eb63ccb70d4f5858faabc',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': 'b23e2853cb9687c5e109ae51318dc939ec8e25eac69f687c6330f9a967a2f2af',
        'truth': '2ab32852c8a656d53e895bc8a482529be56f97438f9269c1a51dbb013fb5d9b3',
    },
    'quadratic': {
        'cdr': '0a5b6cbec49213b574a9af1ba17963698a8ed19f675b274443c02b4f01c89167',
        'topup': '6c6eaae86e58cd0e797492544d9997cd43f7471c0bd41a2b24e9155a57daa908',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': '8a54c1eaad7426721a6e6cb554d401aa6589d1c86e8fc2fe0ffb70fb3fd5ccea',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': '13f8c61765c2bdb3082233567253b03f3ce3d06febdff37ea268b268262e19c6',
        'truth': '518149fac0f01acda0676b4773e04f44cfb353fae543100d3b1884ebedf8aa08',
    },
    'one-tower': {
        'cdr': '9dbf9a88af7b0843575b4a735b3fe6d43852e823c376d91b216c719380a37b74',
        'topup': '6d5510fb7f5140c30679963bb14372b96f1ef9fee1903a88e1b3d520f421cf5a',
        'towers': '7ccfd2cb9ec4cb2ba5698cc3922e902adcb65fbc3e56106e72b6f013959bb665',
        'survey': 'cbbbd217ca3eff5d9b876bbd8a8de91bd890ea785c2ce9daa6a2a1c04a547b52',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': 'e769ec6d2f855d5a4b79b8de8ced86b848e7ddad9fa411cb7527f2a32ae145cf',
        'truth': '2b6c769386e27aec021cdee07b71c19d763152377a155d15f2b5ff928a662187',
    },
    'never-home': {
        'cdr': '5cb07df2f4ef11e07b9371fa6ae778385dc02f72f549bbdf5a475ed0c156c44d',
        'topup': '11cafe35d57392c69e9ffd1b7a7f222187a470ea88aedcd98678b5a8b63c76a3',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': 'fbd04254fea83aac4b4d86a6719bdd95e20ff5e6de2e9e7b49f394fb8a5b769f',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': '0bec6be0fdf80dfc6f887f372ea418d4f8a3e2ca3799beed23981093f5653292',
        'truth': '30a2b6ad29e5c12664a128055be081d19f2949f2b059a96f98a66e4c45e67d77',
    },
    'always-home': {
        'cdr': 'bd6af3402d18f85403166009d22a763a0f4f0fa61ded1a81e6f5ad4a7ab22628',
        'topup': '518c8e36f35db34fa67013ffbcc8f3e3aa228f4d60c2721d6ba3364248a152ad',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': '4364ffe5f9fc9a417a64c20cf2c1435c37450e8a7f0042a1de33c15734b0e5b2',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': 'd2254f74dbd854cecc8aa60ac1fd0851e9abcf31957503b3e3d9f5f87db3ce9b',
        'truth': 'aea20eaaac124ec4c2478eafec70f332f2207d029b7391dbd0f287c5fda99bd8',
    },
    'one-topup': {
        'cdr': 'a8e0839b49d1c946eb13a2139a488e2727bed815236e49a751336fc3ed712dcf',
        'topup': 'fbeeb503df990642a1df91b871cee96d9cb27294fcaf30be062b01958a0ef37c',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': '7dd5b0a57a34073de52d5be4d652c2cecfe84273bf59a8e5ecd12a93680d4c35',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': 'b3b2a842a408c531d59c69df0fd64b99e4b99b65a9985659e7c15b85d684893a',
        'truth': 'f25cefeac868994242c515d552e822b4c2b1a5cd34228b125ee15ff9a07a50c5',
    },
    'cents-floor': {
        'cdr': '398f2abbae24449cb1872236a131b4c0c92a6028e1e19b5a3ef05ab7f490ee6f',
        'topup': 'f99e463a3de766409261ebce6fc5941a86f6ca98175dbd31afeeea8ae5170fb4',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': '1fee630d624fc023f639441ea411bc68994602995ea129eb80076654de2d7fad',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': '55c77df548b050bca2b9e5c88892f6ecc2db186f150bd37282bb7660c250553a',
        'truth': 'faf2b52c04881d5d69394f392bb34136368a1cef982c795919c55ce32b99de3d',
    },
    'no-day-calls': {
        'cdr': '901db9a48a944fc063e44ec2cea621f7e84232ce106b72dab0f813a46e8d79b9',
        'topup': '96f870fb104752d6ed8e9e0207d729c1b46d343d680c66b0147e39c1bc91d92e',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': '1bcb35386f0e41ef8bc6add53c7bb570cf036fa83770b9e87fa26e396066bc39',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': '3ffffbb3d4b0fa3e8a4f6928b876bf19af79379de1b73eb0c8c82b9f84219096',
        'truth': '203520d48eb7a8e215551b44b868eee27ea61e6ab1365403790bac7cff330d84',
    },
    'no-night-calls': {
        'cdr': 'f0a208d9f7514e3b25dfd4d0b71e8dc2ea226336d1c070582c47869f901617a2',
        'topup': '984fcd423da43eaecb37d01b2e6cc1b2fcf6985fd5a939fa91a4e89eb096501b',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': 'ac65e686c8660d4edd2f6140233ce2d31c62a85553a576253e700b4226fcc7c1',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': '5af0773fb5552e92ac4ebdff5a586535cdcd5e6abfe4a05575f876615a1cead7',
        'truth': 'e52e517ab5582c18ac1f40cfe4670389962bc89c24bff980992acd46a56d6dfa',
    },
    'no-calls': {
        'cdr': 'cc05cc38923c22f9c60ef607da183d29c5a6c4b2dad13e186558d10a12d4b7c5',
        'topup': '61015b30850c8a9b3eb1f74b1173396a02bf60a970008964e73f3c02316361a8',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': 'a275059b0e8d39a55d3a6055ae533938b6d1852903ab7dd86cc899fe9c142a13',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': '7fdfdf7f596d713ac9b07b622c9f3f151f9effe78ecbf8556a6034d885ede3c5',
        'truth': '3eec190bdb7c8c75f7348db089097c1cc2ef3cbedbc5cc0127e5427b090fbdec',
    },
    'edges': {
        'cdr': 'd9d6542b4dc8f24fca8ba73076222bf57da5adbf3cd9537d6131466a62c4c6b2',
        'topup': 'd02bbb3777b354b77fe95ccb1c46082d6afe8740c47638053052ce6aef9183ba',
        'towers': '5acef2bddb9b7c3e7a24922ca4aeb8862a5323b246d1d8d36694973b03c7531a',
        'survey': '788683c52568a307f26147afb8c287a9107280ea552494dc6d865a11eddd9196',
        'survey_meta': '31b35343435a1e7c06f36680828aa3145d12b28c688e946b52b35a477ca32420',
        'poverty': 'e8ccc1f571a836e74fe1dcd9ab4ed69d782f5fb632af31727201cb69fa466b04',
        'truth': '74102d3647dc6bc6bb4da2863ec821800afbe26135cd8274c1ac3e7237f8b6e1',
    },
}


def file_digests(paths):
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in paths.items()}


@pytest.mark.parametrize("name", PINNED_CONFIGS)
def test_generated_bytes_are_pinned(name, tmp_path):
    assert file_digests(generate(SynthConfig(**PINNED_CONFIGS[name]), tmp_path)) == (
        PINNED_DIGESTS[name]
    )


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_sectors_keep_the_pinned_bytes(cpus, monkeypatch, tmp_path):
    """Every pinned config made in forked workers, whatever their number:
    with 3, the 4 sectors of the small configs split 2/1/1."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(synth, "FORK_MIN_USERS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted_fork)
    for name, config in PINNED_CONFIGS.items():
        forks.clear()
        paths = generate(SynthConfig(**config), tmp_path / name)
        assert len(forks) == cpus, name
        assert file_digests(paths) == PINNED_DIGESTS[name], name
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_weighted_draw_equals_generator_choice():
    """The contact draw's own steps against ``Generator.choice``: values,
    dtype and the stream's state after the draw, from one user to many
    draws and from near-degenerate to near-uniform weights."""
    cases = np.random.default_rng(2024)
    for case in range(2000):
        k = 1 if case % 50 == 0 else int(cases.integers(1, 12))
        m = 0 if case % 40 == 0 else int(cases.integers(0, 80))
        concentration = 10.0 ** cases.uniform(-2, 2)
        seed = int(cases.integers(2**32))
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        weights = ours.dirichlet(np.full(k, concentration))
        numpys.dirichlet(np.full(k, concentration))
        got = _weighted_draw(ours, weights, m)
        expected = numpys.choice(k, size=m, p=weights)
        assert got.dtype == expected.dtype, (k, m, concentration)
        assert np.array_equal(got, expected), (k, m, concentration)
        assert ours.bit_generator.state == numpys.bit_generator.state, (k, m, concentration)


def run_mini_pipeline(paths, min_users=1):
    """features -> sector matrices, all in process."""
    tower_map = load_tower_map(paths["towers"])
    features, _ = user_features(read_cdr(paths["cdr"]), read_topups(paths["topup"]), tower_map)
    mobile, _ = build_sector_matrix(features, min_users=min_users)
    table = load_survey(paths["survey"], paths["survey_meta"])
    survey, _, _ = build_survey_matrix(table, poverty=load_poverty(paths["poverty"]))
    return features, mobile, survey


class TestDeterminism:
    def test_same_config_twice_is_byte_identical(self, small_dataset, tmp_path):
        cfg, paths = small_dataset
        again = generate(cfg, tmp_path / "again")
        for name in FILES:
            key = name.removesuffix(".csv")
            assert again[key].read_bytes() == paths[key].read_bytes(), name

    def test_different_seeds_differ(self, small_dataset, tmp_path):
        cfg, paths = small_dataset
        from dataclasses import replace

        other = generate(replace(cfg, seed=cfg.seed + 1), tmp_path / "other")
        assert other["cdr"].read_bytes() != paths["cdr"].read_bytes()
        assert other["survey"].read_bytes() != paths["survey"].read_bytes()


class TestValidity:
    def test_every_record_passes_ingest_validation(self, small_dataset):
        _, paths = small_dataset
        errors = RowErrorLog()
        n_calls = len(read_cdr(paths["cdr"], errors))
        n_topups = len(read_topups(paths["topup"], errors))
        table = load_survey(paths["survey"], paths["survey_meta"], errors)
        load_tower_map(paths["towers"])
        load_poverty(paths["poverty"])
        assert errors.count == 0
        assert n_calls > 0 and n_topups > 0 and len(table) > 0

    def test_frequencies_stay_in_range(self, small_dataset):
        _, paths = small_dataset
        table = load_survey(paths["survey"], paths["survey_meta"])
        for item in DEFAULT_FOOD_ITEMS:
            col = table.column(item.name)
            assert np.nanmin(col) >= 0 and np.nanmax(col) <= 7

    def test_timestamps_inside_period(self, small_dataset):
        from datetime import datetime, timedelta

        cfg, paths = small_dataset
        start = datetime.combine(cfg.period_start, datetime.min.time())
        end = start + timedelta(days=cfg.period_days)
        errors = RowErrorLog()
        n = len(read_cdr(paths["cdr"], errors, period=(start, end)))
        assert errors.count == 0 and n > 0

    def test_mpi_is_product_of_poverty_columns(self, small_dataset):
        _, paths = small_dataset
        poverty = load_poverty(paths["poverty"])
        table = load_survey(paths["survey"], paths["survey_meta"])
        survey, _, _ = build_survey_matrix(table, poverty=poverty)
        mpi = survey.column("mpi")
        for i, sector in enumerate(survey.sectors):
            h, a = poverty[sector]
            assert mpi[i] == h * a


class TestPlantedSignals:
    def test_noiseless_linear_link_recovers_unit_correlation(self, tmp_path):
        cfg = SynthConfig(
            seed=3,
            n_sectors=10,
            users_per_sector=25,
            households_per_sector=10,
            period_days=40,
            night_calls_min=6,
            night_calls_extra_mean=2.0,
            day_calls_mean=2.0,
            topup_events_mean=4.0,
            planted_r=None,
            topup_user_sd=0.0,
            expense_household_sd=0.0,
            sector_noise_mobile=0.0,
            sector_noise_survey=0.0,
        )
        paths = generate(cfg, tmp_path)
        _, mobile, survey = run_mini_pipeline(paths)
        r = pearson(mobile.column("topup_sum.mean"), survey.column("food_expenditure"))
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_planted_r_recovered_across_seeds(self, tmp_path):
        for seed in (11, 29):
            cfg = SynthConfig(
                seed=seed,
                n_sectors=100,
                users_per_sector=50,
                households_per_sector=25,
                period_days=60,
                night_calls_min=8,
                night_calls_extra_mean=2.0,
                day_calls_mean=2.0,
                topup_events_mean=4.0,
            )
            paths = generate(cfg, tmp_path / str(seed))
            _, mobile, survey = run_mini_pipeline(paths)
            r = pearson(mobile.column("topup_sum.mean"), survey.column("food_expenditure"))
            # sampling sd of r at 100 sectors is ~0.036
            assert abs(r - 0.8) < 0.11, f"seed {seed}: r={r}"

    def test_home_location_accuracy(self, small_dataset):
        cfg, paths = small_dataset
        features, _, _ = run_mini_pipeline(paths)
        homes = {key: value for _, key, value, _ in read_truth(paths["truth"])["user_home"]}
        found = features.home_sectors()
        hits = sum(1 for user, sector in found.items() if homes[user] == sector)
        assert len(found) == cfg.n_sectors * cfg.users_per_sector
        assert hits / len(found) >= 0.95

    def test_quadratic_calibration_math(self):
        cfg = SynthConfig(expense_link="quadratic", planted_fit_r=0.89, expense_quad_coeff=0.5)
        sx, sy, hh_sd = cfg.derived_noise()
        assert sx == 0.0 and sy == 0.0
        signal = 1 + 2 * 0.5**2
        expected = cfg.expense_scale * math.sqrt(
            cfg.households_per_sector * signal * (1 / 0.89**2 - 1)
        )
        assert hh_sd == pytest.approx(expected)

    def test_linear_calibration_budget(self):
        cfg = SynthConfig(planted_r=0.8)
        sx, sy, _ = cfg.derived_noise()
        budget = 1 / 0.8 - 1
        user_term = (cfg.topup_user_sd / cfg.topup_scale) ** 2 / cfg.users_per_sector
        hh_term = (cfg.expense_household_sd / cfg.expense_scale) ** 2 / cfg.households_per_sector
        assert sx**2 + user_term == pytest.approx(budget)
        assert sy**2 + hh_term == pytest.approx(budget)

    def test_infeasible_planted_r_rejected(self):
        cfg = SynthConfig(planted_r=0.99, topup_user_sd=2500.0, users_per_sector=10)
        with pytest.raises(ConfigError, match="infeasible"):
            cfg.validate()


class TestConfig:
    def test_from_file(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "seed = 42\nn_sectors = 7\nexpense_link = quadratic\n"
            "period_start = 2013-02-01\nplanted_r = none\n# comment\n"
        )
        cfg = SynthConfig.from_file(path)
        assert cfg.seed == 42
        assert cfg.n_sectors == 7
        assert cfg.expense_link == "quadratic"
        assert str(cfg.period_start) == "2013-02-01"
        assert cfg.planted_r is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            SynthConfig.from_file(path)

    def test_unknown_expense_link_rejected_before_any_file(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="^expense_link must be 'linear' or 'quadratic'$"):
            generate(SynthConfig(expense_link="cubic", n_sectors=3, users_per_sector=10),
                     tmp_path / "lib")
        assert not (tmp_path / "lib").exists()
        path = tmp_path / "synth.cfg"
        path.write_text("expense_link = cubic\n")
        assert main(["synth", "--synth-config", str(path), "--out", str(tmp_path / "cli")]) == 1
        assert capsys.readouterr().err == (
            "error: expense_link must be 'linear' or 'quadratic'\n")

    def test_zero_users_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(users_per_sector=0).validate()

    def test_contacts_must_fit_sector(self):
        with pytest.raises(ConfigError):
            SynthConfig(users_per_sector=5, contacts_max=8).validate()


class TestVerify:
    def test_full_run_passes(self, medium_dataset, medium_pipeline):
        _, paths = medium_dataset
        report = verify_outputs(paths["truth"], medium_pipeline)
        assert report.passed, "\n".join(report.lines())

    def test_corrupted_homes_fail_the_accuracy_check(self, medium_dataset, medium_pipeline, tmp_path):
        import shutil

        _, paths = medium_dataset
        corrupt = tmp_path / "corrupt"
        shutil.copytree(medium_pipeline, corrupt)
        features_file = corrupt / "user_features.csv"
        lines = features_file.read_text().splitlines()
        swapped = [lines[0]]
        for line in lines[1:]:
            cells = line.split(",")
            cells[1] = "s0000" if cells[1] != "s0000" else "s0001"
            swapped.append(",".join(cells))
        features_file.write_text("\n".join(swapped) + "\n")
        report = verify_outputs(paths["truth"], corrupt)
        failures = {c.name for c in report.checks if not c.passed}
        assert "home accuracy" in failures

    def test_failed_pair_names_the_p_bound(self, medium_dataset, medium_pipeline, tmp_path):
        """A planted pair whose r is on target but whose p is too large names
        the bound it broke."""
        import shutil

        _, paths = medium_dataset
        corrupt = tmp_path / "corrupt"
        shutil.copytree(medium_pipeline, corrupt)
        lines = (corrupt / "correlations.csv").read_text().splitlines()
        for i, line in enumerate(lines):
            cells = line.split(",")
            if cells[:2] == ["topup_sum.mean", "food_expenditure"]:
                cells[3] = "0.0025"
                lines[i] = ",".join(cells)
        (corrupt / "correlations.csv").write_text("\n".join(lines) + "\n")
        report = verify_outputs(paths["truth"], corrupt)
        (pair,) = [c for c in report.checks if c.name == "pair topup_sum.mean|food_expenditure"]
        assert not pair.passed
        assert pair.detail.endswith("p=0.0025 (required < 1e-06)")

    def test_missing_outputs_fatal(self, small_dataset, tmp_path):
        _, paths = small_dataset
        with pytest.raises(FormatError, match="missing"):
            verify_outputs(paths["truth"], tmp_path)
