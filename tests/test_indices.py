import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodsec.indices import (
    DEFAULT_FCS_WEIGHTS,
    build_survey_matrix,
    coping_strategy_index,
    food_consumption_score,
    load_csi_weights,
    load_fcs_weights,
    load_poverty,
    multidimensional_poverty_index,
    sector_survey_means,
)
from foodsec.ingest import FormatError, load_survey


def stream(body):
    return io.StringIO(body)


class TestFoodConsumptionScore:
    def test_all_zero(self):
        assert food_consumption_score({g: 0 for g in DEFAULT_FCS_WEIGHTS}) == 0.0

    def test_all_seven_is_112(self):
        # 7 x (2+3+1+1+4+4+0.5+0.5+0) = 112 with the default weights.
        assert food_consumption_score({g: 7 for g in DEFAULT_FCS_WEIGHTS}) == 112.0

    def test_partial_groups(self):
        # staples 7*2 + vegetables 7*1 + oil 7*0.5 + sugar 7*0.5 = 28.
        frequencies = {"staples": 7, "vegetables": 7, "oil": 7, "sugar": 7}
        assert food_consumption_score(frequencies) == 28.0

    def test_missing_groups_count_as_zero(self):
        assert food_consumption_score({"staples": 2}) == 4.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            food_consumption_score({"staples": 8})
        with pytest.raises(ValueError):
            food_consumption_score({"staples": -1})

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(sorted(DEFAULT_FCS_WEIGHTS)), st.integers(0, 3), min_size=1),
        st.dictionaries(st.sampled_from(sorted(DEFAULT_FCS_WEIGHTS)), st.integers(0, 3), min_size=1),
    )
    def test_linearity(self, f1, f2):
        combined = {g: f1.get(g, 0) + f2.get(g, 0) for g in set(f1) | set(f2)}
        assert food_consumption_score(combined) == pytest.approx(
            food_consumption_score(f1) + food_consumption_score(f2)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(sorted(DEFAULT_FCS_WEIGHTS)), st.integers(0, 6), min_size=1),
        st.sampled_from(sorted(DEFAULT_FCS_WEIGHTS)),
    )
    def test_monotone_in_every_frequency(self, frequencies, bump):
        bumped = dict(frequencies)
        bumped[bump] = bumped.get(bump, 0) + 1
        assert food_consumption_score(bumped) >= food_consumption_score(frequencies)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.one_of(st.integers(0, 7), st.none()), min_size=3, max_size=3),
             min_size=1, max_size=12),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]), min_size=3, max_size=3),
)
def test_table_columns_score_as_each_household(households, weights):
    """Both kernels give each household of a table the score they give its
    answers one by one, bit for bit, a blank included."""
    names = ["staples", "sugar", "skip_meals"]
    table = np.array([[math.nan if v is None else v for v in row] for row in households],
                     dtype=np.float64)
    answers = dict(zip(names, table.T))
    table_weights = dict(zip(names, weights))
    for index in (food_consumption_score, coping_strategy_index):
        scores = np.broadcast_to(index(answers, table_weights), len(table))
        each = [index(dict(zip(names, row.tolist())), table_weights) for row in table]
        assert np.array_equal(scores, np.array(each, dtype=np.float64), equal_nan=True)


class TestCopingStrategyIndex:
    def test_all_zero(self):
        assert coping_strategy_index({"skip_meals": 0}, {"skip_meals": 2}) == 0.0

    def test_single_strategy(self):
        assert coping_strategy_index({"skip_meals": 3}, {"skip_meals": 2}) == 6.0

    def test_two_strategies(self):
        # (w=1, f=7) + (w=4, f=2) = 15.
        weights = {"cheaper_food": 1, "sell_assets": 4}
        frequencies = {"cheaper_food": 7, "sell_assets": 2}
        assert coping_strategy_index(frequencies, weights) == 15.0

    def test_unweighted_strategy_rejected(self):
        with pytest.raises(ValueError, match="mystery"):
            coping_strategy_index({"mystery": 1}, {"skip_meals": 2})

    def test_empty_weights_rejected(self):
        with pytest.raises(ValueError):
            coping_strategy_index({}, {})


class TestMpi:
    def test_zero_headcount(self):
        assert multidimensional_poverty_index(0, 0.9) == 0.0

    def test_unit_product(self):
        assert multidimensional_poverty_index(1, 1) == 1.0

    def test_product(self):
        assert multidimensional_poverty_index(0.443, 0.5) == pytest.approx(0.2215)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            multidimensional_poverty_index(1.5, 0.5)
        with pytest.raises(ValueError):
            multidimensional_poverty_index(0.5, -0.1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_exact_product_and_bound(self, h, a):
        mpi = multidimensional_poverty_index(h, a)
        assert mpi == h * a
        assert mpi <= min(h, a)


META = "variable,category\nfcs,V2\nexpense,V3\n"


def make_table(rows):
    body = "household_id,sector_id,fcs,expense\n" + "".join(rows)
    return load_survey(stream(body), stream(META))


class TestSectorSurveyMeans:
    def test_simple_mean(self):
        table = make_table(["h1,s1,20,5\n", "h2,s1,40,7\n"])
        matrix = sector_survey_means(table, ["fcs"])
        assert matrix.sectors == ["s1"]
        assert matrix.column("fcs")[0] == pytest.approx(30.0)
        assert matrix.counts.tolist() == [2]

    def test_disjoint_sectors_are_local(self):
        table = make_table(["h1,s1,20,5\n", "h2,s2,40,7\n", "h3,s2,60,9\n"])
        matrix = sector_survey_means(table, ["fcs", "expense"])
        assert matrix.sectors == ["s1", "s2"]
        assert matrix.column("fcs").tolist() == [20.0, 50.0]
        assert matrix.column("expense").tolist() == [5.0, 8.0]

    def test_missing_cells_excluded_pairwise(self):
        table = make_table(["h1,s1,20,\n", "h2,s1,40,8\n"])
        matrix = sector_survey_means(table, ["fcs", "expense"])
        assert matrix.column("fcs")[0] == pytest.approx(30.0)
        assert matrix.column("expense")[0] == pytest.approx(8.0)

    def test_all_missing_cell_is_undefined(self):
        table = make_table(["h1,s1,20,\n"])
        matrix = sector_survey_means(table, ["expense"])
        assert math.isnan(matrix.column("expense")[0])

    def test_unknown_variable_rejected(self):
        for variables, fault in ((["bogus"], "unknown"), ([], "an empty"),
                                 (["fcs", ""], "an empty"), (["fcs", "fcs"], "repeated")):
            with pytest.raises(ValueError, match=f"config key 'variables': {fault}"):
                sector_survey_means(make_table(["h1,s1,1,1\n"]), variables)

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_household_order_invariance(self, rnd):
        rows = [f"h{i},s{i % 3},{i % 8},{i * 2}\n" for i in range(24)]
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        a = sector_survey_means(make_table(rows), ["fcs", "expense"])
        b = sector_survey_means(make_table(shuffled), ["fcs", "expense"])
        assert a.sectors == b.sectors
        assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-12)


FULL_META = (
    "variable,category\n"
    "staples,food_group\n"
    "sugar,food_group\n"
    "skip_meals,V2\n"
    "expense,V3\n"
)
FULL_BODY = (
    "household_id,sector_id,staples,sugar,skip_meals,expense\n"
    "h1,s1,7,7,2,100\n"
    "h2,s1,0,0,0,50\n"
    "h3,s2,3,2,1,80\n"
)


class TestBuildSurveyMatrix:
    def load(self):
        return load_survey(stream(FULL_BODY), stream(FULL_META))

    def test_fcs_mean_from_matching_groups(self):
        matrix, categories, _ = build_survey_matrix(self.load())
        # h1: 7*2 + 7*0.5 = 17.5; h2: 0 -> mean 8.75 in s1.
        assert matrix.column("fcs_mean").tolist()[0] == pytest.approx(8.75)
        assert matrix.column("fcs_mean").tolist()[1] == pytest.approx(3 * 2 + 2 * 0.5)
        assert categories["fcs_mean"] == "composite"

    def test_csi_with_weights(self):
        matrix, _, _ = build_survey_matrix(self.load(), csi_weights={"skip_meals": 4.0})
        assert matrix.column("csi_mean").tolist() == [pytest.approx(4.0), pytest.approx(4.0)]

    def test_csi_undefined_without_weights(self):
        matrix, _, _ = build_survey_matrix(self.load())
        assert all(math.isnan(v) for v in matrix.column("csi_mean"))

    def test_mpi_from_poverty_table(self):
        matrix, _, _ = build_survey_matrix(self.load(), poverty={"s1": (0.4, 0.5), "s2": (0.2, 0.5)})
        assert matrix.column("mpi").tolist() == [pytest.approx(0.2), pytest.approx(0.1)]

    def test_mpi_undefined_for_missing_sector(self):
        matrix, _, _ = build_survey_matrix(self.load(), poverty={"s1": (0.4, 0.5)})
        assert matrix.column("mpi")[0] == pytest.approx(0.2)
        assert math.isnan(matrix.column("mpi")[1])

    def test_blank_weighted_cell_leaves_the_household_out(self):
        body = FULL_BODY.replace("h2,s1,0,0,0,50", "h2,s1,,0,0,50").replace(
            "h3,s2,3,2,1,80", "h3,s2,3,2,,80"
        )
        table = load_survey(stream(body), stream(FULL_META))
        matrix, _, incomplete = build_survey_matrix(table, csi_weights={"skip_meals": 4.0})
        # s1: h2 has no staples answer, so only h1 scores (a blank read as 0 gave 8.75)
        assert matrix.column("fcs_mean").tolist() == [pytest.approx(17.5), pytest.approx(7.0)]
        # s2: its only household has no skip_meals answer, so no mean, not 0
        assert matrix.column("csi_mean")[0] == pytest.approx(4.0)
        assert math.isnan(matrix.column("csi_mean")[1])
        assert incomplete == {"fcs_mean": 1, "csi_mean": 1}

    def test_blank_cell_of_zero_weight_keeps_the_household(self):
        body = FULL_BODY.replace("h2,s1,0,0,", "h2,s1,0,,")
        table = load_survey(stream(body), stream(FULL_META))
        matrix, _, incomplete = build_survey_matrix(
            table, fcs_weights={"staples": 2.0, "sugar": 0.0}
        )
        assert matrix.column("fcs_mean").tolist() == [pytest.approx(7.0), pytest.approx(6.0)]
        assert incomplete == {}

    def test_no_weighted_column_is_undefined(self, caplog):
        """A survey without a column of non-zero weight has no index, not 0."""
        table = load_survey(stream("household_id,sector_id,sugar,expense\nh1,s1,3,50\n"),
                            stream(FULL_META))
        matrix, _, incomplete = build_survey_matrix(
            table, fcs_weights={"staples": 2.0, "sugar": 0.0}, csi_weights={"skip_meals": 4.0}
        )
        assert math.isnan(matrix.column("fcs_mean")[0])
        assert math.isnan(matrix.column("csi_mean")[0])
        assert incomplete == {}
        assert "fcs_mean: no survey column carries a non-zero weight" in caplog.text
        assert "csi_mean: no survey column carries a non-zero weight" in caplog.text
        # with sugar weighted, the absent groups score 0
        default, _, _ = build_survey_matrix(table)
        assert default.column("fcs_mean")[0] == 3 * 0.5

    def test_variable_subset(self):
        matrix, categories, _ = build_survey_matrix(self.load(), variables=["expense"])
        assert matrix.columns == ["expense", "fcs_mean", "csi_mean", "mpi"]
        assert categories["expense"] == "V3"

    @pytest.mark.parametrize("name", ["fcs_mean", "csi_mean", "mpi", "n_households"])
    def test_variable_named_after_a_composite_is_refused(self, name):
        """Its column would be written twice, which no reader takes back."""
        table = load_survey(stream(f"household_id,sector_id,staples,{name}\nh1,s1,7,0.5\n"
                                   "h2,s1,3,0.2\nh3,s2,0,0.1\n"),
                            stream(f"variable,category\nstaples,food_group\n{name},V3\n"))
        with pytest.raises(FormatError, match=f"survey: variable '{name}' has the name"):
            build_survey_matrix(table)


class TestLoaders:
    def test_fcs_weights_file(self):
        w = load_fcs_weights(stream("food_group,weight\nstaples,2\nsugar,0.5\n"))
        assert w == {"staples": 2.0, "sugar": 0.5}

    def test_csi_weights_file(self):
        assert load_csi_weights(stream("strategy,weight\nskip_meals,4\n")) == {"skip_meals": 4.0}

    def test_negative_weight_rejected(self):
        with pytest.raises(FormatError):
            load_csi_weights(stream("strategy,weight\nskip_meals,-1\n"))

    def test_poverty_file(self):
        p = load_poverty(stream("sector_id,headcount,intensity\ns1,0.4,0.5\n"))
        assert p == {"s1": (0.4, 0.5)}

    def test_poverty_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            load_poverty(stream("sector_id,headcount,intensity\ns1,1.4,0.5\n"))

    def test_duplicate_sector_rejected(self):
        with pytest.raises(FormatError):
            load_poverty(stream("sector_id,headcount,intensity\ns1,0.4,0.5\ns1,0.4,0.5\n"))
