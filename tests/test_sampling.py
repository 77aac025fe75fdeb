import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edmc import sampling
from edmc.geometry import center_points, gram_from_points, write_points_csv
from edmc.oracles import distances_from_gram
from edmc.sampling import (BLOCK_ELEMS, SAMPLE_BLOCK, PairSet,
                           SampledDistances, bernoulli_sample, degrees_of_freedom,
                           observe, observe_points, oversampling_ratio, pair_count,
                           perturb_points, probability_for_ratio, rng_from_seed)
from edmc.synthdata import DatasetSpec, generate

from conftest import noise_floor, random_centered_gram

TWO_POINT_GRAM = np.array([[1.0, -1.0], [-1.0, 1.0]])


class TestBernoulliSample:
    def test_p_one_gives_all_pairs(self):
        pairs = bernoulli_sample(7, 1.0, seed=0)
        assert len(pairs) == pair_count(7)

    def test_p_zero_gives_empty(self):
        assert len(bernoulli_sample(7, 0.0, seed=0)) == 0

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            bernoulli_sample(5, 1.5, seed=0)

    def test_reproducible(self):
        a = bernoulli_sample(30, 0.3, seed=42)
        b = bernoulli_sample(30, 0.3, seed=42)
        assert np.array_equal(a.ii, b.ii) and np.array_equal(a.jj, b.jj)
        c = bernoulli_sample(30, 0.3, seed=43)
        assert len(a) != len(c) or not np.array_equal(a.ii, c.ii)

    def test_mean_fill_matches_p(self):
        # Monte Carlo over seeds: mean fill within 3 standard errors of p
        n, p, trials = 100, 0.1, 10000
        L = pair_count(n)
        fills = np.array(
            [len(bernoulli_sample(n, p, seed)) / L for seed in range(trials)]
        )
        se = np.sqrt(p * (1 - p) / (L * trials))
        assert abs(fills.mean() - p) <= 3 * se

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 400, 1002, 1450])
    @pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
    def test_matches_full_draw_oracle(self, n, p):
        # the one-shot form: every pair index and one uniform per pair
        ii, jj = np.triu_indices(n, k=1)
        mask = rng_from_seed(12).random(ii.size) < p
        pairs = bernoulli_sample(n, p, seed=12)
        assert pairs.ii.dtype == ii.dtype and pairs.jj.dtype == jj.dtype
        assert np.array_equal(pairs.ii, ii[mask])
        assert np.array_equal(pairs.jj, jj[mask])

    def test_oracle_sizes_cross_a_block(self):
        assert pair_count(300) < SAMPLE_BLOCK < pair_count(400)

    def test_memory_does_not_scale_with_pair_count(self):
        # L is about 8M pairs here; the one-shot form peaks near 200 MB
        n = 4000
        p = probability_for_ratio(n, 3, 5)
        tracemalloc.start()
        try:
            pairs = bernoulli_sample(n, p, seed=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(pairs) < 0.01 * pair_count(n)
        assert peak < 32e6


class TestPairSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairSet(4, np.array([1]), np.array([1]))  # i == j
        with pytest.raises(ValueError):
            PairSet(4, np.array([0, 0]), np.array([2, 1]))  # unsorted
        with pytest.raises(ValueError):
            PairSet(4, np.array([0]), np.array([4]))  # out of range
        with pytest.raises(ValueError):
            PairSet(4, np.array([0, 1, 1]), np.array([3, 2, 2]))  # duplicate

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_from_pairs_sorts_and_dedups(self, raw):
        raw = [(i, j) for i, j in raw if i != j]
        ps = PairSet.from_pairs(10, raw)
        seen = set()
        prev = -1
        for i, j in ps:
            assert i < j
            code = i * 10 + j
            assert code > prev
            prev = code
            seen.add((i, j))
        assert seen == {(min(i, j), max(i, j)) for i, j in raw}

    def test_incidence_rows_are_signed_pairs(self):
        pairs = bernoulli_sample(9, 0.5, seed=3)
        B = pairs.incidence
        assert B.data.dtype == np.int8 and B.indices.dtype == np.int32
        expected = np.zeros((len(pairs), 9))
        expected[np.arange(len(pairs)), pairs.ii] = 1.0
        expected[np.arange(len(pairs)), pairs.jj] = -1.0
        assert np.array_equal(B.toarray(), expected)
        assert pairs.incidence is B
        assert PairSet.from_pairs(4, []).incidence.shape == (0, 4)

    @pytest.mark.parametrize("n,p", [(9, 0.5), (40, 0.2), (5, 0.0), (2, 1.0)])
    def test_upper_pattern_lists_the_pairs_read_only(self, n, p):
        pairs = bernoulli_sample(n, p, seed=n)
        indptr, indices = pairs.upper_pattern
        assert indptr.dtype == indices.dtype == np.int32
        assert indptr.shape == (n + 1,) and indptr[0] == 0 and indptr[-1] == len(pairs)
        rows = np.repeat(np.arange(n), np.diff(indptr))
        assert np.array_equal(rows, pairs.ii) and np.array_equal(indices, pairs.jj)
        assert pairs.upper_pattern is pairs.upper_pattern
        for arr in (indptr, indices):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_indices_are_read_only_copies(self):
        ii, jj = np.array([0, 1]), np.array([2, 2])
        pairs = PairSet(3, ii, jj)
        ii[0] = 1
        assert pairs.ii[0] == 0
        with pytest.raises(ValueError):
            pairs.ii[0] = 1


class TestObserve:
    def test_two_point_single_pair(self):
        data = observe(TWO_POINT_GRAM, PairSet.from_pairs(2, [(0, 1)]))
        assert data.values.tolist() == [4.0]

    def test_empty(self):
        data = observe(TWO_POINT_GRAM, PairSet(2, np.array([], int), np.array([], int)))
        assert data.values.size == 0

    def test_full_observation_matches_distance_matrix(self):
        x = random_centered_gram(9, 3, seed=1)
        d = distances_from_gram(x)
        data = observe(x, PairSet.full(9))
        iu = np.triu_indices(9, k=1)
        assert np.array_equal(data.values, d[iu])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            observe(TWO_POINT_GRAM, PairSet.from_pairs(3, [(0, 2)]))


#: (kind, dimension) of the clouds observe_points is checked on
CLOUDS = [("sphere_surface", d) for d in (2, 3, 6, 10)] + [("swiss_roll", 3)] + \
    [("unit_ball_uniform", d) for d in (2, 3, 5, 10)]


def _cloud(kind, d, n, noisy, seed=0):
    """A generated cloud, perturbed and re-centred as ``run_trial`` does when noisy."""
    points = generate(DatasetSpec(kind, n=n, r=d, seed=seed))
    if noisy:
        points = perturb_points(points, 1e-2, seed + 1)
        points = points - points.mean(axis=0)
    return points


def _pair_sets(n):
    return [bernoulli_sample(n, 0.3, seed=n), PairSet(n, np.array([], int), np.array([], int)),
            PairSet.full(n)]


class TestObservePoints:
    @pytest.mark.parametrize("kind,d", CLOUDS)
    @pytest.mark.parametrize("noisy", [False, True])
    def test_one_block_is_bitwise_the_dense_path(self, kind, d, noisy):
        n = 150
        assert BLOCK_ELEMS // n >= n
        points = _cloud(kind, d, n, noisy)
        gram = gram_from_points(points)
        for pairs in _pair_sets(n):
            dense = observe(gram, pairs, p=0.3, seed=4)
            blocked = observe_points(points, pairs, p=0.3, seed=4)
            assert np.array_equal(blocked.values, dense.values)
            assert blocked.pairs is pairs and (blocked.p, blocked.seed) == (0.3, 4)

    @pytest.mark.parametrize("kind,d", CLOUDS)
    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_row_blocks_agree_to_a_few_ulp(self, kind, d, rows, monkeypatch):
        # at this size blocks of several rows differ from the one product in
        # some last bits (up to 3 ulp of the largest value were seen)
        n = 700
        points = _cloud(kind, d, n, noisy=kind == "unit_ball_uniform")
        monkeypatch.setattr(sampling, "BLOCK_ELEMS", rows * n)
        for pairs in _pair_sets(n):
            dense = observe(gram_from_points(points), pairs).values
            blocked = observe_points(points, pairs).values
            scale = np.abs(dense).max(initial=0.0)
            assert np.abs(blocked - dense).max(initial=0.0) <= 4 * np.spacing(scale)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_near_coincident_points_are_clamped_at_zero(self, seed):
        # 50 copies of points of a sphere of radius 1e4, moved by 1e-9
        # relative: the Gram form rounds their squared distances below 0
        base = generate(DatasetSpec("sphere_surface", n=200, r=3, seed=seed)) * 1e4
        points = center_points(np.vstack([base, base[:50] * (1 + 1e-9)]))
        pairs = PairSet.full(250)
        gram = gram_from_points(points)
        g = np.diag(gram)
        raw = g[pairs.ii] + g[pairs.jj] - 2.0 * gram[pairs.ii, pairs.jj]
        assert raw.min() < -1e-12
        data = observe_points(points, pairs)
        assert np.array_equal(data.values, np.maximum(raw, 0.0))

    def test_rejects_a_cloud_that_is_not_centred(self):
        points = _cloud("sphere_surface", 3, 20, noisy=False) + 0.1
        with pytest.raises(ValueError, match="not centered"):
            observe_points(points, PairSet.full(20))

    def test_rejects_non_finite_points(self):
        points = _cloud("sphere_surface", 3, 20, noisy=False)
        points[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            observe_points(points, PairSet.full(20))

    def test_rejects_a_pair_set_of_another_size(self):
        points = _cloud("sphere_surface", 3, 20, noisy=False)
        with pytest.raises(ValueError, match=r"20 points.*n=21"):
            observe_points(points, PairSet.full(21))


class TestPerturbPoints:
    def test_zero_bound_identity(self):
        p = np.random.default_rng(0).standard_normal((10, 3))
        assert np.array_equal(perturb_points(p, 0.0, 1), p)

    def test_sup_norm_bound(self):
        p = np.zeros((100, 3))
        out = perturb_points(p, 1e-2, 7)
        assert np.abs(out).max() <= 1e-2

    def test_mean_is_centered(self):
        # CLT bound for uniform entries: |mean| <= 3 * bound / sqrt(3 N)
        bound, shape = 0.5, (50000, 2)
        noise = perturb_points(np.zeros(shape), bound, 3)
        n_entries = noise.size
        assert abs(noise.mean()) <= 3 * bound / np.sqrt(3 * n_entries)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="noise bound"):
            perturb_points(np.zeros((3, 2)), -1.0, 0)

    @pytest.mark.parametrize("bound", [np.nan, np.inf])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="noise bound"):
            perturb_points(np.zeros((3, 2)), bound, 0)

    def test_deterministic(self):
        p = np.zeros((5, 2))
        a = perturb_points(p, 0.1, 9)
        assert np.array_equal(a, perturb_points(p, 0.1, 9))

    @pytest.mark.parametrize("bound", [1e-3, 1e-2, 1e-1])
    def test_sphere_gram_noise_floor(self, bound):
        # For a unit-sphere cloud the perturbed Gram matrix sits about
        # sqrt(2r/3) * bound from the clean one in relative Frobenius norm;
        # noisy-recovery thresholds must lie above this floor to be reachable.
        for seed in range(10):
            points = generate(DatasetSpec("sphere_surface", n=100, r=3, seed=seed))
            floor = noise_floor(points, bound, seed + 1)
            assert 1.25 * bound <= floor <= 1.6 * bound


class TestOversamplingRatio:
    def test_unit_ratio_pins_sample_count(self):
        # n=100, r=2: rho = 1 corresponds to p L = 199 observed pairs
        assert degrees_of_freedom(100, 2) == 199
        p = probability_for_ratio(100, 2, 1.0)
        assert p * pair_count(100) == pytest.approx(199.0, abs=1e-9)

    def test_zero_probability(self):
        assert oversampling_ratio(100, 3, 0.0) == 0.0

    def test_full_sampling_ratio(self):
        assert oversampling_ratio(100, 10, 1.0) == pytest.approx(4950 / 955)

    def test_degenerate_denominator(self):
        with pytest.raises(ValueError):
            oversampling_ratio(100, 201, 0.5)

    def test_degrees_of_freedom_reject_a_degenerate_count(self):
        with pytest.raises(ValueError, match="degenerate degree-of-freedom count"):
            degrees_of_freedom(100, 201)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -1.0])
    def test_bad_ratio_rejected(self, rho):
        # min(1.0, nan) would have sampled every pair
        with pytest.raises(ValueError, match="oversampling ratio"):
            probability_for_ratio(100, 3, rho)

    def test_zero_ratio_gives_zero_probability(self):
        assert probability_for_ratio(100, 3, 0.0) == 0.0

    @given(st.integers(5, 200), st.integers(1, 4), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_ratio_probability_round_trip(self, n, r, p):
        rho = oversampling_ratio(n, r, p)
        assert probability_for_ratio(n, r, rho) == pytest.approx(p, rel=1e-12)


class TestSampledDistancesIO:
    def test_save_load_round_trip(self, tmp_path):
        x = random_centered_gram(8, 2, seed=5)
        pairs = bernoulli_sample(8, 0.6, seed=11)
        data = observe(x, pairs, p=0.6, seed=11)
        path = tmp_path / "dist.csv"
        data.save(path)
        back = SampledDistances.load(path)
        assert back.n == 8 and back.p == 0.6 and back.seed == 11
        assert np.array_equal(back.pairs.ii, pairs.ii)
        assert np.array_equal(back.values, data.values)

    def test_saved_to_a_json_path_round_trips(self, tmp_path):
        data = observe(random_centered_gram(8, 2, seed=5), bernoulli_sample(8, 0.6, seed=11),
                       p=0.6, seed=11)
        data.save(tmp_path / "d.json")
        back = SampledDistances.load(tmp_path / "d.json")
        assert (back.n, back.p, back.seed) == (8, 0.6, 11)
        assert np.array_equal(back.pairs.ii, data.pairs.ii)
        assert np.array_equal(back.pairs.jj, data.pairs.jj)
        assert np.array_equal(back.values, data.values)
        assert [p.name for p in tmp_path.iterdir()] == ["d.json"]

    def test_a_json_file_beside_the_sample_is_not_read(self, tmp_path):
        observe(TWO_POINT_GRAM, PairSet.from_pairs(2, [(0, 1)]), p=1.0, seed=3).save(
            tmp_path / "d.csv")
        (tmp_path / "d.json").write_text(json.dumps({"n": 2, "p": 0.5, "seed": 9}))
        back = SampledDistances.load(tmp_path / "d.csv")
        assert (back.p, back.seed) == (1.0, 3)

    def test_csv_is_one_based(self, tmp_path):
        data = observe(TWO_POINT_GRAM, PairSet.from_pairs(2, [(0, 1)]), p=1.0)
        path = tmp_path / "d.csv"
        data.save(path)
        rows = path.read_text().strip().splitlines()
        assert json.loads(rows[0].removeprefix("# meta: "))["n"] == 2
        assert rows[1] == "i,j,d"
        assert rows[2].startswith("1,2,")

    def test_meta_line_holds_n_p_seed_and_meta(self, tmp_path):
        data = observe(TWO_POINT_GRAM, PairSet.from_pairs(2, [(0, 1)]), p=1.0, seed=3)
        data.save(tmp_path / "d.csv", meta={"seed": 3})
        first = (tmp_path / "d.csv").read_text().splitlines()[0]
        assert first.startswith("# meta: ")
        assert json.loads(first.removeprefix("# meta: ")) == {
            "n": 2, "p": 1.0, "seed": 3, "_meta": {"seed": 3}}
        assert SampledDistances.load(tmp_path / "d.csv").seed == 3

    @pytest.mark.parametrize("first", [
        '# meta: {"p": null, "seed": null}', '# meta: {"n": null}', "# meta: [3]",
        '# meta: {"n": 200.7}', '# meta: {"n": "3"}', "i,j,d", "# n=3", ""],
        ids=["no-n", "null-n", "list", "float-n", "string-n", "header", "comment", "empty"])
    def test_meta_line_without_integer_n_names_the_file(self, tmp_path, first):
        path = tmp_path / "d.csv"
        path.write_text(f"{first}\ni,j,d\n1,2,4.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: '# meta:' line 1 needs "
                                                       f"an integer n")):
            SampledDistances.load(path)

    @pytest.mark.parametrize("meta", [None, {"seed": 3}])
    def test_a_point_cloud_file_names_n(self, tmp_path, meta):
        path = tmp_path / "points.csv"
        write_points_csv(path, generate(DatasetSpec("sphere_surface", n=5, r=3, seed=0)), meta)
        with pytest.raises(ValueError, match=re.escape(f"{path}: '# meta:' line 1 needs "
                                                       f"an integer n")):
            SampledDistances.load(path)

    @pytest.mark.parametrize("first", ["# meta: {bad", "# meta: ", '# meta: {"n": 3'],
                             ids=["bad", "empty", "cut"])
    def test_unparsable_meta_line_names_path_and_line_1(self, tmp_path, first):
        path = tmp_path / "d.csv"
        path.write_text(f"{first}\ni,j,d\n1,2,4.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: ")):
            SampledDistances.load(path)

    @pytest.mark.parametrize("meta,message", [
        ({"p": 7.0}, "p must be None or a number in [0, 1], not 7.0"),
        ({"p": "abc"}, "p must be None or a number in [0, 1], not 'abc'"),
        ({"seed": "one"}, "seed must be None or an integer, not 'one'"),
        ({"seed": 1.5}, "seed must be None or an integer, not 1.5"),
    ])
    def test_bad_p_or_seed_in_the_meta_line_names_file_and_field(self, tmp_path, meta,
                                                                 message):
        path = tmp_path / "d.csv"
        path.write_text(f"# meta: {json.dumps({'n': 3, **meta})}\ni,j,d\n1,2,4.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            SampledDistances.load(path)

    @pytest.mark.parametrize("row", ["3,4", "1,3,abc", "x,3,1.0", "1.5,3,1.0"])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(f'# meta: {{"n": 3}}\ni,j,d\n1,2,4.0\n{row}\n2,3,1.0\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:4:")) as info:
            SampledDistances.load(path)
        assert repr(row) in str(info.value)

    @pytest.mark.parametrize("rows,message", [
        ("2,3,1.0\n1,2,4.0", "sorted and unique"),
        ("1,2,4.0\n1,2,4.0", "sorted and unique"),
        ("2,1,4.0", "i < j"),
        ("0,2,4.0", "out of range"),
        ("1,4,4.0", "out of range"),
        ("1,2,nan", "non-finite distances at 1 pairs"),
    ])
    def test_structural_fault_names_the_file(self, tmp_path, rows, message):
        path = tmp_path / "d.csv"
        path.write_text(f'# meta: {{"n": 3, "p": null, "seed": null}}\ni,j,d\n{rows}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as info:
            SampledDistances.load(path)
        assert message in str(info.value)

    @pytest.mark.parametrize("field,value,expected", [
        ("p", 7.0, "None or a number in [0, 1]"),
        ("p", -0.1, "None or a number in [0, 1]"),
        ("p", float("nan"), "None or a number in [0, 1]"),
        ("p", "abc", "None or a number in [0, 1]"),
        ("p", True, "None or a number in [0, 1]"),
        ("seed", "one", "None or an integer"),
        ("seed", 1.0, "None or an integer"),
        ("seed", True, "None or an integer"),
    ])
    def test_bad_p_or_seed_names_the_field(self, field, value, expected):
        pairs = PairSet.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {expected}, "
                                                       f"not {value!r}")):
            SampledDistances(pairs, np.array([4.0]), **{field: value})

    @pytest.mark.parametrize("p,seed", [(1, np.int64(4)), (np.float64(0.3), None)])
    def test_p_in_the_unit_interval_and_integer_seeds_accepted(self, p, seed):
        data = SampledDistances(PairSet.from_pairs(2, [(0, 1)]), np.array([4.0]), p=p, seed=seed)
        assert (data.p, data.seed) == (p, seed)

    def test_p_zero_sample_builds(self):
        data = observe(TWO_POINT_GRAM, bernoulli_sample(2, 0.0, seed=1), p=0.0, seed=1)
        assert data.m == 0 and data.p == 0.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            SampledDistances(PairSet.from_pairs(3, [(0, 1)]), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        pairs = PairSet.from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="non-finite distances"):
            SampledDistances(pairs, np.array([1.0, bad]))
