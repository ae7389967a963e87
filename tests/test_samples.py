import json

import numpy as np
import pytest

from relmargin import (
    CapabilityError,
    DataError,
    InputError,
    LabeledSample,
    LinearHypothesis,
    MarginSeparable,
    TwoGaussianMixture,
    generate,
    make_distribution,
    margins,
    true_risk,
)


def test_sample_validation():
    with pytest.raises(InputError):
        LabeledSample(points=np.zeros((2, 2)), labels=np.array([1.0, 0.5]))
    with pytest.raises(InputError):
        LabeledSample(points=np.zeros((2, 2)), labels=np.array([1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match=f"points must be finite, got the entry {bad}"):
            LabeledSample(points=np.array([[0.5, 1.0], [bad, 0.2]]), labels=np.array([1.0, -1.0]))


def test_generate_is_deterministic():
    dist = TwoGaussianMixture(dim=3, separation=1.0, sigma=1.0)
    a = generate(dist, 50, seed=11)
    b = generate(dist, 50, seed=11)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)
    c = generate(dist, 50, seed=12)
    assert not np.array_equal(a.points, c.points)


def test_generated_points_respect_radius():
    dist = TwoGaussianMixture(dim=4, separation=2.0, sigma=1.0, radius=2.5)
    s = generate(dist, 400, seed=0)
    assert np.linalg.norm(s.points, axis=1).max() <= 2.5 + 1e-9


def test_separable_margins_at_least_gap():
    dist = MarginSeparable(dim=3, gap=0.3, noise_rate=0.0)
    s = generate(dist, 500, seed=2)
    u = margins(dist.planted, s)
    assert u.min() >= 0.3 - 1e-12


def test_noise_rate_within_three_stderr():
    rate = 0.1
    m = 100_000
    dist = MarginSeparable(dim=2, gap=0.2, noise_rate=rate)
    s = generate(dist, m, seed=5)
    flipped = (margins(dist.planted, s) < 0).mean()
    stderr = np.sqrt(rate * (1 - rate) / m)
    assert abs(flipped - rate) <= 3 * stderr


def test_analytic_risk_matches_holdout():
    dist = TwoGaussianMixture(dim=3, separation=1.0, sigma=1.0)
    h = LinearHypothesis(np.array([1.0, 0.0, 0.0]))  # aligned with the class mean
    exact = true_risk(h, dist, mode="analytic")
    mc = true_risk(h, dist, mode="holdout", n=10**6, seed=3)
    assert exact.stderr == 0.0
    assert abs(exact.value - mc.value) <= 3 * mc.stderr


def test_analytic_risk_closed_form_value():
    from scipy.stats import norm

    dist = TwoGaussianMixture(dim=2, separation=1.5, sigma=0.75)
    h = LinearHypothesis(np.array([0.6, 0.8]))
    # margin is N(w1 * separation, sigma^2), risk = Phi(-w1 * sep / sigma)
    assert dist.analytic_risk(h) == pytest.approx(norm.cdf(-0.6 * 1.5 / 0.75))


def test_wrong_sign_hypothesis_has_risk_near_one():
    dist = MarginSeparable(dim=2, gap=0.5, noise_rate=0.0)
    wrong = LinearHypothesis(np.array([-1.0, 0.0]))
    est = true_risk(wrong, dist, mode="holdout", n=2000, seed=9)
    assert est.value == 1.0


def test_holdout_single_point_is_zero_or_one():
    dist = TwoGaussianMixture(dim=2)
    h = LinearHypothesis(np.array([1.0, 0.0]))
    est = true_risk(h, dist, mode="holdout", n=1, seed=4)
    assert est.value in (0.0, 1.0)


def test_holdout_error_rate_pool_columns_match_single_hypotheses():
    from relmargin.rng import substream
    from relmargin.transforms import holdout_error_rate

    dist = TwoGaussianMixture(dim=3)
    ws = np.random.default_rng(2).standard_normal((4, 3))
    n = 100_000 + 1234  # one full block and one partial block
    pooled = holdout_error_rate(lambda x: x @ ws.T, dist, n, substream(5, "holdout"))
    assert pooled.shape == (4,)
    for w, rate in zip(ws, pooled):
        h = LinearHypothesis(w)
        single = holdout_error_rate(h.predict, dist, n, substream(5, "holdout"))
        assert single == rate
        assert true_risk(h, dist, mode="holdout", n=n, seed=5).value == rate


def test_true_risk_rejects_a_bad_holdout_size_or_mode():
    dist = TwoGaussianMixture(dim=2)
    h = LinearHypothesis(np.array([1.0, 0.0]))
    for n in (1.5, 0, -2, None, True, "10"):
        with pytest.raises(InputError, match=f"n must be an integer >= 1, got {n!r}"):
            true_risk(h, dist, mode="holdout", n=n, seed=0)
    with pytest.raises(InputError, match="holdout mode requires a seed"):
        true_risk(h, dist, mode="holdout", n=10)
    # a bad argument is an input error (exit 2), not a capability one (exit 3)
    for mode in ("holdot", "Analytic", None):
        with pytest.raises(InputError, match=f"mode must be one of \\['analytic', 'holdout'\\], got {mode!r}"):
            true_risk(h, dist, mode=mode, n=10, seed=0)
    # an integral float size is the integer it names
    assert true_risk(h, dist, mode="holdout", n=2000.0, seed=0) == true_risk(h, dist, mode="holdout", n=2000, seed=0)


def test_analytic_mode_rejected_when_unavailable():
    dist = MarginSeparable(dim=2, gap=0.1)
    with pytest.raises(CapabilityError):
        true_risk(LinearHypothesis(np.array([1.0, 0.0])), dist, mode="analytic")


def test_sample_json_round_trip_and_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    dist = TwoGaussianMixture(dim=2)
    s = generate(dist, 5, seed=1)
    data = json.loads(json.dumps(s.to_json()))
    back = LabeledSample.from_json(data)
    assert np.allclose(back.points, s.points)
    assert np.array_equal(back.labels, s.labels)
    schema = json.loads(
        (Path(__file__).parent.parent / "src/relmargin/schemas/sample.v1.json").read_text()
    )
    jsonschema.validate(data, schema)


def test_make_distribution_rejects_unknown():
    with pytest.raises(InputError, match="distribution.kind must be one of"):
        make_distribution({"kind": "mystery"})
    with pytest.raises(InputError, match=r"unknown distribution keys \['bogus'\]"):
        make_distribution({"kind": "two-gaussian-mixture", "bogus": 1})
    with pytest.raises(InputError, match=r"unknown distribution keys \['separation'\]"):
        make_distribution({"kind": "margin-separable-with-noise", "separation": 1.0})
    with pytest.raises(InputError, match="distribution.dim must be an integer >= 0, got 3.0"):
        make_distribution({"kind": "two-gaussian-mixture", "dim": 3.0})
    with pytest.raises(InputError, match="distribution.noise_rate must be a number, got '0.1'"):
        make_distribution({"kind": "margin-separable-with-noise", "noise_rate": "0.1"})
    with pytest.raises(InputError, match="distribution.gap = 10.0 lets the sampler accept at most"):
        make_distribution({"kind": "margin-separable-with-noise", "gap": 10.0})
    assert make_distribution({"kind": "two-gaussian-mixture", "dim": 3}) == TwoGaussianMixture(dim=3)


def test_clip_to_ball_is_the_unskipped_formula():
    from relmargin.samples import _clip_to_ball

    from oracles import clip_to_ball_oracle

    r = 0.1 + 0.2
    up = np.nextafter(r, np.inf)
    blocks = [
        (np.array([[3.0, 4.0], [-3.0, 4.0], [0.5, 0.5]]), 5.0),  # rows exactly at the radius
        (np.array([[3.0, 4.0], [0.5, 0.5]]), np.nextafter(5.0, 0.0)),  # one ulp above it
        (np.array([[r], [-r], [0.1]]), r),  # dim 1, at the radius
        (np.array([[up], [-up], [0.1]]), r),  # dim 1, one ulp above it
        (np.zeros((5, 3)), 1.0),
        (np.zeros((5, 3)), 1e-300),
        (np.full((4, 4), 0.5), 1.0),  # every norm exactly 1.0, and the bound 1.0 too
    ]
    rng = np.random.default_rng(3)
    for dim in (1, 2, 4):
        for scale in (0.01, 1.0, 100.0):
            blocks.append((rng.standard_normal((50, dim)) * scale, 3.0))
    for x, radius in blocks:
        want = clip_to_ball_oracle(x, radius)
        got = _clip_to_ball(x.copy(), radius)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    z = np.zeros((5, 3))
    assert _clip_to_ball(z, 1.0) is z


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_two_gaussian_sample_is_the_original_draw(dim):
    from relmargin.rng import substream

    from oracles import two_gaussian_sample_oracle

    for dist in (TwoGaussianMixture(dim=dim), TwoGaussianMixture(dim=dim, separation=2.0, sigma=0.5, radius=1.5)):
        for seed in range(4):
            for m in (1, 2, 7, 200, 201):
                a, b = substream(seed, "trial", m), substream(seed, "trial", m)
                x, y = dist.sample(m, a)
                x0, y0 = two_gaussian_sample_oracle(dist, m, b)
                assert np.array_equal(x, x0) and np.array_equal(y, y0)
                # the state holds small uint64 arrays, which repr in full
                assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


@pytest.mark.parametrize("dim,radius,m", [(1, 3.1, 40), (4, 3.5, 5)])
def test_two_gaussian_sample_many_is_the_per_stream_draw(dim, radius, m):
    from relmargin.rng import substream, substreams

    from oracles import two_gaussian_sample_oracle

    # at this radius some of the 40 trials clip a point and the others do
    # not: in dim 1 they pass the skip test, in dim 4 some pass it and the
    # rest scale every point by exactly 1.0
    for dist in (TwoGaussianMixture(dim=dim), TwoGaussianMixture(dim=dim, radius=radius)):
        for seed, m_, n in ((0, m, 40), (5, 1, 3), (9, 7, 1)):
            x, y = dist.sample_many(m_, substreams(seed, "trial", indices=range(3, 3 + n)))
            assert x.shape == (n, m_, dim) and y.shape == (n, m_)
            clipped = 0
            for b in range(n):
                x0, y0 = two_gaussian_sample_oracle(dist, m_, substream(seed, "trial", 3 + b))
                assert np.array_equal(x[b], x0) and np.array_equal(y[b], y0)
                clipped += bool(np.any(np.linalg.norm(x0, axis=1) > radius * (1 - 1e-12)))
            if dist.radius == radius and n == 40:
                assert 5 <= clipped <= 35


@pytest.mark.parametrize("m", [1, 3, 199, 200, 201, 4097, 5001])
def test_block_labels_from_raw_words_are_the_integers_draw(m):
    # an odd m leaves the high half of the last label word unused, and the
    # normals after it must still start on the next word
    from relmargin.rng import substream, substreams

    from oracles import two_gaussian_sample_oracle

    dist = TwoGaussianMixture(dim=2)
    x, y = dist.sample_many(m, substreams(11, "trial", indices=range(2, 5)))
    for b in range(3):
        x0, y0 = two_gaussian_sample_oracle(dist, m, substream(11, "trial", 2 + b))
        assert np.array_equal(y[b], y0) and np.array_equal(x[b], x0)


class _IntegersSpy:
    """A generator that records its ``integers`` calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    @property
    def bit_generator(self):
        return self.gen.bit_generator

    def integers(self, *args, **kwargs):
        self.calls += 1
        return self.gen.integers(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        return self.gen.standard_normal(*args, **kwargs)


def test_sample_many_outside_a_substreams_block_calls_integers_only_for_a_buffered_half():
    from relmargin.rng import substream

    from oracles import two_gaussian_sample_oracle

    dist = TwoGaussianMixture(dim=3)
    # a generator holding a buffered half word serves it as its first label,
    # which its raw words would not give; the others decode their raw words
    gens, twins = [substream(2, "trial", t) for t in range(4)], [substream(2, "trial", t) for t in range(4)]
    for gen in (gens[1], twins[1], gens[3], twins[3]):
        gen.integers(0, 2, size=1)
    assert gens[1].bit_generator.state["has_uint32"] == 1
    spies = [_IntegersSpy(gen) for gen in gens]
    x, y = dist.sample_many(9, tuple(spies))
    assert [spy.calls for spy in spies] == [0, 1, 0, 1]
    for b, twin in enumerate(twins):
        x0, y0 = two_gaussian_sample_oracle(dist, 9, twin)
        assert np.array_equal(y[b], y0) and np.array_equal(x[b], x0)
        assert repr(gens[b].bit_generator.state) == repr(twin.bit_generator.state)


def test_margin_separable_sample_many_stacks_its_samples():
    from relmargin.rng import substream, substreams

    for dist in (MarginSeparable(dim=3, noise_rate=0.2), MarginSeparable(dim=1, gap=1.0, radius=1.5)):
        x, y = dist.sample_many(30, substreams(4, "trial", indices=range(6)))
        assert x.shape == (6, 30, dist.dim) and y.shape == (6, 30)
        for t in range(6):
            x0, y0 = dist.sample(30, substream(4, "trial", t))
            assert np.array_equal(x[t], x0) and np.array_equal(y[t], y0)


def test_margin_separable_first_pass_is_the_original_draw():
    from relmargin.rng import substream

    from oracles import margin_separable_sample_oracle

    dists = (MarginSeparable(), MarginSeparable(dim=4, gap=0.5, noise_rate=0.1), MarginSeparable(dim=1, radius=0.6))
    for dist in dists:
        for seed in range(4):
            for m in (1, 7, 200):
                a, b = substream(seed, "sample", m), substream(seed, "sample", m)
                x, y = dist.sample(m, a)
                x0, y0 = margin_separable_sample_oracle(dist, m, b)
                assert np.array_equal(x, x0) and np.array_equal(y, y0)
                assert repr(a.bit_generator.state) == repr(b.bit_generator.state)


def test_margin_separable_near_the_gap_floor_is_quick():
    import time

    start = time.perf_counter()
    sample = generate(make_distribution({"kind": "margin-separable-with-noise", "gap": 4.8}), 10, 1)
    assert time.perf_counter() - start < 1.0
    assert sample.m == 10 and np.all(np.abs(sample.points[:, 0]) >= 4.8)
