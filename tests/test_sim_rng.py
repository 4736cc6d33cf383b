"""Tests for seeded random streams."""

from repro.sim import StreamRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_distinct_names_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_distinct_masters_distinct_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRegistry:
    def test_same_name_returns_same_stream(self):
        registry = StreamRegistry(0)
        assert registry.stream("x") is registry.stream("x")

    def test_streams_are_reproducible_across_registries(self):
        a = StreamRegistry(9).stream("s")
        b = StreamRegistry(9).stream("s")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_adding_stream_does_not_perturb_existing(self):
        registry1 = StreamRegistry(5)
        s1 = registry1.stream("alpha")
        first = s1.random()

        registry2 = StreamRegistry(5)
        registry2.stream("beta")  # extra consumer, created first
        s2 = registry2.stream("alpha")
        assert s2.random() == first

    def test_contains_and_names(self):
        registry = StreamRegistry(0)
        registry.stream("b")
        registry.stream("a")
        assert "a" in registry
        assert "c" not in registry
        assert list(registry.names()) == ["a", "b"]


class TestRandomStream:
    def test_bernoulli_extremes(self):
        stream = StreamRegistry(1).stream("bern")
        assert all(stream.bernoulli(1.0) for _ in range(50))
        assert not any(stream.bernoulli(0.0) for _ in range(50))

    def test_bernoulli_rate_roughly_matches(self):
        stream = StreamRegistry(1).stream("bern2")
        hits = sum(stream.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_uniform_within_bounds(self):
        stream = StreamRegistry(2).stream("u")
        for _ in range(100):
            assert 3.0 <= stream.uniform(3.0, 7.0) <= 7.0

    def test_choice_and_sample(self):
        stream = StreamRegistry(3).stream("c")
        population = list(range(10))
        assert stream.choice(population) in population
        sample = stream.sample(population, 4)
        assert len(sample) == 4
        assert len(set(sample)) == 4
