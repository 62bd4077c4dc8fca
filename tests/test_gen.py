import pytest

from statebound.gen import (
    GenerationError,
    GeneratorSpec,
    SplitMix64,
    disjoint_union,
    gen_clique,
    gen_lotus,
    gen_random,
    gen_star,
    generate,
)
from statebound.oracle import (
    exp_bound,
    recurrence_diameter_bruteforce,
    traversal_diameter,
)


class TestSplitMix64:
    def test_against_reference_steps(self):
        # independent re-implementation of the reference mixing routine
        def reference(seed, count):
            mask = (1 << 64) - 1
            out = []
            state = seed
            for _ in range(count):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                out.append((z ^ (z >> 31)) & mask)
            return out

        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(5)] == reference(42, 5)

    def test_below_range_and_determinism(self):
        rng = SplitMix64(7)
        draws = [rng.below(10) for _ in range(1000)]
        assert all(0 <= d < 10 for d in draws)
        assert len(set(draws)) == 10
        replay = SplitMix64(7)
        assert draws == [replay.below(10) for _ in range(1000)]

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_sample_ids_distinct(self):
        rng = SplitMix64(3)
        sample = rng.sample_ids(8, 5)
        assert len(set(sample)) == 5
        assert all(0 <= x < 8 for x in sample)


class TestClique:
    def test_m2_matches_worked_example(self, clique2):
        assert gen_clique(2) == clique2
        assert diameter_rd(gen_clique(2)) == (1, 3)

    def test_m1(self):
        system = gen_clique(1)
        assert len(system.actions) == 2
        assert recurrence_diameter_bruteforce(system) == 1

    def test_m3_hamiltonian(self):
        system = gen_clique(3)
        assert recurrence_diameter_bruteforce(system) == 7 == exp_bound(system)

    def test_refuses_bad_sizes(self):
        with pytest.raises(GenerationError):
            gen_clique(0)
        with pytest.raises(GenerationError):
            gen_clique(25)


def diameter_rd(system):
    from statebound.oracle import diameter

    return diameter(system), recurrence_diameter_bruteforce(system)


class TestStar:
    def test_n3_matches_worked_example(self, star3):
        assert gen_star(3) == star3
        assert exp_bound(gen_star(3)) == 3
        assert traversal_diameter(gen_star(3)) == 1

    def test_n1(self):
        system = gen_star(1)
        assert len(system.actions) == 1
        assert recurrence_diameter_bruteforce(system) == 1
        assert traversal_diameter(system) == 1

    def test_n7_three_variables(self):
        system = gen_star(7)
        assert system.num_domain_vars == 3
        assert traversal_diameter(system) == 1
        assert recurrence_diameter_bruteforce(system) == 1
        from statebound.oracle import diameter

        assert diameter(system) == 1


class TestLotus:
    def test_n3_values(self):
        system = gen_lotus(3)
        assert recurrence_diameter_bruteforce(system) == 2
        assert traversal_diameter(system) == 3

    def test_n1(self):
        assert recurrence_diameter_bruteforce(gen_lotus(1)) == 1

    def test_family_invariants_up_to_63(self):
        for n in (2, 3, 5, 7, 12, 15, 31, 63):
            system = gen_lotus(n)
            assert recurrence_diameter_bruteforce(system) == 2, n
            assert traversal_diameter(system) == n, n

    def test_exponential_separation(self):
        for n in (3, 7, 15, 31):
            system = gen_lotus(n)
            assert traversal_diameter(system) >= 2 ** (system.num_domain_vars - 2)


class TestRandom:
    def test_deterministic(self):
        spec = GeneratorSpec("random", seed=1, num_vars=4, num_actions=6)
        assert gen_random(spec) == gen_random(spec)

    def test_zero_vars_rejected(self):
        with pytest.raises(GenerationError):
            gen_random(GeneratorSpec("random", num_vars=0))

    def test_effects_nonempty_by_default(self):
        system = gen_random(GeneratorSpec("random", seed=5, num_vars=5, num_actions=10))
        assert all(len(a.eff) >= 1 for a in system.actions)

    def test_retry_budget_exhaustion(self):
        # only 2 distinct single-variable effect actions exist with no pre
        spec = GeneratorSpec(
            "random", seed=1, num_vars=1, num_actions=5, max_pre=0, max_eff=1
        )
        with pytest.raises(GenerationError):
            gen_random(spec)

    def test_respects_size_knobs(self):
        spec = GeneratorSpec(
            "random", seed=9, num_vars=6, num_actions=8, max_pre=2, max_eff=1
        )
        system = gen_random(spec)
        assert len(system.actions) == 8
        assert all(len(a.pre) <= 2 and len(a.eff) == 1 for a in system.actions)


class TestGenerateDispatch:
    def test_families(self):
        assert generate(GeneratorSpec("clique", n=2)) == gen_clique(2)
        assert generate(GeneratorSpec("star", n=3)) == gen_star(3)
        assert generate(GeneratorSpec("lotus", n=3)) == gen_lotus(3)
        with pytest.raises(GenerationError):
            generate(GeneratorSpec("nope", n=1))


class TestDisjointUnion:
    def test_parts_stay_independent(self):
        union = disjoint_union([gen_lotus(3), gen_lotus(3)])
        assert len(union.variables) == 4
        assert len(union.actions) == 12
        # each part's actions only touch that part's variables
        for action in union.actions:
            mask = action.domain_mask
            assert mask & 0b0011 == mask or mask & 0b1100 == mask

    def test_names_prefixed(self):
        union = disjoint_union([gen_star(1), gen_star(1)])
        names = [v.name for v in union.variables]
        assert names == ["p1_v1", "p2_v1"]
