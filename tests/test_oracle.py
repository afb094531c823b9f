"""Brute-force oracle: exactness, shift reduction, components, budget."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ugspectral.core import AbortError, UGError, shift_image, value
from ugspectral.generators import PlantedSpec, planted_instance, perturb
from ugspectral.maxlin import MaxLinInstance
from ugspectral.oracle import BudgetExceededError, brute_force

from conftest import complete_skeleton, from_rows, random_instance


def exhaustive_best(inst):
    """Independent oracle: direct scan of all k^n labelings."""
    best, best_lab = -1.0, None
    for lab in itertools.product(range(inst.k), repeat=inst.n):
        v = value(inst, lab)
        if v > best:
            best, best_lab = v, lab
    return best, best_lab


class TestExactness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_exhaustive_scan(self, seed):
        inst = random_instance(5, 3, p=0.7, seed=seed)
        res = brute_force(inst)
        best, best_lab = exhaustive_best(inst)
        # scalar and batched evaluation may differ in summation order
        assert res.best_value == pytest.approx(best, abs=1e-12)
        assert value(inst, res.best_labeling) == pytest.approx(best, abs=1e-12)

    def test_lexicographic_tie_break(self):
        # two disconnected vertices, no constraints between labels 0/1:
        # a single always-satisfied identity edge makes every labeling optimal
        inst = from_rows(2, 2, [(0, 1, 1.0, (0, 1)), (0, 1, 1.0, (1, 0))])
        res = brute_force(inst)
        # value 0.5 for all labelings; smallest in enumeration order wins
        assert res.best_labeling.tolist() == [0, 0]

    def test_perfect_instance_early_exit(self):
        # planted all-zeros sits in the first enumeration chunk, so the
        # perfect hit stops the scan before the later chunks
        inst, planted = planted_instance(
            PlantedSpec(8, 3, complete_skeleton(8), [0] * 8, seed=1)
        )
        res = brute_force(inst)
        assert res.best_value == 1.0
        assert value(inst, res.best_labeling) == 1.0
        assert res.labelings_examined <= 4096 < 3**8


class TestShiftReduction:
    def test_shift_reduced_agrees_with_full(self):
        rng = np.random.default_rng(5)
        inst, planted = planted_instance(
            PlantedSpec(6, 3, complete_skeleton(6), rng.integers(0, 3, 6), "maxlin", 5)
        )
        pert = perturb(inst, planted, 0.3, seed=6, constraint_family="maxlin")
        reduced = brute_force(pert)  # a cyclic shift game
        assert reduced.shift_reduced
        assert reduced.best_labeling[0] == 0
        full, _ = exhaustive_best(pert)
        assert reduced.best_value == full
        assert reduced.labelings_examined <= 3**5

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_reduced_exactly_on_shift_games(self, data):
        """brute_force reduces an instance exactly when maxlin reads it as a
        difference game over Z_k, and on such games the reduced optimum is
        the full one.  Dyadic weights keep every satisfied-weight sum exact,
        so labelings of equal true value score equal."""
        n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
        cyclic = data.draw(st.booleans())
        image = (st.integers(0, k - 1).map(lambda c: shift_image(np.arange(k), c, k)) if cyclic
                 else st.permutations(range(k)))
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                         st.sampled_from([0.25, 0.5, 1.0]), image)
        inst = from_rows(n, k, data.draw(st.lists(edge, max_size=8)))
        try:
            MaxLinInstance.from_instance(inst)
            shift_game = True
        except UGError:
            shift_game = False
        res = brute_force(inst)
        assert res.shift_reduced == shift_game
        if shift_game:
            assert res.best_value == exhaustive_best(inst)[0]

    def test_non_shift_instance_not_reduced(self):
        inst = random_instance(4, 3, p=1.0, seed=2)
        res = brute_force(inst)
        assert not res.shift_reduced
        assert res.labelings_examined == 3**4


class TestComponents:
    def test_disconnected_solved_independently(self):
        # two components; optimum is the weight-average of per-component optima
        inst = from_rows(4, 2, [(0, 1, 1.0, (1, 0)), (2, 3, 1.0, (0, 1)), (2, 3, 1.0, (1, 0))])
        res = brute_force(inst)
        # component {0,1} fully satisfiable (weight 1); component {2,3} can
        # satisfy one of its two contradictory edges (weight 1 of 2)
        assert res.best_value == pytest.approx(2.0 / 3.0)
        best, _ = exhaustive_best(inst)
        assert res.best_value == best

    def test_satisfiable_components_score_exactly_one(self):
        """Three components of two parallel identity edges each, k = 2,
        arbitrary weights: the all-zero labeling satisfies every edge, so
        the optimum is exactly 1.0, never a reweighted sum above it."""
        rng = np.random.default_rng(0)
        identity = (0, 1)
        for _ in range(300):
            w = rng.uniform(0.1, 1.0, 6)
            rows = [(u, u + 1, wi, identity) for u, wi in zip((0, 0, 2, 2, 4, 4), w)]
            assert brute_force(from_rows(6, 2, rows)).best_value == 1.0

    def test_isolated_vertices_kept(self):
        inst = from_rows(3, 2, [(0, 1, 1.0, (0, 1))])
        res = brute_force(inst)
        assert res.best_value == 1.0
        assert len(res.best_labeling) == 3


class TestBudget:
    def test_budget_exceeded(self):
        inst = random_instance(10, 4, p=1.0, seed=0)
        with pytest.raises(BudgetExceededError):
            brute_force(inst, budget=1000)

    def test_shift_reduction_counts_against_budget(self):
        rng = np.random.default_rng(1)
        inst, _ = planted_instance(
            PlantedSpec(6, 3, complete_skeleton(6), rng.integers(0, 3, 6), "maxlin", 1)
        )
        # 3^5 = 243 reduced labelings fit a budget the full 3^6 would not
        res = brute_force(inst, budget=300)
        assert res.best_value == 1.0

    @pytest.mark.parametrize("budget", [-1, 0, 2.5])
    def test_budget_must_be_positive_int(self, budget):
        """A budget no enumeration can meet is a usage error, not an
        exceeded budget."""
        inst = random_instance(3, 2, p=1.0, seed=0)
        with pytest.raises(UGError, match="budget must be a positive integer") as exc:
            brute_force(inst, budget=budget)
        assert not isinstance(exc.value, AbortError)


def test_report_dict():
    inst = random_instance(4, 2, p=1.0, seed=3)
    d = brute_force(inst).to_dict()
    assert set(d) == {"best_value", "best_labeling", "labelings_examined",
                      "shift_reduced"}
