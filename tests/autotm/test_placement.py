"""Tests for the AutoTM placement problem, ILP, and greedy solvers."""

import dataclasses
import pickle

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from repro.autotm import (
    PlacementMode,
    PlacementProblem,
    solve_greedy,
    solve_ilp,
)
from repro.autotm import ilp as ilp_module
from repro.autotm.model import MODE_INDEX
from repro.config import default_platform
from repro.errors import ConfigurationError, InvariantError, SolverError
from repro.experiments.autotm_common import AUTOTM_BUDGET_FRACTION
from repro.experiments.platform import cnn_platform_for, training_setup
from repro.nn import build_training_graph
from repro.nn.ops import GraphBuilder
from repro.units import MiB


@pytest.fixture(scope="module")
def platform():
    return default_platform(4096)


def training_graph(layers=4, channels=8, size=32):
    b = GraphBuilder("t", batch=1, weight_scale=1024)
    x = b.input(3, size, size)
    for _ in range(layers):
        x = b.conv_bn_relu(x, channels, kernel=3)
    y = b.matmul(x, 10)
    b.softmax_loss(y)
    return build_training_graph(b.graph)


def build_problem(platform, budget_fraction, **kwargs):
    training = training_graph()
    budget = int(platform.socket.dram_capacity * budget_fraction)
    return PlacementProblem.build(training, platform, budget, **kwargs)


class TestProblemConstruction:
    def test_candidates_have_costs(self, platform):
        problem = build_problem(platform, 1.0)
        assert problem.candidates
        for candidate in problem.candidates:
            assert candidate.nvram_cost > 0

    def test_stash_eligibility_requires_forward_to_backward_gap(self, platform):
        problem = build_problem(platform, 1.0, min_stash_gap=4)
        eligible = [c for c in problem.candidates if c.stash_eligible]
        assert eligible, "saved activations should be stash-eligible"
        for candidate in eligible:
            assert candidate.last_forward_use < candidate.first_backward_use

    def test_small_tensors_pinned(self, platform):
        generous = build_problem(platform, 1.0, min_candidate_bytes=1)
        filtered = build_problem(platform, 1.0, min_candidate_bytes=MiB)
        assert len(filtered.candidates) < len(generous.candidates)
        assert filtered.pinned_bytes > generous.pinned_bytes

    def test_checkpoints_cover_schedule(self, platform):
        problem = build_problem(platform, 1.0, capacity_stride=7)
        points = problem.capacity_checkpoints()
        assert points[0] == 0
        assert points[-1] == problem.num_ops - 1

    def test_rejects_zero_budget(self, platform):
        training = training_graph()
        with pytest.raises(ConfigurationError):
            PlacementProblem.build(training, platform, 0)


class TestSolvers:
    @pytest.mark.parametrize("solve", [solve_ilp, solve_greedy])
    def test_all_dram_when_budget_ample(self, platform, solve):
        problem = build_problem(platform, 100.0)
        plan = solve(problem)
        assert plan.count(PlacementMode.DRAM) == len(problem.candidates)
        assert plan.objective_seconds == pytest.approx(0.0)

    @pytest.mark.parametrize("solve", [solve_ilp, solve_greedy])
    def test_tight_budget_demotes_and_stays_feasible(self, platform, solve):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        plan = solve(problem)
        assert problem.is_feasible(plan)
        demoted = plan.count(PlacementMode.NVRAM) + plan.count(PlacementMode.STASH)
        assert demoted > 0

    def test_ilp_no_worse_than_greedy(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        ilp = solve_ilp(problem)
        greedy = solve_greedy(problem)
        assert ilp.objective_seconds <= greedy.objective_seconds + 1e-9

    def test_stash_preferred_for_long_gaps(self, platform):
        # Budget tight enough to demote, loose enough that stash
        # endpoints still fit: stashing beats full NVRAM residency.
        problem = build_problem(platform, 0.003, capacity_stride=1)
        plan = solve_ilp(problem)
        assert plan.count(PlacementMode.STASH) > 0

    def test_solver_name_recorded(self, platform):
        problem = build_problem(platform, 1.0)
        assert solve_ilp(problem).solver == "ilp"
        assert solve_greedy(problem).solver == "greedy"

    def test_evaluate_matches_objective(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        plan = solve_ilp(problem)
        assert problem.evaluate(plan) == pytest.approx(plan.objective_seconds, rel=1e-6)

    def test_ilp_records_a_closed_gap(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        plan = solve_ilp(problem)
        assert plan.mip_gap <= ilp_module.MIP_REL_GAP
        # At a zero gap HiGHS's dual bound can sit one rounding step
        # above the objective it sums in another order.
        assert plan.mip_dual_bound <= plan.objective_seconds * (1 + 1e-12)
        assert isinstance(plan.mip_node_count, int)
        greedy = solve_greedy(problem)
        assert greedy.mip_gap is greedy.mip_dual_bound is greedy.mip_node_count is None

    def test_solution_record_is_plain_data_that_decodes_to_the_plan(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        solution = ilp_module.ilp_solution(problem)
        # A rebuilt problem names other Tensor objects: the record still
        # decodes to the same placement per tensor name.
        rebuilt = build_problem(platform, 0.0004, capacity_stride=1)
        plan = ilp_module.decode(rebuilt, pickle.loads(pickle.dumps(solution)))
        direct = solve_ilp(problem)
        assert {t.name: p.mode for t, p in plan.placements.items()} == {
            t.name: p.mode for t, p in direct.placements.items()
        }
        assert (plan.objective_seconds, plan.mip_gap, plan.mip_node_count) == (
            direct.objective_seconds, direct.mip_gap, direct.mip_node_count
        )

    def test_decode_raises_on_an_unsuccessful_solution(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        # At its time limit HiGHS can return an incumbent it did not prove.
        timed_out = dataclasses.replace(
            ilp_module.ilp_solution(problem), success=False, message="Time limit reached"
        )
        with pytest.raises(SolverError, match="Time limit reached"):
            ilp_module.decode(problem, timed_out)
        no_solution = dataclasses.replace(timed_out, x=None, fun=None)
        with pytest.raises(SolverError, match="Time limit reached"):
            ilp_module.decode(problem, no_solution)

    def test_decode_refuses_a_solution_for_another_problem(self, platform):
        solution = ilp_module.ilp_solution(build_problem(platform, 0.0004, capacity_stride=1))
        other = build_problem(platform, 0.0004, min_candidate_bytes=1)
        with pytest.raises(InvariantError, match="variables"):
            ilp_module.decode(other, solution)

    def test_stash_placement_records_boundaries(self, platform):
        problem = build_problem(platform, 0.0004, capacity_stride=1)
        plan = solve_ilp(problem)
        for placement in plan.placements.values():
            if placement.mode is PlacementMode.STASH:
                assert placement.stash_after is not None
                assert placement.restore_before is not None
                assert placement.stash_after < placement.restore_before


class TestOccupancy:
    def test_stash_frees_dram_across_gap(self, platform):
        problem = build_problem(platform, 1.0, min_stash_gap=2)
        candidate = next(c for c in problem.candidates if c.stash_eligible)
        middle = (candidate.last_forward_use + candidate.first_backward_use) // 2
        assert problem.occupies_dram(candidate, PlacementMode.DRAM, middle)
        assert not problem.occupies_dram(candidate, PlacementMode.STASH, middle)
        assert problem.occupies_dram(
            candidate, PlacementMode.STASH, candidate.last_forward_use
        )

    def test_nvram_never_occupies(self, platform):
        problem = build_problem(platform, 1.0)
        candidate = problem.candidates[0]
        for point in problem.capacity_checkpoints():
            assert not problem.occupies_dram(candidate, PlacementMode.NVRAM, point)

    def test_dead_tensor_never_occupies(self, platform):
        problem = build_problem(platform, 1.0)
        candidate = problem.candidates[0]
        after_death = candidate.life.end + 1
        if after_death < problem.num_ops:
            assert not problem.occupies_dram(
                candidate, PlacementMode.DRAM, after_death
            )

    @pytest.mark.parametrize("network", ["densenet264", "resnet200", "inception_v4"])
    def test_matrix_equals_the_scalar_oracle(self, network):
        platform = cnn_platform_for(True)
        training, _ = training_setup(network, True)
        budget = int(platform.socket.dram_capacity * AUTOTM_BUDGET_FRACTION)
        problem = PlacementProblem.build(training, platform, budget, capacity_stride=4)
        occupancy = problem.dram_occupancy()
        points = problem.capacity_checkpoints()
        assert occupancy.shape == (len(PlacementMode), len(points), len(problem.candidates))
        for column, candidate in enumerate(problem.candidates):
            for mode in PlacementMode:
                if mode is PlacementMode.STASH and not candidate.stash_eligible:
                    assert not occupancy[MODE_INDEX[mode], :, column].any()
                    continue
                expected = [problem.occupies_dram(candidate, mode, p) for p in points]
                assert occupancy[MODE_INDEX[mode], :, column].tolist() == expected

    def test_feasibility_rejects_stashing_an_ineligible_tensor(self, platform):
        problem = build_problem(platform, 1.0)
        plan = solve_greedy(problem)
        candidate = next(c for c in problem.candidates if not c.stash_eligible)
        plan.placements[candidate.tensor] = problem.placement_for(
            candidate, PlacementMode.STASH
        )
        with pytest.raises(ConfigurationError):
            problem.is_feasible(plan)


def loop_capacity_rows(problem):
    """The capacity matrix as a per-(checkpoint, variable) scalar loop builds it."""
    variables = ilp_module._variables(problem)
    checkpoints = problem.capacity_checkpoints()
    rows, cols, vals = [], [], []
    for i, point in enumerate(checkpoints):
        for j, (candidate, mode) in enumerate(variables):
            if problem.occupies_dram(candidate, mode, point):
                rows.append(i)
                cols.append(j)
                vals.append(float(candidate.tensor.size_bytes))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(len(checkpoints), len(variables)))


@pytest.mark.parametrize(
    "budget_fraction, stride", [(0.0004, 1), (0.003, 1), (0.0004, 7), (1.0, 8)]
)
def test_ilp_capacity_rows_equal_the_scalar_loop(platform, monkeypatch, budget_fraction, stride):
    problem = build_problem(platform, budget_fraction, capacity_stride=stride)
    models = []
    real_milp = scipy.optimize.milp

    def recording_milp(**kwargs):
        models.append(kwargs)
        return real_milp(**kwargs)

    # ilp_solution imports milp from scipy.optimize at each call.
    monkeypatch.setattr(scipy.optimize, "milp", recording_milp)
    solve_ilp(problem)
    (model,) = models
    _, capacity = model["constraints"]
    expected = loop_capacity_rows(problem)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(capacity.A, name), getattr(expected, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert model["options"] == {
        "time_limit": ilp_module.TIME_LIMIT_S,
        "mip_rel_gap": ilp_module.MIP_REL_GAP,
        "presolve": ilp_module.PRESOLVE,
    }
