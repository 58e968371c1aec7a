"""Table-backed instances: the reductions, ``similarity_transform`` and
``truncate_at_state`` return instances that hold the packed table and the
row names, and build their ``actions`` tuples only when something reads
them.  Such an instance must behave exactly like its eager twin, built from
tuples with ``RateMdp(n, actions, labels)``."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from mdpreduce import (
    ActionData,
    GenSpec,
    RateMdp,
    Stochastic,
    Substochastic,
    build_hv,
    build_hvag,
    check_ht,
    count_policies,
    emit_lp,
    enumerate_policies,
    gen_ht,
    gen_transient,
    maximize_lifetime,
    similarity_transform,
    solve_average_cost,
    solve_total_cost,
    truncate_at_state,
)
from mdpreduce.model import from_packed
from conftest import build_mdp


def built(mdp):
    """Whether the instance holds its ``actions`` tuples."""
    return "actions" in vars(mdp)


def named(mdp):
    """``mdp`` with state labels and a name on every other action."""
    actions = tuple(
        tuple(
            dataclasses.replace(act, name=f"go{x}.{a}" if a % 2 else None)
            for a, act in enumerate(acts)
        )
        for x, acts in enumerate(mdp.actions)
    )
    return RateMdp(mdp.n_states, actions, [f"s{x}" for x in range(mdp.n_states)])


def total_instance():
    rates = Substochastic((0.2, 0.4))
    spec = GenSpec(n_states=7, max_actions=3, density=0.6, rate_class=rates, seed=3)
    return named(gen_transient(spec))


def average_instance():
    spec = GenSpec(n_states=7, max_actions=3, density=0.6, rate_class=Stochastic(), seed=4)
    return named(gen_ht(spec, 0, alpha=0.2))


REDUCTIONS = {
    "hv": lambda: build_hv(total_instance(), maximize_lifetime(total_instance())).base,
    "hvag": lambda: build_hvag(average_instance(), check_ht(average_instance(), 0)).base,
    "similarity": lambda: similarity_transform(total_instance(), np.linspace(0.5, 3.0, 7)),
    "truncation": lambda: truncate_at_state(average_instance(), 2),
}


@pytest.fixture(params=sorted(REDUCTIONS))
def pair(request):
    """A fresh table-backed instance and the eager twin of a second one."""
    make = REDUCTIONS[request.param]
    lazy, other = make(), make()
    assert not built(lazy) and not built(other)
    return lazy, RateMdp(other.n_states, other.actions, other.state_labels)


class TestLazyView:
    def test_tuples_encode_the_table(self, pair):
        lazy, twin = pair
        table, packed = lazy.packed, twin.packed
        assert np.array_equal(table.c, packed.c)
        assert np.array_equal(table.first, packed.first)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(table.R, part), getattr(packed.R, part))

    def test_equals_hashes_and_prints_like_the_twin(self, pair):
        lazy, twin = pair
        assert lazy == twin and twin == lazy
        assert hash(lazy) == hash(twin)
        assert repr(lazy) == repr(twin)
        assert built(lazy)

    def test_names_and_sizes_without_the_tuples(self, pair):
        lazy, twin = pair
        assert lazy.n_state_actions == twin.n_state_actions
        assert [lazy.n_actions(x) for x in range(lazy.n_states)] == [
            twin.n_actions(x) for x in range(twin.n_states)
        ]
        assert lazy.row_names() == twin.row_names()
        pairs = [(x, a) for x in range(lazy.n_states) for a in range(lazy.n_actions(x))]
        names = [lazy.action_name(x, a) for x, a in pairs]
        assert names == [twin.action_name(x, a) for x, a in pairs]
        assert not built(lazy)

    def test_counts_policies_without_the_tuples(self, pair):
        lazy, twin = pair
        assert count_policies(lazy) == count_policies(twin)
        assert list(enumerate_policies(lazy)) == list(enumerate_policies(twin))
        assert not built(lazy)

    @pytest.mark.parametrize(
        "clone",
        [
            lambda mdp: pickle.loads(pickle.dumps(mdp)),
            copy.deepcopy,
            copy.copy,
            dataclasses.replace,
        ],
        ids=["pickle", "deepcopy", "copy", "replace"],
    )
    def test_survives_copies(self, pair, clone):
        lazy, twin = pair
        again = clone(lazy)
        assert again == twin and hash(again) == hash(twin)
        assert again.packed.R.nnz == twin.packed.R.nnz

    def test_replace_can_change_a_field(self, pair):
        lazy, twin = pair
        labels = [f"t{x}" for x in range(lazy.n_states)]
        assert dataclasses.replace(lazy, state_labels=labels) == RateMdp(
            twin.n_states, twin.actions, labels
        )

    def test_missing_attributes_still_raise(self, pair):
        lazy, _ = pair
        with pytest.raises(AttributeError):
            lazy.no_such_field
        assert not built(lazy)


class TestPipelinesLeaveTuplesUnbuilt:
    @pytest.mark.parametrize("method", ["vi", "howard", "dantzig"])
    def test_total_cost(self, method):
        sol = solve_total_cost(total_instance(), method=method)
        assert not built(sol.discounted.base)

    @pytest.mark.parametrize("method", ["vi", "howard", "dantzig"])
    def test_average_cost(self, method):
        sol = solve_average_cost(average_instance(), ell=0, method=method)
        assert not built(sol.discounted.base)

    def test_emit_lp(self):
        dmdp = build_hv(total_instance(), maximize_lifetime(total_instance()))
        text = emit_lp(dmdp)
        assert not built(dmdp.base)
        eager = RateMdp(dmdp.base.n_states, dmdp.base.actions, dmdp.base.state_labels)
        assert emit_lp(dataclasses.replace(dmdp, base=eager)) == text


class TestArrayTransforms:
    def test_similarity_matches_the_per_transition_formula(self):
        mdp = total_instance()
        b = np.random.default_rng(5).uniform(0.1, 10.0, size=mdp.n_states)
        expected = RateMdp(
            mdp.n_states,
            tuple(
                tuple(
                    ActionData(
                        cost=b[x] * act.cost,
                        transitions=tuple((y, b[x] * r / b[y]) for y, r in act.transitions),
                        name=act.name,
                    )
                    for act in acts
                )
                for x, acts in enumerate(mdp.actions)
            ),
            mdp.state_labels,
        )
        assert similarity_transform(mdp, b) == expected

    def test_similarity_rejects_a_non_finite_rate(self):
        mdp = build_mdp([[(1.0, [(1, 0.5)])], [(1.0, [])]])
        with pytest.raises(ValueError, match=r"non-finite rate at \(0, a0, 1\)"):
            similarity_transform(mdp, [1e300, 1e-300])

    def test_similarity_rejects_a_non_finite_cost(self):
        mdp = build_mdp([[(1e10, [])], [(1.0, [(0, 0.5)])]])
        with pytest.raises(ValueError, match=r"non-finite cost at \(0, a0\)"):
            similarity_transform(mdp, [1e300, 1.0])

    def test_truncation_keeps_zero_rates_and_drops_only_ell(self):
        mdp = build_mdp(
            [
                [(1.0, [(2, 0.0), (1, 0.5), (0, 0.25)]), (2.0, [(1, 0.5)])],
                [(0.0, [(0, 0.0), (2, 0.5)])],
                [(3.0, [])],
            ]
        )
        cut = truncate_at_state(mdp, 1)
        assert [[act.transitions for act in acts] for acts in cut.actions] == [
            [((2, 0.0), (0, 0.25)), ()],
            [((0, 0.0), (2, 0.5))],
            [()],
        ]

    def test_from_packed_copies_the_names_and_labels(self):
        mdp = total_instance()
        again = from_packed(mdp.packed, list(mdp.row_names()), list(mdp.state_labels))
        assert again == mdp and again.state_labels == mdp.state_labels
