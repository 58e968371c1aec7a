import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from mdpreduce import (
    ActionData,
    GenSpec,
    InstanceFormatError,
    PackedMdp,
    PolicyCapExceeded,
    RateClass,
    RateMdp,
    StationaryPolicy,
    Stochastic,
    Substochastic,
    build_hv,
    build_hvag,
    certificate_residual,
    check_ht,
    classify_rates,
    count_policies,
    dumps_instance,
    enumerate_policies,
    gen_ht,
    gen_transient,
    loads_instance,
    maximize_lifetime,
    solve_total_cost,
    truncate_at_state,
    validate,
)
from conftest import build_mdp, instance_fields


class TestValidate:
    def test_single_substochastic_action(self, mk):
        report = validate(mk([[(1.0, [(0, 0.5)])]]))
        assert report.ok
        assert report.max_row_sum == 0.5
        assert report.rate_class is RateClass.SUBSTOCHASTIC

    def test_negative_rate_reported_with_location(self, mk):
        with pytest.raises(ValueError) as info:
            mk([[(1.0, [(0, -0.1)])]])
        assert str(info.value) == "negative rate at (0, a0, 0)"

    def test_stochastic_two_state(self, mk):
        report = validate(mk([[(0.0, [(0, 0.6), (1, 0.4)])], [(0.0, [(1, 1.0)])]]))
        assert report.ok
        assert report.rate_class is RateClass.STOCHASTIC
        assert report.max_row_sum == pytest.approx(1.0, abs=1e-15)

    def test_empty_action_set(self):
        with pytest.raises(ValueError) as info:
            RateMdp(2, ((ActionData(0.0),), ()))
        assert str(info.value) == "state 1 has no actions"

    def test_out_of_range_target(self, mk):
        with pytest.raises(ValueError) as info:
            mk([[(0.0, [(3, 0.5)])]])
        assert str(info.value) == "transition target 3 out of range at (0, a0)"

    def test_duplicate_target_rejected_not_summed(self, mk):
        with pytest.raises(ValueError) as info:
            mk([[(0.0, [(0, 0.25), (0, 0.25)])]])
        assert str(info.value) == "duplicate transition target at (0, a0, 0)"

    def test_non_finite_cost(self, mk):
        with pytest.raises(ValueError) as info:
            mk([[(float("nan"), [])]])
        assert str(info.value) == "non-finite cost at (0, a0)"

    def test_named_action_in_location(self):
        with pytest.raises(ValueError) as info:
            RateMdp(1, ((ActionData(0.0, ((0, -1.0),), name="stay"),),))
        assert str(info.value) == "negative rate at (0, stay, 0)"


class TestClassifyRates:
    def test_all_rows_exactly_one(self, mk):
        mdp = mk([[(0.0, [(0, 1.0)])], [(0.0, [(0, 0.5), (1, 0.5)])]])
        assert classify_rates(mdp) is RateClass.STOCHASTIC

    def test_substochastic_mix(self, mk):
        mdp = mk([[(0.0, [(0, 0.5)])], [(0.0, [(0, 1.0)])]])
        assert classify_rates(mdp) is RateClass.SUBSTOCHASTIC

    def test_general_rates(self, mk):
        assert classify_rates(mk([[(0.0, [(0, 1.3)])]])) is RateClass.GENERAL_RATES

    def test_tolerance_is_absolute_1e12(self, mk):
        assert classify_rates(mk([[(0.0, [(0, 1.0 + 5e-13)])]])) is RateClass.STOCHASTIC
        assert classify_rates(mk([[(0.0, [(0, 1.0 + 5e-12)])]])) is RateClass.GENERAL_RATES


class TestPolicyMatrices:
    def test_single_state_read_off(self, mk):
        mdp = mk([[(1.0, [(0, 0.5)])]])
        P, c = mdp.packed.policy(StationaryPolicy((0,)))
        assert sparse.issparse(P) and P.format == "csr"
        assert P.toarray().tolist() == [[0.5]]
        assert c.tolist() == [1.0]

    def test_two_state_cycle(self, two_cycle):
        P, c = two_cycle.packed.policy(StationaryPolicy((0, 0)))
        assert sparse.issparse(P) and P.format == "csr"
        assert P.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert c.tolist() == [0.0, 2.0]

    def test_out_of_range_action_index(self, mk):
        mdp = mk([[(0.0, []), (1.0, [])]])
        with pytest.raises(ValueError, match="action index 3 out of range"):
            mdp.packed.policy(StationaryPolicy((3,)))

    def test_stochastic_rows_stay_stochastic(self, mk):
        mdp = mk(
            [
                [(0.0, [(0, 0.3), (1, 0.7)]), (0.0, [(1, 1.0)])],
                [(0.0, [(0, 1.0)])],
            ]
        )
        assert classify_rates(mdp) is RateClass.STOCHASTIC
        for phi in enumerate_policies(mdp):
            sums = mdp.packed.policy(phi)[0].toarray().sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)


class TestPackedTable:
    def test_rows_are_state_major_and_keep_transition_order(self, mk):
        mdp = mk(
            [
                [(1.0, [(2, 0.1), (0, 0.2)]), (2.0, [])],
                [(3.0, [(1, 0.3)])],
                [(4.0, [(0, 0.4), (2, 0.5), (1, 0.6)])],
            ]
        )
        table = mdp.packed
        assert table.c.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert table.first.tolist() == [0, 2, 3, 4]
        assert table.owner.tolist() == [0, 0, 1, 2]
        assert table.local.tolist() == [0, 1, 0, 0]
        assert table.R.indices.tolist() == [2, 0, 1, 0, 2, 1]
        assert table.R.data.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        assert mdp.packed is table

    @pytest.mark.parametrize(
        "mdp",
        # the fields of an invalid instance, and the first violation it names
        [
            (instance_fields([[(1.0, [(0, -0.5)])]]), "negative rate at (0, a0, 0)"),
            (instance_fields([[(float("nan"), [])]]), "non-finite cost at (0, a0)"),
            (instance_fields([[(0.0, [(0, float("inf"))])]]), "non-finite rate at (0, a0, 0)"),
            (instance_fields([[(0.0, [(3, 0.5)])]]), "transition target 3 out of range at (0, a0)"),
            (
                instance_fields([[(0.0, [(0, 0.25), (1, 0.1), (0, 0.25)])], [(0.0, [])]]),
                "duplicate transition target at (0, a0, 0)",
            ),
            (
                instance_fields([[(0.0, [])], [(0.0, [])]], labels=("a", "a")),
                "state labels are not unique",
            ),
            (dict(n_states=2, actions=((ActionData(0.0),), ())), "state 1 has no actions"),
            (dict(n_states=3, actions=((ActionData(0.0),),)), "actions lists 1 states, expected 3"),
            (
                dict(n_states=1, actions=((ActionData(0.0, ((0, -1.0),), name="stay"),),)),
                "negative rate at (0, stay, 0)",
            ),
            # bool is an int subclass, and the reader refuses "states": true too
            (dict(n_states=True, actions=((ActionData(1.0),),)), "n_states must be a positive integer, got True"),
        ],
    )
    def test_packing_raises_what_validate_reports(self, mdp):
        fields, message = mdp
        with pytest.raises(ValueError) as info:
            RateMdp(**fields)
        assert str(info.value) == message
        # dataclasses.replace constructs too, so it cannot make one either
        with pytest.raises(ValueError) as info:
            dataclasses.replace(build_mdp([[(0.0, [])]]), **fields)
        assert str(info.value) == message

    def test_maximize_lifetime_rejects_a_negative_rate(self, mk):
        # this used to return mu = [0.667], below the certificate's own mu >= 1
        with pytest.raises(ValueError, match=r"^negative rate at \(0, a0, 0\)$"):
            maximize_lifetime(mk([[(1.0, [(0, -0.5)])]]))

    def test_nan_cost_read_from_text_is_named(self):
        # this used to surface deep in the solve as "no action within 1e-08"
        text = json.dumps(
            {
                "states": 2,
                "actions": [
                    [{"cost": float("nan"), "transitions": [{"to": 1, "rate": 0.5}]}],
                    [{"cost": 1.0, "transitions": []}],
                ],
            }
        )
        with pytest.raises(ValueError, match=r"^non-finite cost at \(0, a0\)$"):
            solve_total_cost(loads_instance(text))

    def test_row_sums_add_left_to_right(self):
        # a pairwise or blocked sum differs in the last digit on most rows
        # this long, and transformed files print that digit
        rng = np.random.default_rng(3)
        rows = [
            (rng.random(k) * 10.0 ** rng.integers(-6, 6, k)).tolist()
            for k in rng.integers(0, 40, 300)
        ]
        mdp = RateMdp(
            40,
            (tuple(ActionData(0.0, tuple(enumerate(row))) for row in rows),)
            + ((ActionData(0.0),),) * 39,
        )
        expected = []
        for row in rows:
            total = 0.0
            for rate in row:
                total += rate
            expected.append(total)
        assert mdp.packed.row_sums()[: len(rows)].tolist() == expected

    def test_row_sums_match_a_python_loop_bit_for_bit(self):
        # signed data, as the surplus that hv sums: empty rows, -0.0,
        # cancelling magnitudes and rows longer than 128
        rng = np.random.default_rng(4)
        rows = [[], [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0, -1.0],
                [1e8, 1.0, -1e8], [1e-8, 1e8, -1e8, -1e-8], [0.1] * 300]
        for k in rng.integers(0, 401, 200):
            signs = rng.choice([-1.0, 1.0], k)
            rows.append((signs * rng.random(k) * 10.0 ** rng.integers(-8, 9, k)).tolist())
        lengths = [len(row) for row in rows]
        indptr = np.append(0, np.cumsum(lengths))
        data = np.array([q for row in rows for q in row])
        indices = np.zeros(len(data), dtype=np.intp)  # a row sum reads no target
        table = PackedMdp(np.zeros(len(rows)), np.arange(len(rows) + 1), indptr, indices, data)
        expected = []
        for row in rows:
            total = 0.0
            for q in row:
                total += q
            expected.append(total)
        expected = np.array(expected).tobytes()
        assert table.row_sums().tobytes() == expected
        assert table.row_sums(data.copy()).tobytes() == expected
        # np.add.reduceat sums in another order, and these rows tell them apart
        nonempty = np.flatnonzero(lengths)
        assert (np.add.reduceat(data, indptr[nonempty]) != table.row_sums()[nonempty]).any()


class TestEnumeratePolicies:
    def test_two_by_three(self, mk):
        mdp = mk([[(0.0, []), (0.0, [])], [(0.0, []), (0.0, []), (0.0, [])]])
        policies = list(enumerate_policies(mdp))
        assert len(policies) == 6
        assert policies[0] == StationaryPolicy((0, 0))
        assert policies[-1] == StationaryPolicy((1, 2))

    def test_single_policy(self, mk):
        mdp = mk([[(0.0, [])], [(0.0, [])], [(0.0, [])]])
        assert list(enumerate_policies(mdp)) == [StationaryPolicy((0, 0, 0))]

    def test_cap_exceeded_eagerly(self, mk):
        mdp = mk([[(0.0, [])] * 10 for _ in range(7)])
        assert count_policies(mdp) == 10**7
        with pytest.raises(PolicyCapExceeded):
            enumerate_policies(mdp)

    def test_yields_exactly_the_product_distinct(self, mk):
        mdp = mk([[(0.0, [])] * 2, [(0.0, [])] * 3, [(0.0, [])] * 2])
        policies = list(enumerate_policies(mdp))
        assert len(policies) == len(set(policies)) == count_policies(mdp) == 12


# hypothesis strategy for small valid instances
@st.composite
def small_instances(draw):
    n = draw(st.integers(1, 4))
    rate = st.floats(0.0, 2.0, allow_nan=False, width=64)
    cost = st.floats(-5.0, 5.0, allow_nan=False, width=64)
    actions = []
    for _ in range(n):
        k = draw(st.integers(1, 3))
        acts = []
        for _ in range(k):
            targets = draw(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n)
            )
            acts.append(
                (draw(cost), [(y, draw(rate)) for y in targets])
            )
        actions.append(acts)
    labeled = draw(st.booleans())
    labels = tuple(f"s{i}" for i in range(n)) if labeled else None
    return build_mdp(actions, labels=labels)


class TestSerialization:
    @settings(max_examples=60, deadline=None)
    @given(small_instances())
    def test_round_trip_identity(self, mdp):
        assert validate(mdp).ok
        again = loads_instance(dumps_instance(mdp))
        assert again == mdp
        assert validate(again).ok

    def test_unknown_top_level_field(self):
        with pytest.raises(InstanceFormatError, match="unknown field 'extra'"):
            loads_instance('{"states": 1, "actions": [[{"cost": 0, "transitions": []}]], "extra": 1}')

    def test_unknown_action_field(self):
        doc = '{"states": 1, "actions": [[{"cost": 0, "transitions": [], "reward": 3}]]}'
        with pytest.raises(InstanceFormatError, match="unknown field 'reward'"):
            loads_instance(doc)

    def test_unknown_transition_field(self):
        doc = (
            '{"states": 1, "actions": [[{"cost": 0, '
            '"transitions": [{"to": 0, "rate": 1, "prob": 1}]}]]}'
        )
        with pytest.raises(InstanceFormatError, match="unknown field 'prob'"):
            loads_instance(doc)

    def test_labels_resolve_targets(self):
        doc = (
            '{"states": ["hub", "leaf"], "actions": ['
            '[{"cost": 1, "transitions": [{"to": "leaf", "rate": 0.5}]}],'
            '[{"cost": 0, "transitions": [{"to": 0, "rate": 0.25}]}]]}'
        )
        mdp = loads_instance(doc)
        assert mdp.state_labels == ("hub", "leaf")
        assert mdp.actions[0][0].transitions == ((1, 0.5),)
        assert mdp.actions[1][0].transitions == ((0, 0.25),)

    def test_unknown_label(self):
        doc = (
            '{"states": ["a"], "actions": [[{"cost": 0, '
            '"transitions": [{"to": "b", "rate": 1}]}]]}'
        )
        with pytest.raises(InstanceFormatError, match="unknown state label"):
            loads_instance(doc)

    def test_boolean_is_not_a_number(self):
        doc = '{"states": 1, "actions": [[{"cost": true, "transitions": []}]]}'
        with pytest.raises(InstanceFormatError, match="expected a number"):
            loads_instance(doc)

    def test_missing_field(self):
        with pytest.raises(InstanceFormatError, match="missing field 'actions'"):
            loads_instance('{"states": 1}')

    def test_json_numbers_round_trip_exactly(self, mk):
        mdp = mk([[(1 / 3, [(0, 0.1 + 0.2)])]])
        again = loads_instance(dumps_instance(mdp))
        assert again.actions[0][0].cost == mdp.actions[0][0].cost
        assert again.actions[0][0].transitions == mdp.actions[0][0].transitions

    def test_rejects_non_object_top_level(self):
        with pytest.raises(InstanceFormatError):
            loads_instance(json.dumps([1, 2, 3]))


def _loop_values(mdp, v):
    """c(x, a) + sum_y q(y | x, a) v(y), one action at a time: the
    per-action loops the packed table replaced, kept as the reference."""
    values = []
    for acts in mdp.actions:
        row = []
        for act in acts:
            value = act.cost
            for y, rate in act.transitions:
                value += rate * v[y]
            row.append(value)
        values.append(row)
    return values


class TestPackedAgainstLoops:
    @settings(max_examples=80, deadline=None)
    @given(small_instances(), st.integers(0, 2**32 - 1))
    def test_bellman_step_min_argmin_and_sets(self, mdp, seed):
        rng = np.random.default_rng(seed)
        table = mdp.packed
        v = rng.uniform(1.0, 3.0, mdp.n_states)
        q = table.c + table.R @ v
        reference = _loop_values(mdp, v)
        # the sum is associated differently: c + (sum q v), not (c + q v) + ...
        scale = 1.0 + np.abs(table.c) + np.abs(table.R) @ np.abs(v)
        assert np.all(np.abs(q - np.concatenate(reference)) <= 1e-14 * scale)

        residual = max(1.0 + value - act.cost - v[x]
                       for x, row in enumerate(reference)
                       for value, act in zip(row, mdp.actions[x]))
        assert certificate_residual(mdp, v) == pytest.approx(residual, abs=1e-13 * scale.max())

        # ties, on values with many exact ties: lowest action index first
        tied = rng.integers(0, 3, len(table.c)).astype(float)
        low, best = table.state_argmin(tied)
        rows = np.split(tied, table.first[1:-1])
        assert low.tolist() == [float(row.min()) for row in rows]
        assert best.tolist() == [int(np.argmin(row)) for row in rows]
        assert table.action_sets(tied - 1.0, 0.5) == [
            tuple(int(a) for a in np.flatnonzero(row == 1.0)) for row in rows
        ]


def _packed(counts):
    """A packed table with ``counts[x]`` rows at state ``x`` and no rates."""
    first = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
    m = int(first[-1])
    return PackedMdp(np.zeros(m), first, np.zeros(m + 1, dtype=np.intp), [], [])


def _split_sets(table, gap, tol):
    """The per-state sets cut by np.split, kept as the reference."""
    hits = np.flatnonzero(np.abs(gap) <= tol)
    groups = np.split(table.local[hits], np.searchsorted(hits, table.first[1:-1]))
    return [tuple(group.tolist()) for group in groups]


class TestActionSets:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12), st.data())
    def test_one_pass_cut_matches_split(self, counts, data):
        table = _packed(counts)
        entry = st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.5, 0.5, np.nan, np.inf])
        )
        m = len(table.c)
        gap = np.array(data.draw(st.lists(entry, min_size=m, max_size=m)))
        tol = data.draw(st.sampled_from([0.0, 0.5, 1e-8]) | st.floats(0.0, 2.0))
        reference = _split_sets(table, gap, tol)
        assert table.action_sets(gap, tol) == reference
        empty = [x for x, members in enumerate(reference) if not members]
        if empty:
            with pytest.raises(ValueError, match=f"at state {empty[0]};"):
                table.action_sets(gap, tol, "optimality equation")
        else:
            assert table.action_sets(gap, tol, "optimality equation") == reference

    @pytest.mark.parametrize("blank, named", [((0,), 0), ((3,), 3), ((6,), 6), ((3, 6), 3)])
    def test_empty_set_names_the_first_such_state(self, blank, named):
        table = _packed([2, 1, 3, 1, 2, 2, 1])
        gap = np.zeros(len(table.c))
        for x in blank:
            gap[table.first[x]:table.first[x + 1]] = 1.0
        with pytest.raises(ValueError) as info:
            table.action_sets(gap, 0.5, "optimality equation")
        assert str(info.value) == (
            f"no action within 0.5 at state {named}; v does not solve the "
            "optimality equation at this tolerance"
        )
        assert table.action_sets(gap, 0.5)[named] == ()


def _seeded_tables():
    """Packed tables with every kind of row: generated instances, one with
    rows that have no transitions, truncated ones, and both reductions,
    whose n + 1 columns include the sink's."""
    yield build_mdp([[(1.0, []), (2.0, [(0, 0.5)])], [(0.0, [])]]).packed
    for seed, n in ((1, 3), (2, 7), (3, 16), (4, 40)):
        spec = dict(seed=seed, n_states=n, max_actions=3, density=0.5)
        mdp = gen_transient(GenSpec(rate_class=Substochastic((0.2, 0.4)), **spec))
        yield mdp.packed
        yield build_hv(mdp, maximize_lifetime(mdp)).base.packed
        ht = gen_ht(GenSpec(rate_class=Stochastic(), **spec), ell=0, alpha=0.2)
        yield truncate_at_state(ht, 0).packed
        yield build_hvag(ht, check_ht(ht, 0)).base.packed


class TestDenseRows:
    def test_same_bytes_as_the_sparse_rows_made_dense(self):
        rng = np.random.default_rng(11)
        for table in _seeded_tables():
            m = len(table.c)
            empty = np.flatnonzero(np.diff(table.R.indptr) == 0)
            for rows in (
                np.arange(m),
                table.first[:-1],
                table.first[1:] - 1,
                rng.integers(m, size=2 * m),
                empty,
                np.zeros(0, dtype=np.intp),
            ):
                dense = table.dense_rows(rows)
                expected = table.R[rows].toarray()
                assert dense.dtype == expected.dtype and dense.shape == expected.shape
                assert dense.tobytes() == expected.tobytes()
