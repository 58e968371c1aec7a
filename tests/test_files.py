"""The instance and discounted file formats, read into and written from the
packed table.

The writers must print exactly what ``json.dumps(obj, indent=2) + "\\n"``
prints for the file's object; the reference builders below make that
object from the ``actions`` tuples, as the writers once did.  The reader
returns the instance table-backed, and raises ValueError naming the first
violation when the file parses but breaks an invariant.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdpreduce
from mdpreduce import (
    ActionData,
    DiscountedMdp,
    GenSpec,
    InstanceFormatError,
    RateMdp,
    ReductionOrigin,
    Substochastic,
    build_hv,
    check_discounted,
    dump_discounted,
    dumps_discounted,
    dumps_instance,
    emit_lp,
    gen_transient,
    load_discounted,
    load_instance,
    loads_discounted,
    loads_instance,
    maximize_lifetime,
    validate,
)
from mdpreduce.cli import main


def built(mdp):
    """Whether the instance holds its ``actions`` tuples."""
    return "actions" in vars(mdp)


def reference_obj(mdp):
    states = list(mdp.state_labels) if mdp.state_labels is not None else mdp.n_states
    actions = []
    for acts in mdp.actions:
        entry = []
        for act in acts:
            record = {}
            if act.name is not None:
                record["name"] = act.name
            record["cost"] = act.cost
            record["transitions"] = [{"to": y, "rate": r} for y, r in act.transitions]
            entry.append(record)
        actions.append(entry)
    return {"states": states, "actions": actions}


def reference_discounted_obj(dmdp):
    obj = reference_obj(dmdp.base)
    header = {"beta": dmdp.beta, "absorbing_state": dmdp.absorbing_state, "origin": None}
    if dmdp.origin is not None:
        header["origin"] = {"kind": dmdp.origin.kind, "mu": list(dmdp.origin.mu)}
        if dmdp.origin.ell is not None:
            header["origin"]["ell"] = dmdp.origin.ell
    obj["discounted"] = header
    return obj


def reference_text(obj):
    return json.dumps(obj, indent=2) + "\n"


# names and labels: quotes, backslashes, control characters, non-ASCII
# (astral too), the empty string and the label the reductions give the sink
text = st.text(st.one_of(st.sampled_from('"\\\t\n\x00\x1f\x7fé中😀/ '), st.characters()), max_size=5)
costs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.just(-0.0),
)
rates = st.one_of(
    st.floats(0.0, 2.0),
    st.floats(0.0, 1e-307),
    st.sampled_from([5e-324, 0.0, -0.0, 1e300]),
)


@st.composite
def instances(draw):
    n = draw(st.integers(1, 4))
    actions = []
    for _ in range(n):
        acts = []
        for _ in range(draw(st.integers(1, 3))):
            targets = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            transitions = tuple((y, draw(rates)) for y in targets)
            acts.append(ActionData(draw(costs), transitions, draw(st.none() | text)))
        actions.append(tuple(acts))
    labels = draw(st.none() | st.lists(text | st.just("sink"), min_size=n, max_size=n, unique=True))
    return RateMdp(n, tuple(actions), labels)


@st.composite
def any_discounted_fields(draw):
    """The four fields of a discounted instance, valid or not."""
    if draw(st.booleans()):
        dmdp = draw(discounted())
        return dmdp.base, dmdp.absorbing_state, dmdp.beta, dmdp.origin
    base = draw(instances())
    n = base.n_states
    origin = draw(
        st.sampled_from([None, "hv", "hvag"]).flatmap(
            lambda kind: st.none()
            if kind is None
            else st.builds(
                ReductionOrigin,
                st.lists(st.floats(), max_size=n),
                st.none() if kind == "hv" else st.integers(0, n - 1),
            )
        )
    )
    return base, draw(st.integers(0, n - 1)), draw(st.floats()), origin


def unchecked(*fields):
    """A DiscountedMdp made without running its check, to hand to
    check_discounted directly."""
    dmdp = object.__new__(DiscountedMdp)
    for field, value in zip(dataclasses.fields(DiscountedMdp), fields):
        object.__setattr__(dmdp, field.name, value)
    return dmdp


@st.composite
def discounted(draw):
    """A discounted instance that check_discounted accepts: the rows of a
    drawn instance scaled to sum to 1 (a row of zeros moves to the sink),
    a cost-free sink last, any beta in [0, 1) and an origin that fits."""
    base = draw(instances())
    n = base.n_states
    rows = []
    for acts in base.actions:
        row = []
        for act in acts:
            total = sum(r for _, r in act.transitions)
            if total > 0.0:
                transitions = tuple((y, r / total) for y, r in act.transitions)
            else:
                transitions = act.transitions + ((n, 1.0),)
            row.append(ActionData(act.cost, transitions, act.name))
        rows.append(tuple(row))
    rows.append((ActionData(0.0, ((n, 1.0),)),))
    labels = base.state_labels
    if labels is not None:
        labels += (draw(text.filter(lambda label: label not in labels)),)
    mu = st.lists(st.floats(1.0, 1e300), min_size=n, max_size=n)
    origin = draw(
        st.none()
        | st.builds(ReductionOrigin, mu)
        | st.builds(ReductionOrigin, mu, st.integers(0, n - 1))
    )
    beta = draw(st.floats(0.0, 1.0, exclude_max=True))
    return DiscountedMdp(RateMdp(n + 1, tuple(rows), labels), n, beta, origin)


class TestWritersMatchJsonDumps:
    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_instance(self, mdp):
        want = reference_text(reference_obj(mdp))
        assert dumps_instance(mdp) == want
        loaded = loads_instance(want)
        assert not built(loaded)
        assert dumps_instance(loaded) == want

    @settings(max_examples=150, deadline=None)
    @given(discounted())
    def test_discounted(self, dmdp):
        check_discounted(dmdp)
        assert dumps_discounted(dmdp) == reference_text(reference_discounted_obj(dmdp))

    @settings(max_examples=150, deadline=None)
    @given(any_discounted_fields())
    def test_discounted_writers_refuse_what_check_discounted_rejects(self, fields):
        # an instance the check rejects cannot be made, so no writer sees one
        try:
            dmdp = DiscountedMdp(*fields)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                check_discounted(unchecked(*fields))
            assert str(info.value) == str(exc)
        else:
            assert dumps_discounted(dmdp) == reference_text(reference_discounted_obj(dmdp))
            emit_lp(dmdp)

    @pytest.mark.parametrize("writer", [dumps_discounted, emit_lp])
    def test_discounted_writer_refuses_a_nan_discount_factor(self, writer):
        spec = GenSpec(n_states=4, max_actions=2, rate_class=Substochastic((0.2, 0.4)), seed=1)
        mdp = gen_transient(spec)
        dmdp = build_hv(mdp, maximize_lifetime(mdp))
        with pytest.raises(ValueError, match=r"^discount factor nan outside \[0, 1\)$"):
            writer(dataclasses.replace(dmdp, beta=float("nan")))

    def test_reductions(self):
        spec = GenSpec(n_states=9, max_actions=3, rate_class=Substochastic((0.2, 0.4)), seed=5)
        mdp = gen_transient(spec)
        dmdp = build_hv(mdp, maximize_lifetime(mdp))
        assert dumps_instance(mdp) == reference_text(reference_obj(mdp))
        assert dumps_discounted(dmdp) == reference_text(reference_discounted_obj(dmdp))

    def test_integer_numbers_in_the_input_print_as_floats(self):
        doc = '{"states": 1, "actions": [[{"cost": 3, "transitions": [{"to": 0, "rate": 0}]}]]}'
        want = {"states": 1, "actions": [[{"cost": 3.0, "transitions": [{"to": 0, "rate": 0.0}]}]]}
        assert dumps_instance(loads_instance(doc)) == reference_text(want)


class TestDiscountedFiles:
    def test_dump_and_load_round_trip(self, tmp_path):
        spec = GenSpec(n_states=9, max_actions=3, rate_class=Substochastic((0.2, 0.4)), seed=5)
        mdp = gen_transient(spec)
        dmdp = build_hv(mdp, maximize_lifetime(mdp))
        text, path = dumps_discounted(dmdp), tmp_path / "reduced.json"
        dump_discounted(dmdp, path)
        assert path.read_bytes() == text.encode("utf-8")
        assert dumps_discounted(load_discounted(path)) == text


class TestTableBacked:
    def test_file_round_trip_leaves_every_tuple_unbuilt(self):
        spec = GenSpec(n_states=12, max_actions=3, rate_class=Substochastic((0.2, 0.4)), seed=2)
        text = dumps_instance(gen_transient(spec))
        loaded = loads_instance(text)
        report = validate(loaded)
        assert report.ok
        assert dumps_instance(loaded) == text
        dmdp = build_hv(loaded, maximize_lifetime(loaded))
        again = loads_discounted(dumps_discounted(dmdp))
        emit_lp(again)
        assert not any(built(mdp) for mdp in (loaded, dmdp.base, again.base))

    def test_validate_reports_what_the_tuples_report(self):
        spec = GenSpec(n_states=12, max_actions=3, rate_class=Substochastic((0.2, 0.4)), seed=3)
        mdp = gen_transient(spec)
        loaded = loads_instance(dumps_instance(mdp))
        assert validate(loaded) == validate(mdp)
        sums = [act.row_sum() for acts in mdp.actions for act in acts]
        assert validate(loaded).max_row_sum == max(sums)

    def test_labelled_targets_round_trip(self):
        doc = json.dumps(
            {
                "states": ["hub", "leaf", "sink"],
                "actions": [
                    [{"name": "go", "cost": 1, "transitions": [{"to": "leaf", "rate": 0.5}]}],
                    [{"cost": 0, "transitions": [{"to": "sink", "rate": 0.25}, {"to": 0, "rate": 0.5}]}],
                    [{"cost": 0, "transitions": []}],
                ],
            }
        )
        mdp = loads_instance(doc)
        assert not built(mdp)
        assert mdp.actions[1][0].transitions == ((2, 0.25), (0, 0.5))
        again = loads_instance(dumps_instance(mdp))
        assert again == mdp and again.state_labels == ("hub", "leaf", "sink")
        assert '"to": 2' in dumps_instance(mdp)


def _doc(cost=0.0, transitions=((0, 0.5),), actions=None):
    acts = [{"cost": cost, "transitions": [{"to": y, "rate": r} for y, r in transitions]}]
    return json.dumps({"states": 1, "actions": [acts if actions is None else actions]})


INVALID = {
    "negative rate": (_doc(transitions=((0, -0.5),)), "negative rate at (0, a0, 0)"),
    "nan cost": (_doc(cost=float("nan")), "non-finite cost at (0, a0)"),
    "infinite rate": (_doc(transitions=((0, float("inf")),)), "non-finite rate at (0, a0, 0)"),
    "duplicate target": (_doc(transitions=((0, 0.25), (0, 0.25))), "duplicate transition target at (0, a0, 0)"),
    "no actions": (_doc(actions=[]), "state 0 has no actions"),
}


class TestInvalidInstances:
    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_loads_and_validate_words_the_error(self, case, tmp_path):
        text, message = INVALID[case]
        with pytest.raises(ValueError) as info:
            loads_instance(text)
        assert str(info.value) == message
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_instance(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_cli_check_reports_the_error(self, case, tmp_path, capsys):
        text, message = INVALID[case]
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_dumps_raises_with_the_validate_message(self, case):
        text, message = INVALID[case]
        with pytest.raises(ValueError) as info:
            dumps_instance(loads_instance(text))
        assert str(info.value) == message

    def test_a_target_too_large_for_the_table_is_out_of_range(self):
        # numpy raised OverflowError packing it, where the entry points promise ValueError
        actions = ((ActionData(0.0, ((2**70, 0.5),)),),)
        message = f"transition target {2**70} out of range at (0, a0)"
        with pytest.raises(ValueError) as info:
            RateMdp(1, actions)
        assert str(info.value) == message
        valid = RateMdp(1, ((ActionData(0.0),),))
        with pytest.raises(ValueError) as info:
            dataclasses.replace(valid, actions=actions)
        assert str(info.value) == message

    def test_discounted_base_is_read_through_the_same_path(self):
        obj = json.loads(INVALID["negative rate"][0])
        obj["discounted"] = {"beta": 0.5, "absorbing_state": 0, "origin": None}
        with pytest.raises(ValueError, match=r"^negative rate at \(0, a0, 0\)$"):
            loads_discounted(json.dumps(obj))
        # the base is read first, so its violation comes before a bad header's
        obj["discounted"]["beta"] = "0.5"
        with pytest.raises(ValueError, match=r"^negative rate at \(0, a0, 0\)$"):
            loads_discounted(json.dumps(obj))


FORMAT_ERRORS = [
    ({"to": 0}, "missing field 'rate' at actions[0][0].transitions[1]"),
    ({"to": 0, "rate": 1, "p": 1}, "unknown field 'p' at actions[0][0].transitions[1]"),
    ([0, 1], "actions[0][0].transitions[1] must be an object"),
    ({"to": 3, "rate": 0.5}, "state index 3 out of range at actions[0][0].transitions[1].to"),
    ({"to": -1, "rate": 0.5}, "state index -1 out of range at actions[0][0].transitions[1].to"),
    ({"to": True, "rate": 0.5}, "expected a state at actions[0][0].transitions[1].to, got True"),
    ({"to": 1.0, "rate": 0.5}, "expected a state at actions[0][0].transitions[1].to, got 1.0"),
    ({"to": "x", "rate": 0.5}, "state label 'x' at actions[0][0].transitions[1].to, but the instance has no labels"),
    ({"to": 0, "rate": False}, "expected a number at actions[0][0].transitions[1].rate, got False"),
    ({"to": 0, "rate": "1"}, "expected a number at actions[0][0].transitions[1].rate, got '1'"),
]


class TestFormatErrors:
    def test_missing_fields_are_named_in_grammar_order(self):
        # the order used to follow set iteration, which moves with the string hash seed
        doc = '{"states": 1, "actions": [[{"cost": 0, "transitions": [{}]}]]}'
        code = f"from mdpreduce import loads_instance\nloads_instance({doc!r})\n"
        src = str(Path(mdpreduce.__file__).resolve().parents[1])
        for seed in ("1", "3"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            last = done.stderr.strip().splitlines()[-1]
            assert last.endswith("missing field 'to' at actions[0][0].transitions[0]")


    @pytest.mark.parametrize("bad, message", FORMAT_ERRORS)
    def test_second_transition_is_named_with_its_path(self, bad, message):
        doc = {"states": 2, "actions": [
            [{"cost": 0, "transitions": [{"to": 1, "rate": 0.5}, bad]}],
            [{"cost": 0, "transitions": []}],
        ]}
        with pytest.raises(InstanceFormatError) as info:
            loads_instance(json.dumps(doc))
        assert str(info.value) == message

    def test_unknown_label_is_named(self):
        doc = {"states": ["a", "b"], "actions": [
            [{"cost": 0, "transitions": [{"to": "b", "rate": 0.5}, {"to": "c", "rate": 1}]}],
            [{"cost": 0, "transitions": []}],
        ]}
        with pytest.raises(InstanceFormatError) as info:
            loads_instance(json.dumps(doc))
        assert str(info.value) == "unknown state label 'c' at actions[0][0].transitions[1].to"

    def test_integer_rates_and_label_targets_take_the_checked_path(self):
        doc = {"states": ["a", "b"], "actions": [
            [{"cost": 0, "transitions": [{"to": "b", "rate": 1}, {"to": 0, "rate": 0.5}]}],
            [{"cost": 0, "transitions": []}],
        ]}
        mdp = loads_instance(json.dumps(doc))
        assert mdp.packed.R.indices.tolist() == [1, 0]
        assert mdp.packed.R.data.tolist() == [1.0, 0.5]
        assert np.array_equal(mdp.packed.first, [0, 1, 2])


def discounted_doc(**header):
    """The file of a 4-state instance's reduction, with header fields replaced."""
    spec = GenSpec(n_states=4, max_actions=2, rate_class=Substochastic((0.2, 0.4)), seed=3)
    mdp = gen_transient(spec)
    obj = json.loads(dumps_discounted(build_hv(mdp, maximize_lifetime(mdp))))
    for key, value in header.items():
        if key in ("mu", "ell", "kind"):
            obj["discounted"]["origin"][key] = value
        else:
            obj["discounted"][key] = value
    return json.dumps(obj)


HEADER_ERRORS = [
    ({"beta": [1]}, InstanceFormatError, "expected a number at discounted.beta, got [1]"),
    ({"beta": "0.5"}, InstanceFormatError, "expected a number at discounted.beta, got '0.5'"),
    ({"absorbing_state": 1.5}, InstanceFormatError,
     "expected a state at discounted.absorbing_state, got 1.5"),
    ({"absorbing_state": 5}, InstanceFormatError,
     "state index 5 out of range at discounted.absorbing_state"),
    ({"mu": "abc"}, InstanceFormatError, "'mu' must be an array at discounted.origin"),
    ({"mu": [2.0, "abc", 2.0, 2.0]}, InstanceFormatError,
     "expected a number at discounted.origin.mu[1], got 'abc'"),
    ({"mu": [1.0]}, ValueError, "origin mu has 1 entries for 4 states"),
    ({"mu": [2.0, 0.5, 2.0, 2.0]}, ValueError, "origin mu must be finite and at least 1"),
    ({"mu": [2.0, float("nan"), 2.0, 2.0]}, ValueError, "origin mu must be finite and at least 1"),
    ({"kind": "hvag", "ell": 4}, InstanceFormatError,
     "state index 4 out of range at discounted.origin.ell"),
    ({"kind": "hvag", "ell": 1.0}, InstanceFormatError,
     "expected a state at discounted.origin.ell, got 1.0"),
    ({"kind": "hvag"}, InstanceFormatError, "missing field 'ell' at discounted.origin"),
    ({"ell": 0}, InstanceFormatError, "unknown field 'ell' at discounted.origin"),
    ({"gamma": 0.5}, InstanceFormatError, "unknown field 'gamma' at discounted"),
]


class TestDiscountedHeader:
    @pytest.mark.parametrize("header, error, message", HEADER_ERRORS)
    def test_is_checked_against_its_instance(self, header, error, message):
        with pytest.raises(error) as info:
            loads_discounted(discounted_doc(**header))
        assert str(info.value) == message

    def test_hvag_origin_inside_the_instance_loads(self):
        dmdp = loads_discounted(discounted_doc(kind="hvag", ell=3))
        assert dmdp.origin.kind == "hvag" and dmdp.origin.ell == 3

    def test_a_reduction_whose_sink_is_not_last_is_rejected(self):
        # states 0 and 4 swapped: the lift reads the sink's value at the last
        # state, so only a discounted file without an origin may do this
        obj = json.loads(discounted_doc())
        actions = obj["actions"]
        actions[0], actions[4] = actions[4], actions[0]
        for entry in (t for acts in actions for act in acts for t in act["transitions"]):
            entry["to"] = {0: 4, 4: 0}.get(entry["to"], entry["to"])
        obj["discounted"]["absorbing_state"] = 0
        with pytest.raises(ValueError, match=r"^a reduction's absorbing state must be its last state, 4$"):
            loads_discounted(json.dumps(obj))
        obj["discounted"]["origin"] = None
        assert loads_discounted(json.dumps(obj)).absorbing_state == 0

    def test_check_discounted_rejects_an_origin_state_at_the_sink(self):
        dmdp = loads_discounted(discounted_doc())
        with pytest.raises(ValueError, match=r"^origin state 4 out of range$"):
            dataclasses.replace(dmdp, origin=ReductionOrigin(dmdp.origin.mu, ell=4))
