import pytest

from mdpreduce import ActionData, RateMdp


def instance_fields(actions, labels=None):
    """The fields of the instance :func:`build_mdp` makes, unchecked."""
    return dict(
        n_states=len(actions),
        actions=tuple(
            tuple(
                ActionData(cost=cost, transitions=tuple(transitions))
                for cost, transitions in acts
            )
            for acts in actions
        ),
        state_labels=labels,
    )


def build_mdp(actions, labels=None):
    """Compact instance builder.

    ``actions`` is a list over states; each entry is a list of
    ``(cost, [(target, rate), ...])`` pairs.
    """
    return RateMdp(**instance_fields(actions, labels))


@pytest.fixture
def mk():
    return build_mdp


@pytest.fixture
def geometric():
    """One state, one action: cost 1, self-rate 0.5.  Total cost 2."""
    return build_mdp([[(1.0, [(0, 0.5)])]])


@pytest.fixture
def two_cycle():
    """Two states cycling deterministically, costs (0, 2).  Average cost 1."""
    return build_mdp(
        [
            [(0.0, [(1, 1.0)])],
            [(2.0, [(0, 1.0)])],
        ]
    )
