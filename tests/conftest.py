import pytest

from mdpreduce import ActionData, RateMdp, _linalg


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


@pytest.fixture
def calls(monkeypatch):
    return counted_calls(monkeypatch)


def counted_calls(monkeypatch):
    """Counts the BiCGSTAB runs and the dense LU solves of solve_policy."""
    counts = {"bicgstab": 0, "lu": 0}
    bicgstab, try_solve = _linalg._bicgstab, _linalg.try_solve

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(_linalg, "_bicgstab", counted("bicgstab", bicgstab))
    monkeypatch.setattr(_linalg, "try_solve", counted("lu", try_solve))
    return counts


def on_lu(monkeypatch, f, *args, **kwargs):
    """``f(*args)`` with every policy system on dense LU."""
    with monkeypatch.context() as m:
        m.setattr(_linalg, "DENSE_MAX_N", 10**9)
        return f(*args, **kwargs)
