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


def mm1n_queue(capacity, arrival=0.8, service=1.0):
    """The uniformized M/M/1/N queue: states 0..``capacity``, one action
    each, holding cost x, up with probability arrival / (arrival + service)
    and down with service / (arrival + service), a blocked move staying
    put.  Its average cost is sum_x x pi(x), pi proportional to
    (arrival / service)^x."""
    rate = arrival + service
    up, down = arrival / rate, service / rate
    return build_mdp(
        [
            [(float(x), [(max(x - 1, 0), down), (min(x + 1, capacity), up)])]
            for x in range(capacity + 1)
        ]
    )


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
