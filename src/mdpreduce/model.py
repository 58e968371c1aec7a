"""Core data types for rate MDPs: validation, policy algebra, instance I/O.

A rate MDP is a finite MDP whose transitions carry nonnegative *rates*
rather than probabilities; row sums may be anything finite.  Everything
that computes works on one packed table (:class:`PackedMdp`): the
state-action rows in state-major order, their costs ``c`` and their rates
as an m x n sparse matrix ``R``.  A Bellman-type step is then ``c + R @ v``
followed by a minimum or maximum over each state's rows.

An instance is either built from tuples of :class:`ActionData` (by users
and the generators) or table-backed: the file reader, the reductions,
:func:`mdpreduce.hv.similarity_transform` and
:func:`mdpreduce.transience.truncate_at_state` return instances that hold
only the table and the row names (:func:`from_packed`), and the file
writers print the table itself.  Either way the table is built and
validated once and cached on the instance, and the ``actions`` tuples of a
table-backed instance are built on first read and cached too, so both
kinds compare, hash, print, pickle and copy alike.

All types are immutable after construction and safe to share across
threads; every operation here is a pure function.
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np
from scipy import sparse

from .errors import InstanceFormatError, PolicyCapExceeded

#: Absolute row-sum tolerance for stochasticity classification.  Inputs are
#: textual decimals; anything tighter would misclassify round-tripped files.
ROW_SUM_TOL = 1e-12

#: Bound on enumerable policy spaces.
POLICY_CAP = 10**6


class RateClass(enum.Enum):
    """Row-sum classification of an instance."""

    STOCHASTIC = "stochastic"
    SUBSTOCHASTIC = "substochastic"
    GENERAL_RATES = "general-rates"


@dataclass(frozen=True)
class ActionData:
    """One action at one state: its one-step cost and sparse outgoing rates.

    ``transitions`` is a tuple of ``(target_state, rate)`` pairs.  Targets
    must be distinct within an action; duplicates are rejected by
    :func:`validate` rather than summed, since they usually signal input
    mistakes.
    """

    cost: float
    transitions: tuple[tuple[int, float], ...] = ()
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "cost", float(self.cost))
        object.__setattr__(
            self,
            "transitions",
            tuple((int(t), float(r)) for t, r in self.transitions),
        )

    def row_sum(self) -> float:
        return float(sum(r for _, r in self.transitions))


@dataclass(frozen=True)
class RateMdp:
    """Finite MDP with nonnegative transition rates and bounded real costs.
    A table-backed instance (:func:`from_packed`) builds ``actions`` on
    first read."""

    n_states: int
    actions: tuple[tuple[ActionData, ...], ...]
    state_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "actions", tuple(tuple(acts) for acts in self.actions)
        )
        if self.state_labels is not None:
            object.__setattr__(
                self, "state_labels", tuple(str(s) for s in self.state_labels)
            )

    def __getattr__(self, name):
        # Reached only for attributes missing from the instance: a
        # table-backed instance builds its ``actions`` here, once.
        if name != "actions" or "_names" not in self.__dict__:
            raise AttributeError(name)
        actions = _actions_from_table(self._packed, self._names)
        object.__setattr__(self, "actions", actions)
        return actions

    def n_actions(self, x: int) -> int:
        if "_names" in self.__dict__:
            return int(self._packed.first[x + 1] - self._packed.first[x])
        return len(self.actions[x])

    def row_names(self) -> tuple[str | None, ...]:
        """The name (or None) of every state-action row, state-major."""
        names = self.__dict__.get("_names")
        if names is None:
            names = tuple(act.name for acts in self.actions for act in acts)
        return names

    def action_name(self, x: int, a: int) -> str:
        names = self.__dict__.get("_names")
        name = self.actions[x][a].name if names is None else names[self._packed.row(x, a)]
        return name if name is not None else f"a{a}"

    @property
    def n_state_actions(self) -> int:
        """Total number of state-action pairs (the LP's ``m``)."""
        return len(self.row_names())

    @property
    def packed(self) -> PackedMdp:
        """The packed table of the instance, built and validated on first
        use.  Raises ValueError with :func:`validate`'s message when the
        instance breaks an invariant."""
        table = self.__dict__.get("_packed")
        if table is None:
            table = _pack(self)
            object.__setattr__(self, "_packed", table)
        return table


@dataclass(frozen=True)
class StationaryPolicy:
    """One action index per state."""

    choice: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "choice", tuple(int(a) for a in self.choice))

    def __getitem__(self, x: int) -> int:
        return self.choice[x]

    def __len__(self) -> int:
        return len(self.choice)

    def __iter__(self):
        return iter(self.choice)


@dataclass(frozen=True, eq=False)
class PackedMdp:
    """The state-action rows of an instance, state-major, action-minor.

    ``c`` (m,) holds the costs and ``R`` the rates as an m x n CSR matrix
    whose row entries keep the instance's transition order.  ``owner`` (m,)
    is the state of each row, ``local`` its action index at that state, and
    ``first`` (n + 1,) the first row of each state, with ``first[n] = m``.
    """

    c: np.ndarray
    R: sparse.csr_matrix
    first: np.ndarray
    owner: np.ndarray = field(init=False)
    local: np.ndarray = field(init=False)

    def __post_init__(self):
        owner = np.repeat(np.arange(len(self.first) - 1), np.diff(self.first))
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "local", np.arange(len(self.c)) - self.first[owner])

    def state_min(self, q: np.ndarray) -> np.ndarray:
        """Minimum of ``q`` (m,) over each state's rows."""
        return np.minimum.reduceat(q, self.first[:-1])

    def state_argmin(self, q: np.ndarray):
        """Per-state minimum of ``q`` and the lowest action index attaining it."""
        low = self.state_min(q)
        rows = np.where(q == low[self.owner], np.arange(len(q)), len(q))
        return low, self.local[np.minimum.reduceat(rows, self.first[:-1])]

    def row(self, x: int, a: int) -> int:
        """The row of action ``a`` at state ``x``."""
        if not 0 <= a < self.first[x + 1] - self.first[x]:
            raise IndexError(f"action index {a} out of range at state {x}")
        return int(self.first[x] + a)

    def action_sets(self, gap: np.ndarray, tol: float, equation: str | None = None):
        """Per state, the action indices of the rows with |gap| <= tol.  With
        ``equation`` named, a state left without one raises ValueError."""
        hits = np.flatnonzero(np.abs(gap) <= tol)
        groups = np.split(self.local[hits], np.searchsorted(hits, self.first[1:-1]))
        empty = [x for x, group in enumerate(groups) if not group.size]
        if equation is not None and empty:
            raise ValueError(
                f"no action within {tol} at state {empty[0]}; v does not solve the "
                f"{equation} at this tolerance"
            )
        return [tuple(group.tolist()) for group in groups]

    def rows(self, phi) -> np.ndarray:
        """The row of each state's action under ``phi``."""
        choice = np.asarray(tuple(phi), dtype=np.intp)
        counts = np.diff(self.first)
        if len(choice) != len(counts):
            raise ValueError(f"policy has {len(choice)} entries for {len(counts)} states")
        bad = np.flatnonzero((choice < 0) | (choice >= counts))
        if bad.size:
            x = int(bad[0])
            raise ValueError(
                f"action index {choice[x]} out of range at state {x} "
                f"({counts[x]} actions)"
            )
        return self.first[:-1] + choice

    def policy(self, phi) -> tuple[sparse.csr_matrix, np.ndarray]:
        """The rows of the policy ``phi``: its n x n sparse rates
        ``P[x, y] = q(y | x, phi(x))`` and its costs ``c[x] = c(x, phi(x))``."""
        rows = self.rows(phi)
        return self.R[rows], self.c[rows]

    def without_column(self, ell: int) -> PackedMdp:
        """The same table with every rate into state ``ell`` removed."""
        R = self.R
        keep = R.indices != ell
        indptr = np.append(0, np.cumsum(keep))[R.indptr]
        cut = sparse.csr_matrix((R.data[keep], R.indices[keep], indptr), shape=R.shape)
        return PackedMdp(self.c, cut, self.first)

    def row_sums(self, data: np.ndarray | None = None) -> np.ndarray:
        """Sum of each row of ``R`` (or of ``data`` laid out like ``R.data``),
        added left to right in transition order, as Python's ``sum`` did
        before 3.12.  Transformed files and the stochastic classification
        depend on the last digit of these sums."""
        return _row_sums_in_order(self.R.data if data is None else data, self.R.indptr)


def _row_sums_in_order(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    # cumsum adds strictly left to right; np.add.reduce sums pairwise.  The
    # last column is always padding, so an empty row sums to 0.0.
    lengths = np.diff(indptr)
    padded = np.zeros((len(lengths), int(lengths.max(initial=0)) + 1))
    padded[np.arange(padded.shape[1]) < lengths[:, None]] = data
    return np.cumsum(padded, axis=1, out=padded)[:, -1].copy()


def _pack(mdp: RateMdp) -> PackedMdp:
    n, labels = mdp.n_states, mdp.state_labels
    rows = [act for acts in mdp.actions for act in acts]
    lengths = [len(act.transitions) for act in rows]

    def entries(field: int, dtype):
        pairs = itertools.chain.from_iterable(act.transitions for act in rows)
        return np.fromiter(map(itemgetter(field), pairs), dtype=dtype, count=sum(lengths))

    table = None
    if (
        isinstance(n, int)
        and 1 <= n == len(mdp.actions)
        and (labels is None or len(labels) == len(set(labels)) == n)
    ):
        counts = [len(acts) for acts in mdp.actions]
        costs = [act.cost for act in rows]
        with contextlib.suppress(OverflowError):  # a target beyond int64 is out of range
            table = _checked_table(n, counts, lengths, costs, entries(0, np.int64), entries(1, float))
    if table is None:
        raise ValueError(_first_violation(mdp))
    return table


def _checked_table(n: int, counts, lengths, costs, targets, rates) -> PackedMdp | None:
    """The packed table of the rows ``costs``, ``counts[x]`` of them at state
    ``x``, row ``r`` with the next ``lengths[r]`` entries of ``targets`` and
    ``rates``; None when the rows break an invariant of :func:`validate`."""
    counts, lengths = np.asarray(counts, dtype=np.intp), np.asarray(lengths, dtype=np.intp)
    c = np.asarray(costs, dtype=float)
    targets, rates = np.asarray(targets, dtype=np.int64), np.asarray(rates, dtype=float)
    if not (
        np.all(counts > 0)
        and np.all(np.isfinite(c))
        and np.all((targets >= 0) & (targets < n))
        and np.all(np.isfinite(rates))
        and np.all(rates >= 0.0)
    ):
        return None
    keys = np.repeat(np.arange(len(c)) * n, lengths)
    keys += targets
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        return None
    first = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=first[1:])
    indptr = np.zeros(len(c) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    R = sparse.csr_matrix((rates, targets, indptr), shape=(len(c), n))
    return PackedMdp(c, R, first)


def from_packed(table: PackedMdp, names, state_labels=None) -> RateMdp:
    """The table-backed instance whose packed table is ``table``, with
    ``names[r]`` the name of row ``r`` (or None).  ``table`` must be valid;
    it is not checked again.  The ``actions`` tuples are built on first
    read."""
    mdp = object.__new__(RateMdp)
    labels = None if state_labels is None else tuple(str(s) for s in state_labels)
    mdp.__dict__.update(
        n_states=len(table.first) - 1, state_labels=labels, _packed=table, _names=tuple(names)
    )
    return mdp


def _actions_from_table(table: PackedMdp, names) -> tuple[tuple[ActionData, ...], ...]:
    targets, rates = table.R.indices.tolist(), table.R.data.tolist()
    bounds = table.R.indptr.tolist()
    rows = [
        ActionData(cost=cost, transitions=tuple(zip(targets[lo:hi], rates[lo:hi])), name=name)
        for cost, lo, hi, name in zip(table.c.tolist(), bounds, bounds[1:], names)
    ]
    first = table.first.tolist()
    return tuple(tuple(rows[lo:hi]) for lo, hi in zip(first, first[1:]))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: summary numbers plus the first violation."""

    ok: bool
    max_row_sum: float
    rate_class: RateClass
    error: str | None = None


def _first_violation(mdp: RateMdp) -> str | None:
    if not isinstance(mdp.n_states, int) or mdp.n_states < 1:
        return f"n_states must be a positive integer, got {mdp.n_states!r}"
    if len(mdp.actions) != mdp.n_states:
        return (
            f"actions lists {len(mdp.actions)} states, expected {mdp.n_states}"
        )
    if mdp.state_labels is not None:
        if len(mdp.state_labels) != mdp.n_states:
            return (
                f"{len(mdp.state_labels)} state labels for {mdp.n_states} states"
            )
        if len(set(mdp.state_labels)) != mdp.n_states:
            return "state labels are not unique"
    for x, acts in enumerate(mdp.actions):
        if len(acts) == 0:
            return f"state {x} has no actions"
        for a, act in enumerate(acts):
            name = mdp.action_name(x, a)
            if not math.isfinite(act.cost):
                return f"non-finite cost at ({x}, {name})"
            seen: set[int] = set()
            for y, rate in act.transitions:
                if not 0 <= y < mdp.n_states:
                    return f"transition target {y} out of range at ({x}, {name})"
                if not math.isfinite(rate):
                    return f"non-finite rate at ({x}, {name}, {y})"
                if rate < 0.0:
                    return f"negative rate at ({x}, {name}, {y})"
                if y in seen:
                    return f"duplicate transition target at ({x}, {name}, {y})"
                seen.add(y)
    return None


def _classify(sums) -> RateClass:
    sums = np.asarray(sums, dtype=float)
    if sums.size and np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):
        return RateClass.STOCHASTIC
    if sums.size and np.all(sums <= 1.0 + ROW_SUM_TOL):
        return RateClass.SUBSTOCHASTIC
    return RateClass.GENERAL_RATES


def validate(mdp: RateMdp) -> ValidationReport:
    """Check every structural invariant and report the first violation.

    The maximal row sum (finite by construction on finite instances, but
    still computed and reported) and the stochasticity class are included
    whether or not the instance is valid.  A valid instance is reported
    from its packed table, without building its ``actions`` tuples.
    """
    try:
        sums = mdp.packed.row_sums()
    except ValueError:
        sums = [act.row_sum() for acts in mdp.actions for act in acts]
        error = _first_violation(mdp)
    else:
        error = None
    return ValidationReport(
        ok=error is None,
        max_row_sum=float(max(sums, default=0.0)),
        rate_class=_classify(sums),
        error=error,
    )


def classify_rates(mdp: RateMdp) -> RateClass:
    """Stochastic (all row sums 1 within 1e-12), substochastic (all <= 1 + 1e-12),
    or general rates."""
    return _classify(mdp.packed.row_sums())


def count_policies(mdp: RateMdp) -> int:
    return math.prod(mdp.n_actions(x) for x in range(mdp.n_states))


def enumerate_policies(mdp: RateMdp):
    """Iterate every stationary policy once, in lexicographic order of
    action indices.  Raises PolicyCapExceeded eagerly when the policy space
    is larger than :data:`POLICY_CAP`.
    """
    total = count_policies(mdp)
    if total > POLICY_CAP:
        raise PolicyCapExceeded(f"{total} policies exceed cap {POLICY_CAP}")

    def _iter():
        for combo in itertools.product(
            *(range(mdp.n_actions(x)) for x in range(mdp.n_states))
        ):
            yield StationaryPolicy(combo)

    return _iter()


# ---------------------------------------------------------------------------
# Instance file format (JSON).  Grammar:
#
#   instance   := {"states": states, "actions": [state-actions x n]}
#   states     := positive integer n | [label x n]    (labels unique strings)
#   state-actions := nonempty array of action
#   action     := {"cost": number, "transitions": [transition...], "name"?: string}
#   transition := {"to": state-ref, "rate": number}
#   state-ref  := integer index | label (only when labels are defined)
#
# Unknown fields are rejected anywhere.
# ---------------------------------------------------------------------------


def _require_keys(obj: dict, allowed: set[str], required: tuple[str, ...], path: str):
    for key in obj:
        if key not in allowed:
            raise InstanceFormatError(f"unknown field '{key}' at {path}")
    for key in required:
        if key not in obj:
            raise InstanceFormatError(f"missing field '{key}' at {path}")


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"expected a number at {path}, got {value!r}")
    return float(value)


def _as_index(value, n: int, index, path: str) -> int:
    # ``index`` maps each state label to its state, or is None without labels
    if isinstance(value, bool):
        raise InstanceFormatError(f"expected a state at {path}, got {value!r}")
    if isinstance(value, int):
        if not 0 <= value < n:
            raise InstanceFormatError(f"state index {value} out of range at {path}")
        return value
    if isinstance(value, str):
        if index is None:
            raise InstanceFormatError(
                f"state label {value!r} at {path}, but the instance has no labels"
            )
        if value not in index:
            raise InstanceFormatError(f"unknown state label {value!r} at {path}")
        return index[value]
    raise InstanceFormatError(f"expected a state at {path}, got {value!r}")


_TRANSITION_KEYS = frozenset(("to", "rate"))


def instance_from_obj(obj) -> RateMdp:
    """Build a RateMdp from a decoded JSON object, rejecting unknown fields.

    A valid instance comes back table-backed (:func:`from_packed`).  One
    that parses but breaks an invariant comes back built from tuples, so
    that :func:`validate` can word its first violation.
    """
    if not isinstance(obj, dict):
        raise InstanceFormatError("top level must be an object")
    _require_keys(obj, {"states", "actions"}, ("states", "actions"), "top level")

    states = obj["states"]
    labels: tuple[str, ...] | None
    if isinstance(states, bool):
        raise InstanceFormatError("'states' must be an integer or a label array")
    if isinstance(states, int):
        if states < 1:
            raise InstanceFormatError(f"'states' must be positive, got {states}")
        n, labels = states, None
    elif isinstance(states, list):
        if not states or not all(isinstance(s, str) for s in states):
            raise InstanceFormatError("'states' labels must be a nonempty string array")
        if len(set(states)) != len(states):
            raise InstanceFormatError("'states' labels must be unique")
        n, labels = len(states), tuple(states)
    else:
        raise InstanceFormatError("'states' must be an integer or a label array")
    index = None if labels is None else {label: y for y, label in enumerate(labels)}

    raw_actions = obj["actions"]
    if not isinstance(raw_actions, list) or len(raw_actions) != n:
        raise InstanceFormatError(f"'actions' must be an array of {n} entries")

    counts, lengths, costs, names, targets, rates = [], [], [], [], [], []
    for x, acts in enumerate(raw_actions):
        path_x = f"actions[{x}]"
        if not isinstance(acts, list):
            raise InstanceFormatError(f"{path_x} must be an array of actions")
        counts.append(len(acts))
        for a, act in enumerate(acts):
            path_a = f"{path_x}[{a}]"
            if not isinstance(act, dict):
                raise InstanceFormatError(f"{path_a} must be an object")
            _require_keys(act, {"name", "cost", "transitions"}, ("cost", "transitions"), path_a)
            name = act.get("name")
            if name is not None and not isinstance(name, str):
                raise InstanceFormatError(f"'name' must be a string at {path_a}")
            costs.append(_as_number(act["cost"], f"{path_a}.cost"))
            names.append(name)
            raw_trans = act["transitions"]
            if not isinstance(raw_trans, list):
                raise InstanceFormatError(f"'transitions' must be an array at {path_a}")
            lengths.append(len(raw_trans))
            for i, tr in enumerate(raw_trans):
                # the common case first; anything else takes the checked path
                if type(tr) is dict and tr.keys() == _TRANSITION_KEYS:
                    to, rate = tr["to"], tr["rate"]
                    if type(to) is int and 0 <= to < n and type(rate) is float:
                        targets.append(to)
                        rates.append(rate)
                        continue
                path_t = f"{path_a}.transitions[{i}]"
                if not isinstance(tr, dict):
                    raise InstanceFormatError(f"{path_t} must be an object")
                _require_keys(tr, _TRANSITION_KEYS, ("to", "rate"), path_t)
                targets.append(_as_index(tr["to"], n, index, f"{path_t}.to"))
                rates.append(_as_number(tr["rate"], f"{path_t}.rate"))

    table = _checked_table(n, counts, lengths, costs, targets, rates)
    if table is not None:
        return from_packed(table, names, labels)
    pairs = iter(zip(targets, rates))
    rows = iter([
        ActionData(cost, tuple(itertools.islice(pairs, k)), name)
        for cost, name, k in zip(costs, names, lengths)
    ])
    actions = [tuple(itertools.islice(rows, k)) for k in counts]
    return RateMdp(n_states=n, actions=actions, state_labels=labels)


#: ``json.dumps``'s own string encoder (``ensure_ascii`` is its default).
_string = json.encoder.encode_basestring_ascii

#: One transition, indented as ``json.dumps`` indents it within an action.
_TRANSITION = '{\n            "to": %d,\n            "rate": %r\n          }'


def _json_block(items, indent: str, brackets: str = "[]") -> str:
    """What ``json.dumps(..., indent=2)`` prints for an array (or, with
    ``brackets="{}"``, an object) of already encoded ``items`` (members),
    when the value itself sits at ``indent``."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def _dumps_table(mdp: RateMdp, extra=()) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` of the instance's file object,
    with the encoded members ``extra`` after ``"actions"``, written straight
    from the packed table.  Raises ValueError with :func:`validate`'s
    message when the instance is invalid."""
    table = mdp.packed
    R = table.R
    edges = [_TRANSITION % pair for pair in zip(R.indices.tolist(), R.data.tolist())]
    bounds = R.indptr.tolist()
    rows = []
    for cost, name, lo, hi in zip(table.c.tolist(), mdp.row_names(), bounds, bounds[1:]):
        members = [] if name is None else [f'"name": {_string(name)}']
        members += (f'"cost": {cost!r}', f'"transitions": {_json_block(edges[lo:hi], "        ")}')
        rows.append(_json_block(members, "      ", "{}"))
    first = table.first.tolist()
    actions = [_json_block(rows[lo:hi], "    ") for lo, hi in zip(first, first[1:])]
    labels = mdp.state_labels
    states = "%d" % mdp.n_states if labels is None else _json_block([*map(_string, labels)], "  ")
    members = [f'"states": {states}', f'"actions": {_json_block(actions, "  ")}', *extra]
    return _json_block(members, "", "{}") + "\n"


def loads_instance(text: str) -> RateMdp:
    return instance_from_obj(json.loads(text))


def dumps_instance(mdp: RateMdp) -> str:
    """The instance file of ``mdp``: the bytes of ``json.dumps`` with
    ``indent=2``.  Raises ValueError when the instance is invalid."""
    return _dumps_table(mdp)


def load_instance(path) -> RateMdp:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_obj(json.load(fh))


def dump_instance(mdp: RateMdp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(mdp))
