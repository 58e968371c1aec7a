"""Core data types for rate MDPs: validation, policy algebra, instance I/O.

A rate MDP is a finite MDP whose transitions carry nonnegative *rates*
rather than probabilities; row sums may be anything finite.  Everything
that computes works on one packed table (:class:`PackedMdp`): the
state-action rows in state-major order, their costs ``c`` and their rates
as an m x n sparse matrix ``R``.  A Bellman-type step is then ``c + R @ v``
followed by a minimum or maximum over each state's rows.

An instance is either built from tuples of :class:`ActionData` (by users)
or table-backed: the file reader, the generators, the reductions,
:func:`mdpreduce.hv.similarity_transform` and
:func:`mdpreduce.transience.truncate_at_state` return instances that hold
only the table and the row names (:func:`from_packed`), and the file
writers print the table itself.  Either way the table is built and
validated once, when the instance is made, so an instance that breaks an
invariant never exists: making one raises ValueError naming its first
violation.  The ``actions`` tuples of a table-backed instance are built on
first read and cached, so both kinds compare, hash, print, pickle and copy
alike.

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

from .errors import InstanceFormatError, NotConvergedWithinBudget, PolicyCapExceeded

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
    must be distinct within an action; duplicates are rejected when the
    :class:`RateMdp` is made rather than summed, since they usually signal
    input mistakes.
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
        return _sum_in_order(r for _, r in self.transitions)


@dataclass(frozen=True)
class RateMdp:
    """Finite MDP with nonnegative transition rates and bounded real costs.

    Construction (``dataclasses.replace`` too) packs and validates the
    instance and raises ValueError with the first violated invariant, so
    every instance holds its packed table and row names.  A table-backed
    instance (:func:`from_packed`) builds ``actions`` on first read."""

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
        rows = [act for acts in self.actions for act in acts]
        object.__setattr__(self, "_packed", _pack(self, rows))
        object.__setattr__(self, "_names", tuple(act.name for act in rows))

    def __getattr__(self, name):
        # Reached only for attributes missing from the instance: a
        # table-backed instance builds its ``actions`` here, once.
        if name != "actions":
            raise AttributeError(name)
        actions = _actions_from_table(self._packed, self._names)
        object.__setattr__(self, "actions", actions)
        return actions

    def n_actions(self, x: int) -> int:
        return int(self._packed.first[x + 1] - self._packed.first[x])

    def row_names(self) -> tuple[str | None, ...]:
        """The name (or None) of every state-action row, state-major."""
        return self._names

    def action_name(self, x: int, a: int) -> str:
        name = self._names[self._packed.row(x, a)]
        return name if name is not None else f"a{a}"

    @property
    def n_state_actions(self) -> int:
        """Total number of state-action pairs (the LP's ``m``)."""
        return len(self._names)

    @property
    def packed(self) -> PackedMdp:
        """The packed table of the instance."""
        return self._packed


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
        """Per state, the action indices of the rows with |gap| <= tol, as a
        list of tuples.  With ``equation`` named, a state left without one
        raises ValueError.  The sets are cut in one pass from a single list
        of hit actions, at each state's bound in the sorted hit rows."""
        hits = np.flatnonzero(np.abs(gap) <= tol)
        bounds = np.searchsorted(hits, self.first)
        if equation is not None:
            empty = np.flatnonzero(bounds[1:] == bounds[:-1])
            if empty.size:
                raise ValueError(
                    f"no action within {tol} at state {empty[0]}; v does not solve the "
                    f"{equation} at this tolerance"
                )
        actions, bounds = self.local[hits].tolist(), bounds.tolist()
        return [tuple(actions[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

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

    def dense_rows(self, rows: np.ndarray) -> np.ndarray:
        """The rows ``rows`` of ``R`` written into zeros by one fancy-index
        assignment: no arithmetic, so the values of ``R[rows]`` made dense."""
        R = self.R
        starts, lengths = R.indptr[rows], np.diff(R.indptr)[rows]
        at = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        dense = np.zeros((len(rows), R.shape[1]))
        flat = np.repeat(np.arange(0, dense.size, R.shape[1]), lengths) + R.indices[at]
        dense.ravel()[flat] = R.data[at]
        return dense

    def without_column(self, ell: int) -> PackedMdp:
        """The same table with every rate into state ``ell`` removed: the
        table itself when it has none, as when it is truncated already."""
        R = self.R
        keep = R.indices != ell
        if keep.all():
            return self
        indptr = np.append(0, np.cumsum(keep))[R.indptr]
        cut = sparse.csr_matrix((R.data[keep], R.indices[keep], indptr), shape=R.shape)
        return PackedMdp(self.c, cut, self.first)

    def row_sums(self, data: np.ndarray | None = None) -> np.ndarray:
        """Sum of each row of ``R`` (or of ``data`` laid out like ``R.data``),
        added left to right in transition order from 0.0, as Python's
        ``sum`` did before 3.12, by one mat-vec against ones.  Transformed
        files and the stochastic classification depend on the last digit
        of these sums."""
        R = self.R
        if data is not None:
            R = sparse.csr_matrix((data, R.indices, R.indptr), shape=R.shape)
        return _row_sums_in_order(R)


def _policy_iteration(table: PackedMdp, phi0, evaluate, improve, cap: int, stalled):
    """Policy iteration on packed rows, from ``phi0`` or action 0 everywhere:
    ``v = evaluate(rows)``, ``rows = improve(v, rows)`` until ``improve``
    returns None or ``evaluate`` a verdict, not an array.  Returns ``(v,
    rows, steps)``, ``steps`` the evaluations made.  Switch ``cap + 1``
    raises NotConvergedWithinBudget(``stalled()``), built only then."""
    rows = table.first[:-1] if phi0 is None else table.rows(phi0)
    for steps in range(1, cap + 2):
        v = evaluate(rows)
        new = improve(v, rows) if isinstance(v, np.ndarray) else None
        if new is None:
            return v, rows, steps
        rows = new
    raise NotConvergedWithinBudget(stalled())


def _check_budget(tol: float, max_iter: int) -> None:
    """Raise ValueError unless ``tol`` is finite and > 0 and ``max_iter`` >= 1."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def _sum_in_order(values) -> float:
    """``values`` added left to right from 0.0.  Python's ``sum`` does that
    for floats only before 3.12; since, it compensates, which moves the last
    bit of many random probability rows."""
    total = 0.0
    for value in values:
        total += value
    return float(total)


def _row_sums_in_order(R: sparse.csr_matrix) -> np.ndarray:
    # scipy's csr_matvec adds each row's products left to right from 0.0,
    # and q * 1.0 is exact; np.add.reduce and reduceat sum in another order
    return R @ np.ones(R.shape[1])


def _pack(mdp: RateMdp, rows) -> PackedMdp:
    n, labels = mdp.n_states, mdp.state_labels
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n_states must be a positive integer, got {n!r}")
    if len(mdp.actions) != n:
        raise ValueError(f"actions lists {len(mdp.actions)} states, expected {n}")
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} state labels for {n} states")
    if labels is not None and len(set(labels)) != n:
        raise ValueError("state labels are not unique")
    pairs = [pair for act in rows for pair in act.transitions]
    return _checked_table(
        n,
        [len(acts) for acts in mdp.actions],
        [len(act.transitions) for act in rows],
        [act.cost for act in rows],
        [act.name for act in rows],
        list(map(itemgetter(0), pairs)),
        list(map(itemgetter(1), pairs)),
    )


def _checked_table(n: int, counts, lengths, costs, names, targets, rates) -> PackedMdp:
    """The packed table of the rows ``costs``, ``counts[x]`` of them at state
    ``x``, row ``r`` named ``names[r]`` (or None) with the next
    ``lengths[r]`` entries of ``targets`` and ``rates``.  Raises ValueError
    naming the first violation, in state-major order, when a state has no
    rows, a cost or a rate is not finite, a rate is negative, or a target is
    out of range or repeated within its row."""
    valid = False
    with contextlib.suppress(OverflowError):  # a target beyond int64 is out of range
        c, data = np.asarray(costs, dtype=float), np.asarray(rates, dtype=float)
        indices = np.asarray(targets, dtype=np.int64)
        keys = np.repeat(np.arange(len(c)) * n, lengths) + indices
        keys.sort()
        valid = (
            np.all(np.asarray(counts) > 0)
            and np.all(np.isfinite(c))
            and np.all((indices >= 0) & (indices < n))
            and np.all(np.isfinite(data))
            and np.all(data >= 0.0)
            and not np.any(keys[1:] == keys[:-1])
        )
    if not valid:
        entries, rows = zip(targets, rates), zip(costs, names, lengths)
        for x, k in enumerate(counts):
            if k == 0:
                raise ValueError(f"state {x} has no actions")
            for a, (cost, name, length) in enumerate(itertools.islice(rows, k)):
                at = f"{x}, {name if name is not None else f'a{a}'}"
                if not math.isfinite(cost):
                    raise ValueError(f"non-finite cost at ({at})")
                seen = set()
                for y, rate in itertools.islice(entries, length):
                    if not 0 <= y < n:
                        raise ValueError(f"transition target {y} out of range at ({at})")
                    if not math.isfinite(rate):
                        raise ValueError(f"non-finite rate at ({at}, {y})")
                    if rate < 0.0:
                        raise ValueError(f"negative rate at ({at}, {y})")
                    if y in seen:
                        raise ValueError(f"duplicate transition target at ({at}, {y})")
                    seen.add(y)
    first = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=first[1:])
    indptr = np.zeros(len(c) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    return PackedMdp(c, sparse.csr_matrix((data, indices, indptr), shape=(len(c), n)), first)


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
    """Outcome of :func:`validate`: the summary numbers of a valid instance.
    ``ok`` is always True and ``error`` always None, since an instance that
    breaks an invariant cannot be made."""

    ok: bool
    max_row_sum: float
    rate_class: RateClass
    error: str | None = None


def _classify(sums) -> RateClass:
    sums = np.asarray(sums, dtype=float)
    if sums.size and np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):
        return RateClass.STOCHASTIC
    if sums.size and np.all(sums <= 1.0 + ROW_SUM_TOL):
        return RateClass.SUBSTOCHASTIC
    return RateClass.GENERAL_RATES


def validate(mdp: RateMdp) -> ValidationReport:
    """The maximal row sum and the stochasticity class of an instance, read
    from its packed table without building its ``actions`` tuples.  The
    invariants themselves are checked when the instance is made."""
    sums = mdp.packed.row_sums()
    return ValidationReport(
        ok=True, max_row_sum=float(sums.max()), rate_class=_classify(sums)
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

    The instance comes back table-backed (:func:`from_packed`).  Raises
    InstanceFormatError when the object breaks the grammar, and ValueError
    naming the first violation when it parses but breaks an invariant.
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

    table = _checked_table(n, counts, lengths, costs, names, targets, rates)
    return from_packed(table, names, labels)


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
    from the packed table."""
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
    ``indent=2``."""
    return _dumps_table(mdp)


def load_instance(path) -> RateMdp:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_obj(json.load(fh))


def dump_instance(mdp: RateMdp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(mdp))
