"""Core data types for rate MDPs: validation, policy algebra, instance I/O.

A rate MDP is a finite MDP whose transitions carry nonnegative *rates*
rather than probabilities; row sums may be anything finite.  Everything
that computes works on one packed table (:class:`PackedMdp`): the
state-action rows in state-major order, their costs ``c`` and their rates
as the CSR arrays of an m x n table, which the table holds itself.  Its
row operations call the compiled routines behind scipy's ``@``,
``[rows]`` and ``toarray`` directly, so they add each row left to right
as scipy does and build no scipy matrix; ``PackedMdp.R``, a scipy matrix
over the same arrays, is built on first read.  A Bellman-type step is
then :meth:`PackedMdp.bellman` (``c + beta R v``) followed by a minimum
or maximum over each state's rows.

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
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools  # the CSR kernels behind scipy's @, [rows], toarray

from .errors import InstanceFormatError, NotConvergedWithinBudget, PolicyCapExceeded

#: Absolute row-sum tolerance for stochasticity classification.  Inputs are
#: textual decimals; anything tighter would misclassify round-tripped files.
ROW_SUM_TOL = 1e-12

#: Bound on enumerable policy spaces.
POLICY_CAP = 10**6

_INT32_MAX = np.iinfo(np.int32).max


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


class CsrRows(NamedTuple):
    """Rows gathered from a packed table (:meth:`PackedMdp.gather`): the CSR
    arrays ``indptr``, ``indices`` and ``data`` of ``len(indptr) - 1`` rows
    over ``n_cols`` columns, in the order asked for."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """The rows times ``v``, each added left to right from 0.0."""
        return _matvec(self.indptr, self.indices, self.data, self.n_cols, v)

    def dense(self) -> np.ndarray:
        """The rows written into zeros: the values of ``R[rows].toarray()``."""
        out = np.zeros((len(self.indptr) - 1, self.n_cols))
        _sparsetools.csr_todense(*out.shape, self.indptr, self.indices, self.data, out)
        return out


@dataclass(frozen=True, eq=False)
class PackedMdp:
    """The state-action rows of an instance, state-major, action-minor.

    ``c`` (m,) holds the costs, and ``indptr``, ``indices`` and ``data`` the
    rates as the CSR arrays of an m x n table whose row entries keep the
    instance's transition order.  ``first`` (n + 1,) is the first row of
    each state, with ``first[n] = m``; ``lengths`` (m,) is the number of
    entries of each row, ``owner`` (m,) the state of each row and ``local``
    its action index at that state.  The index arrays are int32 when every
    index and the entry count fit, else int64, as scipy chooses them.

    Every row operation is one call into the compiled CSR routine that
    scipy's own ``@``, ``[rows]`` and ``toarray`` call, so it adds each row
    left to right and gives their bits.  ``R`` is a scipy CSR matrix over
    the same arrays, built on first read for callers that want one.
    """

    c: np.ndarray
    first: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    lengths: np.ndarray = field(init=False)
    owner: np.ndarray = field(init=False)
    local: np.ndarray = field(init=False)

    def __post_init__(self):
        first = np.asarray(self.first, dtype=np.intp)
        m, n = len(self.c), len(first) - 1
        object.__setattr__(self, "first", first)
        index = np.int32 if max(m, n, len(self.data)) <= _INT32_MAX else np.int64
        indptr = np.asarray(self.indptr, dtype=index)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=index))
        object.__setattr__(self, "data", np.asarray(self.data, dtype=float))
        object.__setattr__(self, "lengths", indptr[1:] - indptr[:-1])
        owner = np.repeat(np.arange(n), first[1:] - first[:-1])
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "local", np.arange(m) - first[owner])

    @functools.cached_property
    def R(self) -> sparse.csr_matrix:
        """The rates as an m x n scipy CSR matrix over the table's own arrays."""
        shape = (len(self.c), len(self.first) - 1)
        return sparse.csr_matrix((self.data, self.indices, self.indptr), shape=shape)

    def matvec(self, v: np.ndarray, data: np.ndarray | None = None, out=None) -> np.ndarray:
        """``R v`` (m,), with ``data`` laid out like ``self.data`` in place of
        the rates when given: each row's products added left to right from
        0.0, into ``out`` (zeroed first) or fresh zeros."""
        if data is not None and np.shape(data) != self.data.shape:
            raise ValueError(f"data has shape {np.shape(data)}, expected {self.data.shape}")
        data = self.data if data is None else data
        return _matvec(self.indptr, self.indices, data, len(self.first) - 1, v, out)

    def bellman(self, v: np.ndarray, beta: float = 1.0, out=None) -> np.ndarray:
        """The Bellman rows ``c + beta (R v)`` (m,): each row's cost plus its
        continuation, the rows of every discounted, total-cost and ACOE
        check.  Written into ``out`` when given."""
        q = self.matvec(v, out=out)
        q *= beta
        q += self.c
        return q

    def gap(self, lhs: np.ndarray, v: np.ndarray, beta: float = 1.0) -> np.ndarray:
        """``lhs(x) - [c(x,a) + beta sum_y q(y|x,a) v(y)]`` for every row.  Its
        state maximum is the residual, with the bits of ``lhs - min_a q``
        (rounding is monotone), and its rows near zero the optimal actions."""
        return lhs[self.owner] - self.bellman(v, beta)

    def cut(self, lhs: np.ndarray, v: np.ndarray, beta: float, bound) -> np.ndarray:
        """The per-row cut for ``gap(lhs, v, beta)``: ``bound`` (a number or
        one per state) plus each state's largest row round-off, ``(k + 2) eps
        (|lhs(x)| + |c| + beta R|v|)``, ``k`` the row's nonzeros (rates are
        nonnegative, so ``R|v|`` is one mat-vec)."""
        size = np.abs(lhs)[self.owner] + np.abs(self.c) + beta * self.matvec(np.abs(v))
        slack = (self.lengths + 2) * np.finfo(float).eps * size
        return (bound + self.state_max(slack))[self.owner]

    def state_min(self, q: np.ndarray) -> np.ndarray:
        """Minimum of ``q`` (m,) over each state's rows."""
        return np.minimum.reduceat(q, self.first[:-1])

    def state_max(self, g: np.ndarray) -> np.ndarray:
        """Maximum of ``g`` (m,) over each state's rows."""
        return np.maximum.reduceat(g, self.first[:-1])

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

    def action_sets(self, gap: np.ndarray, tol, equation: str | None = None):
        """Per state, the action indices of the rows with |gap| <= tol (a
        number or one per row), as a list of tuples.  With ``equation``
        named, a state left without one raises ValueError.  One pass cuts
        the sets at each state's bound in the sorted hit rows."""
        hits = np.flatnonzero(np.abs(gap) <= tol)
        bounds = np.searchsorted(hits, self.first)
        if equation is not None:
            empty = np.flatnonzero(bounds[1:] == bounds[:-1])
            if empty.size:
                x = empty[0]
                raise ValueError(
                    f"no action within {np.broadcast_to(tol, gap.shape)[self.first[x]]} at state "
                    f"{x}; v does not solve the {equation} at this tolerance"
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

    def gather(self, rows) -> CsrRows:
        """The rows ``rows`` (in any order, repeats allowed) as CSR arrays:
        the arrays of ``R[rows]``, copied by scipy's ``csr_row_index``."""
        rows = np.asarray(rows)
        lengths = self.lengths[rows]  # IndexError past the last row
        if rows.size and rows.min() < 0:
            raise IndexError(f"row index {rows.min()} is negative")
        rows = rows.astype(self.indptr.dtype, copy=False)
        indptr = np.zeros(len(rows) + 1, dtype=rows.dtype)
        np.cumsum(lengths, out=indptr[1:])
        indices, data = np.empty(indptr[-1], dtype=rows.dtype), np.empty(indptr[-1])
        _sparsetools.csr_row_index(
            len(rows), rows, self.indptr, self.indices, self.data, indices, data
        )
        return CsrRows(indptr, indices, data, len(self.first) - 1)

    def dense_rows(self, rows) -> np.ndarray:
        """The rows ``rows`` of ``R`` as a dense array: the gather written
        into zeros by ``csr_todense``, the values of ``R[rows].toarray()``."""
        return self.gather(rows).dense()

    def without_column(self, ell: int) -> PackedMdp:
        """The same table with every rate into state ``ell`` removed: the
        table itself when it has none, as when it is truncated already."""
        keep = self.indices != ell
        if keep.all():
            return self
        indptr = np.append(0, np.cumsum(keep))[self.indptr]
        return PackedMdp(self.c, self.first, indptr, self.indices[keep], self.data[keep])

    def row_sums(self, data: np.ndarray | None = None) -> np.ndarray:
        """Sum of each row of ``R`` (or of ``data`` laid out like
        ``self.data``), added left to right in transition order from 0.0,
        as Python's ``sum`` did before 3.12, by one mat-vec against ones
        (``q * 1.0`` is exact; ``np.add.reduceat`` sums in another order).
        Transformed files and the stochastic classification depend on the
        last digit of these sums."""
        return self.matvec(np.ones(len(self.first) - 1), data)


def _matvec(indptr, indices, data, n_cols: int, v, out=None) -> np.ndarray:
    """``A v`` for the CSR arrays of ``A`` by scipy's ``csr_matvec``, which
    adds into its output: into ``out`` after zeroing it, or into fresh zeros."""
    m = len(indptr) - 1
    if np.shape(v) != (n_cols,):
        raise ValueError(f"vector of shape {np.shape(v)} for {n_cols} columns")
    if out is None:
        out = np.zeros(m)
    elif out.shape != (m,):
        raise ValueError(f"output of shape {out.shape} for {m} rows")
    else:
        out.fill(0.0)
    _sparsetools.csr_matvec(m, n_cols, indptr, indices, data, v, out)
    return out


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
    return PackedMdp(c, first, indptr, indices, data)


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
    targets, rates = table.indices.tolist(), table.data.tolist()
    bounds = table.indptr.tolist()
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
    edges = [_TRANSITION % pair for pair in zip(table.indices.tolist(), table.data.tolist())]
    bounds = table.indptr.tolist()
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
