"""Reduction of a transient total-cost MDP to a discounted MDP.

The construction rescales rates by the optimal-lifetime vector mu and adds
one cost-free absorbing state that soaks up the leftover probability mass:

    c'(x, a) = c(x, a) / mu(x)
    p'(y | x, a) = q(y | x, a) mu(y) / (beta mu(x))          y in X
    p'(sink | x, a) = 1 - sum_y p'(y | x, a)

with discount factor beta in [(K - 1)/K, 1).  The certificate inequality
mu(x) >= 1 + sum q(y|x,a) mu(y) makes every row a probability distribution.
Total-cost values come back via v(x) = mu(x) * v'(x).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, InstanceFormatError
from .model import (
    ROW_SUM_TOL,
    PackedMdp,
    RateMdp,
    _as_index,
    _as_number,
    _checked_table,
    _dumps_table,
    _json_block,
    _require_keys,
    from_packed,
    instance_from_obj,
)
from .transience import CERT_SLACK, CLAMP_TOL, TransienceCertificate, certificate_residual


@dataclass(frozen=True, eq=False)
class ReductionOrigin:
    """Back-mapping metadata of a reduction: the certificate ``mu`` and, for
    the average-cost reduction, the distinguished state ``ell``."""

    mu: np.ndarray
    ell: int | None = None

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)

    @property
    def kind(self) -> str:
        """``"hv"`` for the total-cost reduction, ``"hvag"`` for the average-cost one."""
        return "hv" if self.ell is None else "hvag"


@dataclass(frozen=True)
class DiscountedMdp:
    """A stochastic-transition MDP with a cost-free absorbing state and a
    scalar discount factor, plus metadata for mapping solutions back.
    Construction (``dataclasses.replace`` too) runs :func:`check_discounted`,
    so every instance holds its invariants."""

    base: RateMdp
    absorbing_state: int
    beta: float
    origin: ReductionOrigin | None = None

    def __post_init__(self):
        check_discounted(self)

    @property
    def n_states(self) -> int:
        return self.base.n_states


def check_discounted(dmdp: DiscountedMdp) -> None:
    """Raise ValueError unless every DiscountedMdp invariant holds:
    probability rows (a valid rate MDP, so nonnegative, summing to 1 within
    1e-12), a single cost-free absorbing action at the absorbing state,
    beta in [0, 1), and an origin that fits the instance: the sink last,
    one finite ``mu`` entry >= 1 (within the certificate slack) per state
    but the sink, and an ``ell`` among those states."""
    base = dmdp.base
    if not 0.0 <= dmdp.beta < 1.0:
        raise ValueError(f"discount factor {dmdp.beta} outside [0, 1)")
    if not 0 <= dmdp.absorbing_state < base.n_states:
        raise ValueError(f"absorbing state {dmdp.absorbing_state} out of range")
    origin, n = dmdp.origin, base.n_states - 1  # the states but the sink
    if origin is not None:
        if dmdp.absorbing_state != n:
            raise ValueError(f"a reduction's absorbing state must be its last state, {n}")
        if origin.mu.shape != (n,):
            raise ValueError(f"origin mu has {origin.mu.size} entries for {n} states")
        if not np.all(np.isfinite(origin.mu) & (origin.mu >= 1.0 - CERT_SLACK)):
            raise ValueError("origin mu must be finite and at least 1")
        if origin.ell is not None and not 0 <= origin.ell < n:
            raise ValueError(f"origin state {origin.ell} out of range")
    table = base.packed
    sums = table.row_sums()
    bad_sum = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad_sum.size:
        r = int(bad_sum[0])
        x, a = int(table.owner[r]), int(table.local[r])
        raise ValueError(
            f"row ({x}, {base.action_name(x, a)}) sums to {float(sums[r])!r}, not 1"
        )
    sink = dmdp.absorbing_state
    row = table.first[sink]
    if table.first[sink + 1] - row != 1 or table.c[row] != 0.0:
        raise ValueError("absorbing state must have exactly one cost-free action")
    lo, hi = table.indptr[row], table.indptr[row + 1]
    if abs(table.data[lo:hi][table.indices[lo:hi] == sink].sum() - 1.0) > ROW_SUM_TOL:
        raise ValueError("absorbing state must transition to itself with probability 1")


def admissible_beta(mdp: RateMdp, mu: np.ndarray, K: float, beta: float | None) -> float:
    """Check the certificate ``mu`` and return ``beta``, by default
    (K - 1)/K, the smallest admissible discount factor.  Raises
    CertificateError when ``mu`` does not fit the instance and ValueError
    when ``beta`` lies outside [(K - 1)/K, 1)."""
    if len(mu) != mdp.n_states:
        raise CertificateError(
            f"certificate has {len(mu)} entries for {mdp.n_states} states"
        )
    if np.any(mu < 1.0 - CERT_SLACK) or np.any(mu > K + CERT_SLACK):
        raise CertificateError("certificate mu outside [1, K]")
    violation = certificate_residual(mdp, mu)
    if violation > max(CERT_SLACK, CLAMP_TOL * K):
        raise CertificateError(
            f"certificate inequality violated by {violation:.3g}"
        )
    low = (K - 1.0) / K
    beta = low if beta is None else float(beta)
    if not low <= beta < 1.0:
        raise ValueError(
            f"discount factor {beta} outside the admissible interval [{low}, 1)"
        )
    return beta


def rescale(
    mdp: RateMdp, mu: np.ndarray, beta: float, ell: int | None = None
) -> DiscountedMdp:
    """The discounted instance of either reduction, for a certificate ``mu``
    and a discount factor ``beta`` that :func:`admissible_beta` accepted.

    Costs become c/mu and rates D(1/(beta mu)) Q D(mu).  With ``ell``
    given, ``mdp`` must have no rates into ``ell``, as
    :func:`truncate_at_state` leaves it.  Each row keeps its targets in
    order, then (with ``ell``) the lifetime surplus into ``ell``, then the
    sink.  At beta = 0 every row goes straight to the sink.  Probabilities
    that are exactly zero are dropped; those in [-1e-12, 0) are round-off,
    clamped to zero with their row renormalized; anything more negative
    raises CertificateError.
    """
    names = mdp.row_names() + (None,)
    return DiscountedMdp(
        base=from_packed(
            _rescaled_table(mdp, mu, beta, ell), names, _extend_labels(mdp.state_labels)
        ),
        absorbing_state=mdp.n_states,
        beta=beta,
        origin=ReductionOrigin(mu=mu, ell=ell),
    )


def _rescaled_table(mdp: RateMdp, mu: np.ndarray, beta: float, ell: int | None):
    table = mdp.packed
    n, m = mdp.n_states, len(table.c)
    mu_x = mu[table.owner]
    denom = beta * mu_x
    if not beta:  # only the sink
        indices, lengths = table.indices[:0], np.zeros(m, dtype=table.lengths.dtype)
        moved, tails = table.data[:0], [(n, np.ones(m))]
    else:
        indices, lengths = table.indices, table.lengths
        moved = mu[indices]
        moved *= table.data
        moved /= np.repeat(denom, lengths)
        if ell is None:
            tails = [(n, 1.0 - table.row_sums(moved))]
        else:  # the surplus mu_x - 1 - R mu, its products added in order
            surplus = mu_x - 1.0 - table.matvec(mu)
            tails = [(ell, surplus / denom), (n, 1.0 - (mu_x - 1.0) / denom)]

    # row r: its own entries, then one per tail; the sink's row comes last
    k = len(tails)
    indptr = np.zeros(m + 2, dtype=np.intp)
    np.cumsum(lengths + k, out=indptr[1:-1])
    indptr[-1] = indptr[-2] + 1
    targets = np.full(indptr[-1], n, dtype=indices.dtype)
    probs = np.ones(indptr[-1])
    own = np.ones(indptr[-1], dtype=bool)
    own[-1] = False
    for i, (target, p) in enumerate(tails):
        at = indptr[1:-1] - k + i
        targets[at], probs[at], own[at] = target, p, False
    targets[own], probs[own] = indices, moved

    negative = np.flatnonzero(probs < -CLAMP_TOL)
    if negative.size:
        i = negative[0]
        row = np.searchsorted(indptr, i, side="right") - 1
        x, a = int(table.owner[row]), int(table.local[row])
        raise CertificateError(
            f"transformed probability {probs[i]:.3e} at ({x}, {mdp.action_name(x, a)}) "
            f"is genuinely negative; the certificate does not fit this instance"
        )
    c, first = np.append(table.c / mu_x, 0.0), np.append(table.first, m + 1)
    keep = probs > 0.0
    if not keep.all():
        clamped = np.add.reduceat(probs < 0.0, indptr[:-1], dtype=np.intp) > 0
        counts = np.add.reduceat(keep, indptr[:-1], dtype=np.intp)
        targets, probs = targets[keep], probs[keep]
        np.cumsum(counts, out=indptr[1:])
        if clamped.any():
            row_of = np.repeat(np.arange(m + 1), counts)
            totals = PackedMdp(c, first, indptr, targets, probs).row_sums()
            probs = np.where(clamped[row_of], probs / totals[row_of], probs)
    return PackedMdp(c, first, indptr, targets, probs)


def _extend_labels(labels):
    if labels is None:
        return None
    label = "sink"
    while label in labels:
        label += "~"
    return tuple(labels) + (label,)


def build_hv(
    mdp: RateMdp, cert: TransienceCertificate, beta: float | None = None
) -> DiscountedMdp:
    """Build the discounted reduction of a transient total-cost instance.

    ``beta`` defaults to (K - 1)/K, the smallest admissible discount factor
    (solver iteration bounds degrade as beta approaches 1).  K = 1 forces
    beta = 0; the instance then has no transitions at all and every action
    is wired straight into the sink, whose kernel a 0-discount solver never
    consults.
    """
    mu = np.asarray(cert.mu, dtype=float)
    return rescale(mdp, mu, admissible_beta(mdp, mu, cert.K, beta))


def lift_total_value(dv: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Map discounted values back to total-cost values: v(x) = mu(x) dv(x).

    ``dv`` runs over the augmented state space with the absorbing state
    last; its value there must be zero (the state is cost-free).
    """
    mu = np.asarray(mu, dtype=float)
    return mu * _without_sink(dv, mu)


def _without_sink(dv: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The entries of ``dv`` but the absorbing state's, after checking that
    ``dv`` has one more entry than ``mu`` and is zero at the sink."""
    dv = np.asarray(dv, dtype=float)
    if len(dv) != len(mu) + 1:
        raise ValueError(f"expected {len(mu) + 1} values, got {len(dv)}")
    if abs(dv[-1]) > 1e-12:
        raise ValueError(f"absorbing-state value must be 0, got {dv[-1]!r}")
    return dv[:-1]


def total_optimal_actions(mdp: RateMdp, v: np.ndarray, tol):
    """Per-state sets of actions optimal for the total-cost criterion:
    those with |v(x) - [c(x,a) + sum_y q(y|x,a) v(y)]| <= tol.

    An empty set at some state means ``v`` is not the total-cost value
    function at this tolerance, which is an error.
    """
    table = mdp.packed
    v = np.asarray(v, dtype=float)
    return table.action_sets(table.gap(v, v), tol, "total-cost optimality equation")


def similarity_transform(mdp: RateMdp, b: np.ndarray) -> RateMdp:
    """Positive diagonal similarity: c'(x,a) = b(x) c(x,a) and
    q'(y|x,a) = b(x) q(y|x,a) / b(y).

    Transience of a policy, optimality of a policy, and geometric value
    iteration are all invariant under this rescaling; with b = 1/mu the
    transformed row sums drop below (K - 1)/K.  Raises ValueError when
    ``b`` makes a cost or a rate non-finite.
    """
    b = np.asarray(b, dtype=float)
    if len(b) != mdp.n_states:
        raise ValueError(f"b has {len(b)} entries for {mdp.n_states} states")
    if not np.all(np.isfinite(b) & (b > 0.0)):
        raise ValueError("similarity vector must be entrywise finite and positive")
    table, names = mdp.packed, mdp.row_names()
    lengths = table.lengths
    with np.errstate(over="ignore", invalid="ignore"):  # named by _checked_table
        c = b[table.owner] * table.c
        rates = b[np.repeat(table.owner, lengths)] * table.data / b[table.indices]
    scaled = _checked_table(
        mdp.n_states, np.diff(table.first), lengths, c, names, table.indices, rates
    )
    return from_packed(scaled, names, mdp.state_labels)


# ---------------------------------------------------------------------------
# Serialization: same instance format as RateMdp plus a "discounted" header
# carrying beta, the absorbing-state index, and the origin metadata.
# ---------------------------------------------------------------------------


def discounted_from_obj(obj) -> DiscountedMdp:
    if not isinstance(obj, dict) or "discounted" not in obj:
        raise InstanceFormatError("missing 'discounted' header")
    header = obj["discounted"]
    base = instance_from_obj({k: v for k, v in obj.items() if k != "discounted"})
    if not isinstance(header, dict):
        raise InstanceFormatError("'discounted' header must be an object")
    keys = ("beta", "absorbing_state", "origin")
    _require_keys(header, set(keys), keys, "discounted")
    n, labels = base.n_states, base.state_labels
    index = None if labels is None else {label: y for y, label in enumerate(labels)}
    spec = header["origin"]
    origin = None
    if spec is not None:
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if kind not in ("hv", "hvag"):
            raise InstanceFormatError("unrecognized 'origin' in 'discounted' header")
        fields = ("kind", "mu", "ell")[: 2 if kind == "hv" else 3]
        _require_keys(spec, set(fields), fields, "discounted.origin")
        if not isinstance(spec["mu"], list):
            raise InstanceFormatError("'mu' must be an array at discounted.origin")
        mu = [_as_number(m, f"discounted.origin.mu[{i}]") for i, m in enumerate(spec["mu"])]
        ell = None if kind == "hv" else _as_index(spec["ell"], n - 1, index, "discounted.origin.ell")
        origin = ReductionOrigin(np.array(mu, dtype=float), ell)
    absorbing = _as_index(header["absorbing_state"], n, index, "discounted.absorbing_state")
    return DiscountedMdp(base, absorbing, _as_number(header["beta"], "discounted.beta"), origin)


def dumps_discounted(dmdp: DiscountedMdp) -> str:
    """The discounted instance file: the bytes of ``json.dumps`` with
    ``indent=2``, written from the base instance's packed table."""
    origin = dmdp.origin
    described = "null"
    if origin is not None:
        mu = _json_block(list(map(json.dumps, origin.mu.tolist())), "      ")
        members = [f'"kind": {json.dumps(origin.kind)}', f'"mu": {mu}']
        if origin.ell is not None:
            members.append(f'"ell": {json.dumps(origin.ell)}')
        described = _json_block(members, "    ", "{}")
    header = [
        f'"beta": {json.dumps(dmdp.beta)}',
        f'"absorbing_state": {json.dumps(dmdp.absorbing_state)}',
        f'"origin": {described}',
    ]
    return _dumps_table(dmdp.base, [f'"discounted": {_json_block(header, "  ", "{}")}'])


def loads_discounted(text: str) -> DiscountedMdp:
    return discounted_from_obj(json.loads(text))


def dump_discounted(dmdp: DiscountedMdp, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_discounted(dmdp))


def load_discounted(path) -> DiscountedMdp:
    with open(path, "r", encoding="utf-8") as fh:
        return discounted_from_obj(json.load(fh))
