"""Discretized sections over group-orbit lattices.

An :class:`OrbitSampling` is a finite window of a discrete subgroup lattice
written in second-kind coordinates, so left translation by a lattice element
permutes indices exactly and the section transform needs no interpolation.
Its anchor is a state row (3,) and its base points one array of state rows
``base_array`` (J, 3), and base functions are evaluated on such rows in one
batched call; its group matrices ``group_mats`` are stored plane by plane (a
(J, n, n) view of a C-contiguous (n, n, J) array), the layout
``groups.left_translate`` reads and returns.  Sections optionally carry one closed-form evaluator (group
matrices -> fiber values) and record their live ``modes``: the leading
fiber modes in which their values and field can be nonzero (a probe fills
only its low modes).  The evaluator, ``live_field``, computes only those
modes; ``field`` is its full-width view.
A section has one storage: a ``block`` of values (len(rows), d) on sorted
sample indices ``rows``, zero on every other sample; a section built
without ``rows`` lies on every sample (the sampling's shared ``all_rows``).
The lattice transform, sums, differences, scalings, multiplication, the
pairing and the sup-norm run once, on blocks: an operation reads the union
of its operands' rows, and an operand whose rows already span that union is
used as it is, so a compactly supported probe moves only its support and a
field-backed section all of its samples.  The dense (J, d) ``values`` are
built only when read.  The left-regular transform psi'(h) = U_g psi(g^-1 h)
of a field is written once, :func:`pulled_field`, and always pulls the live
modes only (it also serves each Garding kernel node, the off-lattice
transform and the reconstruction flow); :func:`transformed_field` is that
transform of a bare field, so transforms and generators compose as field
maps and build one section at the end.  The central difference of a
one-parameter family of arrays is written once, :func:`central_difference`:
the generators of the action and of its reconstruction and every base
derivative are that difference.  Only
:func:`section_transform` moves lattice values by exact re-indexing;
everything that must leave the lattice needs the field and refuses
otherwise.  A lattice element g fixes that re-indexing once per sampling:
:meth:`OrbitSampling.transport` looks the sources up by coordinates the
first time g is seen and caches the image of every sample, g^-1 and U_g as
a :class:`Transport`.
"""

from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .actions import BundleAction
from .errors import AlignmentError, InputError
from .groups import as_matrix, left_translate, scaled_square_radius, smooth_bump

__all__ = [
    "LatticeAxis",
    "OrbitSampling",
    "Transport",
    "Section",
    "BaseFunction",
    "SampledBaseFunction",
    "state_keys",
    "pulled_field",
    "central_difference",
    "section_transform",
    "transformed_field",
    "evaluator_transform",
    "multiply",
    "pullback",
    "pairing",
    "reconstruct_pointwise_operator",
    "delta_section",
    "smooth_probe_section",
    "gentle_probe_section",
]

_ALIGN_TOL = 1e-9
_STATE_RESOLUTION = 1e-9
# a transform may drop at most this share of a section's mass |values|^2
_SUPPORT_TOL = 1e-10


def state_keys(rows: np.ndarray) -> np.ndarray:
    """Integer keys of state rows: rows that agree to ``_STATE_RESOLUTION``
    in every coordinate are one base point.  Raises InputError for a
    coordinate whose key an int64 cannot hold (it would wrap)."""
    keys = np.round(np.asarray(rows) / _STATE_RESOLUTION)
    if not np.all(np.abs(keys) < 2.0 ** 63):
        raise InputError(f"state coordinates beyond {2.0 ** 63 * _STATE_RESOLUTION:.3g} "
                         "have no int64 key")
    return keys.astype(np.int64)


@dataclass(frozen=True)
class LatticeAxis:
    """One second-kind coordinate axis of the sampling lattice.

    ``kind`` is "line" (integer window [lo, hi]) or "cycle" (indices modulo
    ``count`` with spacing = period / count).
    """

    spacing: float
    kind: str = "line"
    lo: int = 0
    hi: int = 0
    count: int = 0

    @staticmethod
    def line(spacing: float, lo: int, hi: int) -> "LatticeAxis":
        if hi < lo:
            raise InputError("empty lattice axis")
        return LatticeAxis(spacing=spacing, kind="line", lo=lo, hi=hi)

    @staticmethod
    def cycle(period: float, count: int) -> "LatticeAxis":
        if count < 1:
            raise InputError("cyclic axis needs at least one node")
        return LatticeAxis(spacing=period / count, kind="cycle", count=count)

    def indices(self) -> np.ndarray:
        if self.kind == "line":
            return np.arange(self.lo, self.hi + 1)
        return np.arange(self.count)

    def contains(self, steps: np.ndarray) -> np.ndarray:
        if self.kind == "cycle":
            return np.ones(np.shape(steps), dtype=bool)
        return (steps >= self.lo) & (steps <= self.hi)


@dataclass(frozen=True)
class Transport:
    """Exact re-indexing of the samples by a lattice element g (Eq. 7a):
    the transformed value at sample ``target[j]`` is U_g applied to the
    value at sample j; ``target`` is -1 where the image leaves the window,
    and it carries a section's ``rows`` through the transform.  ``inverse``
    is g^-1 and ``fiber`` is U_g.  Every array is read-only."""

    inverse: np.ndarray
    target: np.ndarray
    fiber: np.ndarray


class OrbitSampling:
    """Finite lattice window of a group orbit through an anchor state row.

    Samples are de-duplicated modulo the numerically detected stabilizer
    (base points with equal :func:`state_keys` collapse to their first
    representative), so ``len`` counts the distinct base points.
    ``group_mats`` (J, n, n) is stored plane by plane (its ``transpose(1, 2,
    0)`` is C-contiguous), so each term of a left translation reads a
    contiguous plane.
    """

    def __init__(self, action: BundleAction, anchor: np.ndarray,
                 axes: Sequence[LatticeAxis]):
        group = action.group
        if len(axes) != group.dim:
            raise InputError("one lattice axis per group coordinate required")
        self.action = action
        self.anchor = anchor
        self.axes = tuple(axes)
        self.spacings = np.array([ax.spacing for ax in axes])
        for k, ax in enumerate(axes):
            if ax.kind == "cycle":
                period = group.periodic_axes.get(k)
                if period is None:
                    raise InputError("cyclic axis on a non-periodic coordinate")
                if abs(ax.spacing * ax.count - period) > 1e-12:
                    raise InputError("cyclic axis does not tile the period")

        grids = np.meshgrid(*[ax.indices() for ax in axes], indexing="ij")
        all_steps = np.stack([g.ravel() for g in grids], axis=-1)
        # identity-first canonical order so stabilizer classes keep the
        # earliest representative
        order = np.lexsort(tuple(all_steps.T[::-1]) + (np.sum(np.abs(all_steps), axis=1),))
        all_steps = all_steps[order]

        # g = A_1^{s_1} A_2^{s_2} ..., one matrix_power per distinct step
        # value of an axis; a zero step leaves the product untouched
        axis_mats = [group.compose_exps(ax.spacing * np.eye(group.dim)[k])
                     for k, ax in enumerate(axes)]
        mats = np.tile(np.eye(group.rep_dim, dtype=np.result_type(*axis_mats)),
                       (all_steps.shape[0], 1, 1))
        for k, axis_mat in enumerate(axis_mats):
            values, where = np.unique(all_steps[:, k], return_inverse=True)
            powers = np.array([np.linalg.matrix_power(axis_mat, int(s)) for s in values])
            nz = all_steps[:, k] != 0
            mats[nz] = mats[nz] @ powers[where[nz]]

        base = action.base_points(mats, anchor)
        _, first = np.unique(state_keys(base), axis=0, return_index=True)
        keep = np.sort(first)

        self.steps = all_steps[keep]
        self.group_mats = np.ascontiguousarray(
            mats.transpose(1, 2, 0)[:, :, keep]).transpose(2, 0, 1)
        self.base_array = base[keep]

        # flat position table for vectorized index lookups
        self._axis_lo = np.array([ax.lo if ax.kind == "line" else 0 for ax in axes])
        self._axis_size = np.array(
            [ax.hi - ax.lo + 1 if ax.kind == "line" else ax.count for ax in axes])
        self._axis_stride = np.ones(len(axes), dtype=np.int64)
        for k in range(len(axes) - 2, -1, -1):
            self._axis_stride[k] = self._axis_stride[k + 1] * self._axis_size[k + 1]
        table = np.full(int(np.prod(self._axis_size)), -1, dtype=np.int64)
        flat = (self.steps - self._axis_lo) @ self._axis_stride
        table[flat] = np.arange(self.steps.shape[0])
        self._position_table = table
        self._transports = {}
        # the rows of a section on every sample, shared and read-only
        self.all_rows = np.arange(self.steps.shape[0])
        self.all_rows.flags.writeable = False

    def __len__(self) -> int:
        return self.steps.shape[0]

    @property
    def fiber_dim(self) -> int:
        return self.action.fiber_dim

    def identity_index(self) -> int:
        origin = np.zeros((1, len(self.axes)), dtype=np.int64)
        index = int(self._indices_of_steps(origin)[0])
        if index < 0:
            raise InputError("the identity is outside the sampled window")
        return index

    def indices_of_matrices(self, mats: np.ndarray) -> np.ndarray:
        """Sample indices of a stack of group matrices (-1 where the point is
        outside the window); raises AlignmentError on off-lattice points."""
        coords = self.action.group.coords_batch(mats)
        raw = coords / self.spacings
        steps = np.round(raw).astype(np.int64)
        if raw.size and np.max(np.abs(raw - steps)) > _ALIGN_TOL / np.min(self.spacings):
            raise AlignmentError("off-lattice point in index lookup")
        return self._indices_of_steps(steps)

    def _indices_of_steps(self, steps: np.ndarray) -> np.ndarray:
        """Sample indices of integer lattice steps (-1 outside the window)."""
        inside = np.ones(steps.shape[0], dtype=bool)
        for k, ax in enumerate(self.axes):
            if ax.kind == "cycle":
                steps[:, k] = np.mod(steps[:, k], ax.count)
            inside &= ax.contains(steps[:, k])
        out = np.full(steps.shape[0], -1, dtype=np.int64)
        if np.any(inside):
            flat = (steps[inside] - self._axis_lo) @ self._axis_stride
            out[inside] = self._position_table[flat]
        return out

    def transport(self, g) -> Transport:
        """The :class:`Transport` of the lattice element ``g`` (a matrix or
        a GroupElement), computed on first use and cached by the shape,
        dtype and bytes of its matrix; raises AlignmentError if ``g`` is
        off the lattice."""
        g_mat = as_matrix(g)
        key = (g_mat.shape, g_mat.dtype.str, g_mat.tobytes())
        cached = self._transports.get(key)
        if cached is not None:
            return cached
        inverse = np.linalg.inv(g_mat)
        sources = self.indices_of_matrices(left_translate(inverse, self.group_mats))
        dest = np.flatnonzero(sources >= 0)
        target = np.full(len(self), -1, dtype=np.int64)
        target[sources[dest]] = dest
        transport = Transport(inverse, target, self.action.fiber_matrix(g_mat))
        for array in vars(transport).values():
            array.flags.writeable = False
        self._transports[key] = transport
        return transport

    def state_rows(self, mats: np.ndarray) -> np.ndarray:
        """Orbit base points u_g(anchor) for arbitrary group matrices."""
        return self.action.base_points(mats, self.anchor)


@dataclass(frozen=True)
class Section:
    """Sampled section: the fiber values ``block`` (len(rows), d) on the
    sorted sample indices ``rows``, zero on every other sample, plus an
    optional closed-form batch evaluator over group matrices.  Without
    ``rows`` the block holds every sample, so ``Section(sampling, values)``
    takes dense (J, d) values; ``values`` reads them back dense, building
    the array unless the rows are every sample.  Rows are trusted, not
    checked: the library sets them only where the support is known without
    a scan.

    ``modes`` is the number of leading fiber modes in which the values and
    the field can be nonzero (the fiber dimension when not given).  The
    section keeps one evaluator, ``live_field``, which returns only those
    columns, (n, modes); every pull (:func:`pulled_field`) multiplies just
    them.  ``field`` is the full-width (n, d) view of it, zero-padded when
    ``modes`` < d.  A section derived from others keeps the full width.
    Raises InputError when ``modes`` is outside 1..d or a value beyond it is
    nonzero."""

    sampling: OrbitSampling
    block: np.ndarray
    live_field: Optional[Callable[[np.ndarray], np.ndarray]] = None
    modes: Optional[int] = None
    rows: Optional[np.ndarray] = None

    def __post_init__(self):
        block = np.asarray(self.block, dtype=complex)
        rows = self.sampling.all_rows if self.rows is None else self.rows
        dim = self.sampling.fiber_dim
        if block.shape != (len(rows), dim):
            raise InputError("section values have the wrong shape")
        modes = dim if self.modes is None else self.modes
        if not 1 <= modes <= dim:
            raise InputError(f"live modes {modes} outside 1..{dim}")
        if modes < dim and block[:, modes:].any():
            raise InputError(f"section values beyond its {modes} live modes")
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def from_field(sampling: OrbitSampling, field) -> "Section":
        """The section of ``field`` on every sample; a field of k < d
        columns is the ``live_field`` of k live modes."""
        block = field(sampling.group_mats)
        modes = block.shape[1]
        if modes < sampling.fiber_dim:
            block = np.pad(block, ((0, 0), (0, sampling.fiber_dim - modes)))
        return Section(sampling, block, field, modes)

    @property
    def field(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Full-width evaluator mats -> (n, d): ``live_field`` itself, or
        its columns written into zeros when it has fewer than d."""
        live, modes, dim = self.live_field, self.modes, self.sampling.fiber_dim
        if live is None or modes == dim:
            return live

        def padded(mats):
            out = np.zeros((np.shape(mats)[0], dim), dtype=complex)
            out[:, :modes] = live(mats)
            return out
        return padded

    @property
    def values(self) -> np.ndarray:
        """Dense (J, d) values: the block itself when the rows are every
        sample, otherwise zeros with the block written at the rows."""
        if len(self.rows) == len(self.sampling):
            return self.block
        values = np.zeros((len(self.sampling), self.block.shape[1]), dtype=complex)
        values[self.rows] = self.block
        return values

    @property
    def norm(self) -> float:
        """Sup-norm over the orbit: max fiber norm over the rows."""
        if len(self.block) == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self.block, axis=1)))

    def _combine(self, op, *others) -> "Section":
        """``op`` applied to the blocks on the union of the operands' rows,
        and to the fields when every operand carries one."""
        for other in others:
            if other.sampling is not self.sampling:
                raise InputError("sections live on different samplings")
        fields = [s.field for s in (self, *others)]
        f = None
        if all(fl is not None for fl in fields):
            f = lambda mats: op(*(fl(mats) for fl in fields))
        operands = (self, *others)
        rows = _union_rows(operands)
        block = op(*(_block_on(s, rows) for s in operands))
        return Section(self.sampling, block, f, rows=rows)

    def __add__(self, other: "Section") -> "Section":
        return self._combine(operator.add, other)

    def __sub__(self, other: "Section") -> "Section":
        return self._combine(operator.sub, other)

    def __mul__(self, scale: complex) -> "Section":
        return self._combine(lambda values: scale * values)

    __rmul__ = __mul__


@dataclass(frozen=True)
class BaseFunction:
    """Complex function on the base, evaluated on stacked state rows
    (J, 3) by ``batch(rows)``.

    A scalar form passed as ``fn`` is accepted and never evaluated.
    """

    batch: Callable[[np.ndarray], np.ndarray]
    fn: InitVar[Optional[Callable]] = None

    def eval_rows(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(self.batch(rows), dtype=complex)

    def eval_on(self, sampling: OrbitSampling) -> np.ndarray:
        return self.eval_rows(sampling.base_array)


@dataclass(frozen=True)
class SampledBaseFunction:
    """Base-function samples aligned with an orbit sampling (the output of
    the pairing), with the field they sample when there is one."""

    sampling: OrbitSampling
    values: np.ndarray
    field: Optional[Callable[[np.ndarray], np.ndarray]] = None


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _union_rows(sections) -> np.ndarray:
    """The union of the sections' ``rows`` (sorted); the sampling's
    ``all_rows`` as soon as one operand spans every sample."""
    rows = sections[0].rows
    size = len(sections[0].sampling)
    for s in sections[1:]:
        if len(rows) == size or len(s.rows) == size:
            return sections[0].sampling.all_rows
        if s.rows is not rows:
            # a mask over the samples, far cheaper than np.union1d's sort
            mask = np.zeros(size, dtype=bool)
            mask[rows] = mask[s.rows] = True
            rows = np.flatnonzero(mask)
    return rows


def _block_on(psi: Section, rows: np.ndarray) -> np.ndarray:
    """``psi``'s values on ``rows``, a sorted superset of its rows: its own
    block when they are the same rows, else zeros with the block written in
    place."""
    if len(psi.rows) == len(rows):
        return psi.block
    block = np.zeros((len(rows), psi.block.shape[1]), dtype=complex)
    block[np.searchsorted(rows, psi.rows)] = psi.block
    return block


def _row_product(block: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``block @ matrix`` rounded as in the dense product of all rows.
    numpy sends a one-row product to BLAS gemv, which rounds differently
    from gemm; a lone row is therefore multiplied beside a zero row."""
    if block.shape[0] != 1:
        return block @ matrix
    return (np.concatenate([block, np.zeros_like(block)]) @ matrix)[:1]


def pulled_field(field, pull: np.ndarray, V: np.ndarray):
    """The field  mats -> field(pull . mats) V^T: fiber values pulled back
    along the left translation by ``pull`` and moved by the fiber matrix
    ``V``.  With pull = g^-1 and V = U_g it is the left-regular transform
    (Eq. 7a); with pull = exp(-t B_k) and V = exp(-i t H(B_k)) it is the
    one-parameter flow of the reconstruction (Eq. 26).  ``field`` may give
    only a section's k live modes (``Section.live_field``, (n, k)): the
    product then reads only the first k columns of ``V``, a (n, k) @ (k, d)
    product instead of one over zero padding.  ``V`` may itself keep only
    those columns, shape (d, k) (a Garding node)."""

    def pulled(mats):
        live = field(left_translate(pull, mats))
        return live @ V[:, :live.shape[1]].T
    return pulled


def central_difference(family, tau: float):
    """``(family(tau) - family(-tau)) / (2 tau)``: the derivative at t = 0
    of a one-parameter family of arrays by central differences (Eq. 16a),
    the one stencil of the package and the only code naming its nodes:
    callers build each member at the step it asks for."""
    return (family(tau) - family(-tau)) / (2.0 * tau)


def section_transform(action: BundleAction, g, psi: Section) -> Section:
    """Left regular transform: value at u_h(anchor) becomes
    U_g applied to the value at u_{g^-1 h}(anchor).

    ``g`` must be lattice-aligned (the source lookup raises AlignmentError
    otherwise); re-indexing is exact.  The image of every sample, g^-1 and
    U_g are computed once per (sampling, g) and cached
    (:meth:`OrbitSampling.transport`), so a repeated g costs one gather and
    one matrix product.  Only the section's rows move: they are mapped
    through ``Transport.target``, the block rows that stay are multiplied by
    U_g (each row rounds as in the product of all samples) in the order of
    their images, and those images are the result's ``rows``.  Nonzero
    values may not leave the sampled window (that would silently truncate
    the section): support overflow, a mass on the leaving rows above 1e-10
    of the section's mass, raises AlignmentError.
    """
    sampling = psi.sampling
    if action is not sampling.action:
        raise InputError("section transform with a foreign action")
    transport = sampling.transport(g)
    images = transport.target[psi.rows]
    stays = images >= 0
    lost_mass = np.sum(np.abs(psi.block[~stays]) ** 2)
    # the total mass is summed only when something is lost
    if lost_mass > 0.0 and lost_mass > _SUPPORT_TOL * np.sum(np.abs(psi.block) ** 2):
        raise AlignmentError(
            "section support left the sampled window under this transform")
    kept = np.flatnonzero(stays)
    kept = kept[np.argsort(images[kept])]
    new_field = None if psi.live_field is None else pulled_field(
        psi.live_field, transport.inverse, transport.fiber)
    return Section(sampling, _row_product(psi.block[kept], transport.fiber.T),
                   new_field, rows=images[kept])


def transformed_field(action: BundleAction, g, field):
    """The field of the left regular transform by ``g`` (any group element,
    on the lattice or off it) of the field ``field``: ``field`` pulled by
    g^-1 and moved by U_g, both computed here once."""
    g_mat = as_matrix(g)
    return pulled_field(field, np.linalg.inv(g_mat), action.fiber_matrix(g_mat))


def evaluator_transform(action: BundleAction, g, psi: Section) -> Section:
    """Left regular transform of a field-backed section at an arbitrary
    (possibly off-lattice) group element: values are re-evaluated from the
    closed-form field (its live modes only), never interpolated.
    Lattice-only sections are refused."""
    if psi.field is None:
        raise AlignmentError(
            "off-lattice transform needs a field-backed section")
    sampling = psi.sampling
    if action is not sampling.action:
        raise InputError("section transform with a foreign action")
    return Section.from_field(sampling, transformed_field(action, g, psi.live_field))


def multiply(alpha: BaseFunction, psi: Section) -> Section:
    """Multiplication operator: value at X scaled by alpha(X); alpha is
    evaluated on psi's rows only."""
    sampling = psi.sampling
    new_field = None
    if psi.field is not None:
        pf = psi.field
        def new_field(mats):
            rows = sampling.state_rows(mats)
            return alpha.eval_rows(rows)[:, None] * pf(mats)
    scale = alpha.eval_rows(sampling.base_array[psi.rows])
    return Section(sampling, scale[:, None] * psi.block, new_field, rows=psi.rows)


def pullback(action: BundleAction, g, alpha: BaseFunction) -> BaseFunction:
    """Base-function pullback: X -> alpha(u_{g^-1} X)."""
    g_mat = as_matrix(g)
    inv = np.linalg.inv(g_mat)

    def batch(rows: np.ndarray) -> np.ndarray:
        return alpha.eval_rows(action.base_rows(inv, rows))

    return BaseFunction(batch=batch)


def pairing(phi: Section, psi: Section) -> SampledBaseFunction:
    """Pointwise fiber inner products <phi_X, psi_X> over the sampling
    (conjugate-linear in the first argument), reduced on the union of the
    sections' rows only and zero elsewhere; the result is dense (J,).  When
    both sections share one field, the pairing's field evaluates it once
    per point set."""
    if phi.sampling is not psi.sampling:
        raise InputError("pairing requires a common sampling")
    rows = _union_rows((phi, psi))
    vals = np.zeros(len(phi.sampling), dtype=complex)
    vals[rows] = np.sum(np.conj(_block_on(phi, rows)) * _block_on(psi, rows), axis=1)
    field = None
    if phi.live_field is not None and psi.live_field is not None:
        pf, qf = phi.field, psi.field
        shared = phi.live_field is psi.live_field and phi.modes == psi.modes

        def field(mats):
            v = pf(mats)
            return np.sum(np.conj(v) * (v if shared else qf(mats)), axis=1)
    return SampledBaseFunction(phi.sampling, vals, field)


def delta_section(sampling: OrbitSampling, index: int, value: np.ndarray) -> Section:
    """Section supported on a single sample (the bump reconstruction probe):
    one block row ``value`` at ``index`` (negative indices count from the
    end).  Raises InputError for an index outside [-J, J) or a value whose
    shape is not (d,)."""
    size = len(sampling)
    if not -size <= index < size:
        raise InputError(f"sample index {index} outside [-{size}, {size})")
    value = np.asarray(value, dtype=complex)
    if value.shape != (sampling.fiber_dim,):
        raise InputError(f"delta value of shape {value.shape}, "
                         f"not ({sampling.fiber_dim},)")
    return Section(sampling, value[None, :], rows=np.array([index % size]))


def reconstruct_pointwise_operator(sampling: OrbitSampling, g, X: np.ndarray,
                                   phi0: np.ndarray) -> np.ndarray:
    """Recover U_g(u_g X <- X) phi0 from the section transform alone: plant
    phi0 in a bump section at X, transform, and read off the value at u_g X."""
    dists = np.linalg.norm(sampling.base_array - X, axis=1)
    idx = int(np.argmin(dists))
    if dists[idx] > 1e-9:
        raise AlignmentError("state is not on the sampled orbit")
    psi = delta_section(sampling, idx, phi0)
    moved = section_transform(sampling.action, g, psi)
    if sampling.transport(g).target[idx] < 0:
        raise AlignmentError("transformed point left the sampled window")
    return moved.block[0]


# ---------------------------------------------------------------------------
# probe sections
# ---------------------------------------------------------------------------

def _probe_section(sampling: OrbitSampling, rng: np.random.Generator,
                   max_degree: int, size, gentle: bool) -> Section:
    """Random section: an envelope in second-kind coordinates t times a
    low-mode fiber profile with smooth coordinate dependence.  The envelope
    is a C-infinity bump of per-axis radius ``size``, or, when ``gentle``, a
    Gaussian of per-axis width ``size`` under a bump of radius 4 ``size``;
    either reads the scaled square radius of t at ``size`` once.  Raises
    InputError unless every size is finite and positive.
    Carries an exact batch field.  The profile lives on the first
    ``min(max_degree + 1, d)`` fiber modes, the section's ``modes``: its
    ``live_field`` computes only those columns, and only the block (and the
    ``field`` view) holds zeros beyond them.  The section's ``rows`` are the
    samples with a nonzero live value; it stores its values on those rows
    only."""
    group = sampling.action.group
    dim = sampling.fiber_dim
    size = np.asarray(size, dtype=float)
    if not (size.size and np.all(size > 0.0) and np.all(np.isfinite(size))):
        raise InputError(f"probe size {size} is not finite and positive")
    modes = min(max_degree + 1, dim)

    def draw_vec():
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v[max_degree + 1:] = 0.0
        return v

    v0 = draw_vec()
    v0 /= np.linalg.norm(v0)
    slopes = np.stack([0.3 * draw_vec() for _ in range(group.dim)])
    kappa = rng.uniform(-1.0, 1.0, group.dim)
    v0, slopes = v0[:modes], np.ascontiguousarray(slopes[:, :modes])

    def live_field(mats):
        t = group.coords_batch(np.asarray(mats))
        r2 = scaled_square_radius(t, size)
        # at 4 size the scaled square radius is r2 / 16, exactly (a power of two)
        env = smooth_bump(r2 / 16.0) * np.exp(-0.5 * r2) if gentle else smooth_bump(r2)
        phase = np.exp(1j * (t @ kappa))
        return (env * phase)[:, None] * (v0[None, :] + t @ slopes)

    live = live_field(sampling.group_mats)
    rows = np.flatnonzero(live.any(axis=1))
    block = np.zeros((len(rows), dim), dtype=complex)
    block[:, :modes] = live[rows]
    return Section(sampling, block, live_field, modes, rows)


def smooth_probe_section(sampling: OrbitSampling, rng: np.random.Generator,
                         max_degree: int, radius) -> Section:
    """Smooth compactly supported random section: a C-infinity bump of
    per-axis ``radius`` in second-kind coordinates times a low-mode fiber
    profile with smooth coordinate dependence."""
    return _probe_section(sampling, rng, max_degree, radius, gentle=False)


def gentle_probe_section(sampling: OrbitSampling, rng: np.random.Generator,
                         max_degree: int, sigma) -> Section:
    """Probe with gentle derivatives for finite-difference work: a Gaussian
    bulk of width ``sigma`` per axis under a wide bump (support at
    ``4 sigma``), so the bump's boundary layer is exponentially suppressed
    and fd residuals scale with 1/sigma, not with the bump edge."""
    return _probe_section(sampling, rng, max_degree, sigma, gentle=True)
