"""Out-of-plane eigenmodes of the effective annular plate.

The plate operator is separated circumferentially: for each harmonic ``n``
the transverse displacement is ``w(r, theta) = W(r) * cos(n theta)`` (or
``sin``), which reduces the thin-plate eigenproblem to a 1-D generalized
symmetric problem in the radial profile ``W``.  The radial discretization
uses C1 cubic Hermite elements (nodal unknowns ``W`` and ``dW/dr``), so the
fourth-order bending operator is handled conformingly.

Per harmonic, with ``L W = W'' + W'/r - n^2 W / r^2``, the bilinear forms
are

    k(W, V) = c_n * Int D(r) [ (L W)(L V)
              - (1 - nu) (W'' (V'/r - n^2 V/r^2) + V'' (W'/r - n^2 W/r^2))
              + 2 (1 - nu) n^2 (W'/r - W/r^2)(V'/r - V/r^2) ] r dr
    m(W, V) = c_n * Int mu(r) W V r dr

with ``c_n = 2 pi`` for ``n = 0`` and ``pi`` otherwise.  The center fixture
clamps the plate for ``r <= fixture_radius`` (W = W' = 0); all other edges
are free (natural boundary conditions of the form above).

The lowest eigenpairs of each harmonic come from subspace iteration
(block inverse iteration and one Rayleigh-Ritz step, in numpy) and are
polished and gated in extended precision: one routine,
``_extended_residual``, evaluates ``K w``, ``M w`` and the relative
residual in ``np.longdouble`` once per iterate, and the gate
(``EIG_RESIDUAL_TOL``) reads the residual of the polish's best iterate.
Each 4x4 element block shares its two end DOFs with the next element, so K
and M are banded with half-bandwidth 3: the polish converts only their 7
diagonals to long double and forms ``K w`` and ``M w`` from them in
O(7 ndof) instead of O(ndof^2).  A pair whose first residual is already
under half the gate, where the polish loop would stop anyway, is returned
as the solver gave it, without a correction solve.

``solve_modes`` works on blocks of harmonics from one pass of
``_harmonic_matrices``: what does not depend on ``n`` (mesh, Hermite values
at the Gauss points, the stiffness weight, the twist product, the mass
blocks) is formed once.  The stiffness matrices of a block are formed on a
leading harmonic axis, with the operands and summation order of a
one-harmonic loop, and scattered onto one (harmonic, dof, dof) stack.  The
mass matrix changes with ``n`` only by ``c_n``, so it is scattered once
per weight as one 2-D array that broadcasts against the stack; n = 0 has
its own weight and so its own block.  Each block is equilibrated once and
solved by one stacked subspace iteration (one ``inv``, one factorization
of the shared fixed-seed start from ``_start_block``, stacked ``qr`` and
products, one stacked Cholesky and ``eigh``), and one cast of its band
diagonals and one pair of band products give every pair's first
extended residual.  Numpy runs a stacked call as the same LAPACK or BLAS
call per matrix, so every pair has the bits a harmonic solved alone gets.
Only pairs at or above half the gate go on to the correction loop, and the
gate runs pair by pair in ascending (n, family).

A block holds as many harmonics as keep one (harmonic, dof, dof) float64
stack within ``_STACK_BYTES`` (512 KiB): 7 of n = 1..7 at 32 and 48 nodes,
4 at 64, 2 at 80 and 1 from 96 nodes up.  The bound is there because a
solve holds about three such stacks at once (K, the equilibrated K and
its inverse): stacking every harmonic gained little time, raised the
peak memory and made the heap map its pages again on every solve at 64
nodes and more.  The element integrals use a fixed 6-point Gauss rule,
the order the eigen gate was measured at, stored as float literals.

A mode's angular pattern cos(n theta) or sin(n theta) is the real or
imaginary part of e^{i n theta}, which ``angular_patterns`` forms from
e^{i theta} (``unit_phasors``) by binary powering, block by block, with
no trig call per mode; ``Mode.angular``, probes and grid renders all go
through it.

The default mesh is 32 radial nodes, the coarsest rung of 16/32/64 whose
answers on the default config stay within 5e-7 in frequency and 5e-6 of
the envelope peak of twice the mesh (``tests/test_mesh_convergence.py``;
``tools/mesh_convergence.py`` prints the numbers).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import DiscretizationError, DomainError, NumericalError
from .geometry import EffectivePlate, Material
from .ioutil import format_cells

EIG_RESIDUAL_TOL = 1e-8
# K and M couple DOFs at most 3 apart: an element's 4 DOFs (W, W' at both
# ends) span offsets 0..3, and neighbouring elements share 2 of them
_HALF_BANDWIDTH = 3
# Gauss-Legendre rules on [-1, 1] as float literals, the bits numpy's
# leggauss(3) and leggauss(6) give, so no numpy.polynomial import is needed.
# The 3-point rule is exact for Mode.radial_moment's degree-4 integrand.
_MOMENT_XI = np.array([-0.7745966692414834, 0.0, 0.7745966692414834])
_MOMENT_W = np.array([0.5555555555555557, 0.8888888888888888, 0.5555555555555557])
# The 6-point rule, mapped to [0, 1], is the one for the element integrals;
# the eigen gate's refusal set was measured at this order.
_GAUSS6_XI = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                       0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GAUSS6_W = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                      0.46791393457269104, 0.3607615730481387, 0.17132449237917027])
_QUAD_XI, _QUAD_W = 0.5 * (_GAUSS6_XI + 1.0), 0.5 * _GAUSS6_W
# Subspace iteration keeps k + 2 columns for k wanted pairs.  A pass shrinks
# the error of pair j by lam_j / lam_(k+3); over the 81 modal_sweep designs
# at 32-128 nodes and n = 0..7 that ratio is at worst 0.031 for k = 1 and
# 0.074 for k = 2 (n = 7, 128 nodes).  8 passes take the vectors to
# 0.074^8 ~ 1e-9 and the Ritz values to its square, below float64 rounding.
_SUBSPACE_EXTRA = 2
_SUBSPACE_PASSES = 8
# the boundary conditions every solved mode satisfies
_BOUNDARY = "clamped-at-fixture/free-at-edges"
# samples per block of the angular patterns: their two-row complex scratch
# is 512 kB
_ANGULAR_BLOCK = 2 ** 14
# the most bytes one (harmonic, dof, dof) float64 stack of a harmonic block
# may take (see the module docstring for why a block is bounded)
_STACK_BYTES = 2 ** 19


@dataclass(frozen=True)
class Discretization:
    """Radial mesh resolution; the element quadrature order is fixed."""

    radial_nodes: int = 32
    quadrature_order = _QUAD_XI.size      # a class constant, not a field

    def __post_init__(self):
        if self.radial_nodes < 8:
            raise DiscretizationError(
                f"radial_nodes must be >= 8, got {self.radial_nodes}")


def harmonic_weight(n: int) -> float:
    """Angular integral of cos^2 / sin^2: 2 pi for n = 0, pi otherwise."""
    return 2.0 * np.pi if n == 0 else np.pi


def _active_mesh(plate: EffectivePlate, disc: Discretization) -> np.ndarray:
    """Node radii on the moving domain [fixture_radius, outer_radius].

    Region breakpoints (e.g. the tooth band edge) are forced onto the mesh
    so each element sees constant D and mu.
    """
    a, b = plate.fixture_radius, plate.outer_radius
    forced = [a] + [bp for bp in plate.breakpoints if a < bp < b] + [b]
    spans = np.diff(forced)
    # distribute nodes proportionally to span length, >= 2 elements per span
    counts = np.maximum(2, np.rint(disc.radial_nodes * spans / (b - a)).astype(int))
    while counts.sum() > disc.radial_nodes - 1 and np.any(counts > 2):
        counts[np.argmax(counts)] -= 1
    while counts.sum() < disc.radial_nodes - 1:
        counts[np.argmin(counts / spans * spans.mean())] += 1
    pieces = [np.linspace(forced[i], forced[i + 1], counts[i] + 1)[:-1]
              for i in range(len(spans))]
    return np.concatenate(pieces + [[b]])


def _hermite_values(xi: np.ndarray, h: np.ndarray | float) -> np.ndarray:
    """The four cubic Hermite shape functions (W1, W1', W2, W2') at ``xi``.

    ``xi`` is the position inside an element of length ``h``, a scalar or
    an array that broadcasts to ``xi``'s shape; the functions are stacked
    on a new leading axis.
    """
    xi2, xi3 = xi * xi, xi * xi * xi
    return np.stack([1.0 - 3.0 * xi2 + 2.0 * xi3,
                     h * (xi - 2.0 * xi2 + xi3),
                     3.0 * xi2 - 2.0 * xi3,
                     h * (xi3 - xi2)])


def _hermite(xi: np.ndarray, h: np.ndarray | float):
    """Cubic Hermite shape functions, derivatives wrt r.

    Returns ``_hermite_values`` and its first and second derivatives with
    respect to r, each stacked the same way.
    """
    N = _hermite_values(xi, h)
    xi2 = xi * xi
    dN = np.stack([(6.0 * xi2 - 6.0 * xi) / h,
                   1.0 - 4.0 * xi + 3.0 * xi2,
                   (6.0 * xi - 6.0 * xi2) / h,
                   3.0 * xi2 - 2.0 * xi])
    # float_power squares through libm pow() like a numpy scalar does; an
    # array square can differ in the last bit and move the eigen gate
    d2N = np.stack([(12.0 * xi - 6.0) / np.float_power(h, 2),
                    (6.0 * xi - 4.0) / h,
                    (6.0 - 12.0 * xi) / np.float_power(h, 2),
                    (6.0 * xi - 2.0) / h])
    return N, dN, d2N


def _scatter(blocks: np.ndarray, dofs: np.ndarray) -> np.ndarray:
    """The global matrices of (..., 4, 4, element) ``blocks`` on (4, element)
    ``dofs``, one per index of the blocks' leading axes.

    An element's DOFs are 2e..2e+3: even elements never overlap each
    other, nor do odd ones, so each set is placed by one fancy index.  The
    even elements' blocks are added to zeros, then the odd ones': an entry
    gets at most two addends, so the sum (signed zeros included) is the
    one an element-by-element loop forms.
    """
    ndof = dofs[-1, -1] + 1
    A = np.zeros(blocks.shape[:-3] + (ndof, ndof))
    for part in (slice(0, None, 2), slice(1, None, 2)):
        d = dofs[:, part]
        A[..., d[:, None], d] += blocks[..., part]
    return A


def _harmonic_matrices(plate: EffectivePlate, disc: Discretization, harmonics):
    """Yield (block, K, M, nodes) per block of ``harmonics``, clamp not applied.

    ``block`` is a tuple of consecutive harmonics of one weight ``c_n``, as
    many as keep their (harmonic, dof, dof) stack of stiffness matrices
    ``K`` within ``_STACK_BYTES``; n = 0 is a block of its own.  The terms
    that do not depend on n are formed once; the curvature terms and
    stiffness blocks of a block are formed on a leading harmonic axis, with
    the operands of a one-harmonic loop in the same order.  Every element
    is evaluated at once and the Gauss points are summed one at a time in
    ascending order, so each entry sees the same rounding as an
    element-by-element loop.  The 2-D mass matrix ``M`` is
    scattered once per run of one weight and given to every block of it,
    against which it broadcasts: it must not be written to.
    """
    nodes = _active_mesh(plate, disc)
    h = np.diff(nodes)[:, None]        # (element, 1)
    r = nodes[:-1, None] + _QUAD_XI * h    # (element, Gauss point)
    # (shape function, element, Gauss point); x[:, None] * y below is the
    # outer product over the shape functions
    N, dN, d2N = _hermite(np.broadcast_to(_QUAD_XI, r.shape), h)
    r2 = np.float_power(r, 2)          # pow(), as in _hermite
    dN_r = dN / r
    d2N_dN_r = d2N + dN_r
    twist = dN_r - N / r2
    twist2 = twist[:, None] * twist
    # each element lies inside one region, so D and mu at its Gauss points
    # are the element's constants
    stiff_weight = (_QUAD_W * h * r) * plate.D(r)
    mass = (_QUAD_W * h * r * plate.mu(r)) * (N[:, None] * N)
    # sum() adds the Gauss points one at a time in ascending order
    Me = sum(mass[..., q] for q in range(_QUAD_XI.size))
    dofs = np.arange(4)[:, None] + 2 * np.arange(nodes.size - 1)   # (4, element)
    nu = plate.poisson_ratio

    def stiffness(block, weight):
        # n on a leading axis gives the curvature terms a harmonic axis;
        # the stiffness blocks are (harmonic, shape function, shape
        # function, element, Gauss point), freed once the stack is built
        n = np.array(block)[:, None, None, None]
        n2N_r2 = (n * n) * N / r2
        lap = d2N_dN_r - n2N_r2
        curv_t = dN_r - n2N_r2
        n = n[..., None]               # against the outer products
        stiff = stiff_weight * (
            lap[:, :, None] * lap[:, None]
            - (1.0 - nu) * (d2N[:, None] * curv_t[:, None]
                            + curv_t[:, :, None] * d2N)
            + 2.0 * (1.0 - nu) * n * n * twist2)
        # sum() adds the Gauss points one at a time in ascending order
        return _scatter(weight * sum(stiff[..., q] for q in range(_QUAD_XI.size)), dofs)

    per_block = max(1, _STACK_BYTES // (8 * (2 * nodes.size) ** 2))
    for weight, run in itertools.groupby(harmonics, harmonic_weight):
        run = tuple(run)
        M = _scatter(weight * Me, dofs)
        for start in range(0, len(run), per_block):
            block = run[start:start + per_block]
            yield block, stiffness(block, weight), M, nodes


def _assemble_full(plate: EffectivePlate, n: int, disc: Discretization):
    """Assemble (K, M, nodes) of harmonic ``n``, clamp not yet applied."""
    _, K, M, nodes = next(_harmonic_matrices(plate, disc, (n,)))
    return K[0], M, nodes


def assemble(plate: EffectivePlate, n: int, disc: Discretization | None = None):
    """Stiffness and mass matrices for harmonic ``n`` with the clamp applied.

    The two DOFs (W, W') of every node with ``r <= fixture_radius`` are
    eliminated; the mesh starts at the fixture edge so that is node 0.

    Returns
    -------
    (K, M) : ndarray, ndarray
        Symmetric stiffness (positive semi-definite) and mass (positive
        definite) matrices on the free DOFs.
    """
    if n < 0 or int(n) != n:
        raise DomainError(f"harmonic n must be a non-negative integer, got {n}")
    disc = disc or Discretization()
    K, M, _ = _assemble_full(plate, int(n), disc)
    K, M = K[2:, 2:], M[2:, 2:]
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise DiscretizationError(
            f"singular mass matrix for n={n} at {disc.radial_nodes} nodes") from exc
    return K, M


def radial_shapes(modes, r) -> np.ndarray:
    """W(r) of each mode at the radii ``r``, stacked on a new leading axis.

    Each radius is located on the mesh by ``searchsorted`` and its Hermite
    values are computed once per mesh; a radial profile shared by several
    modes (a cos/sin pair) is interpolated once.  W is zero inside the
    clamped center and continues the last element's cubic past the rim.
    """
    r = np.asarray(r, dtype=float)
    out = np.empty((len(modes),) + r.shape)
    located, profiles = {}, {}
    for k, m in enumerate(modes):
        nodes, v, s = m.radial_nodes, m.radial_values, m.radial_slopes
        mesh = nodes.tobytes()
        if mesh not in located:
            # element index; radii past either end use the end element
            e = np.searchsorted(nodes[1:-1], r, side="right")
            h = nodes[e + 1] - nodes[e]
            located[mesh] = (e, _hermite_values((r - nodes[e]) / h, h), r < nodes[0])
        key = (mesh, v.tobytes(), s.tobytes())
        if key not in profiles:
            e, N, clamped = located[mesh]
            W = N[0] * v[e] + N[1] * s[e] + N[2] * v[e + 1] + N[3] * s[e + 1]
            profiles[key] = np.where(clamped, 0.0, W)
        out[k] = profiles[key]
    return out


def unit_phasors(theta) -> np.ndarray:
    """e^{i theta}: real part ``np.cos(theta)``, imaginary part
    ``np.sin(theta)``, bit for bit."""
    theta = np.asarray(theta, dtype=float)
    unit = np.empty(theta.shape, dtype=complex)
    unit.real = np.cos(theta)
    unit.imag = np.sin(theta)
    return unit


def _power(unit: np.ndarray, n: int, work: np.ndarray) -> np.ndarray:
    """``unit ** n`` by left-to-right binary powering, in ``work``.

    From the leading bit of n down, the power is squared and, on each 1
    bit, multiplied by ``unit``: ``floor(log2 n)`` squarings and at most as
    many products.  ``work`` is a (2, block) complex scratch array; each
    product writes to the row it does not read, and the result is returned
    as one of its rows.  No product aliases its output: numpy rounds an
    in-place complex product of one sample as a reduction, without the
    fused multiply-add of its vector loop, so aliasing would make a
    sample's bits depend on the length of its block.
    """
    if n == 0:
        work[0] = 1.0
        return work[0]
    power, free = unit, 0
    for bit in bin(n)[3:]:
        power, free = np.multiply(power, power, out=work[free]), 1 - free
        if bit == "1":
            power, free = np.multiply(power, unit, out=work[free]), 1 - free
    return power


def angular_patterns(modes, unit: np.ndarray, rows: np.ndarray):
    """Multiply ``rows[k]`` in place by the angular pattern of ``modes[k]``.

    ``unit`` holds e^{i theta} at the samples (``unit_phasors``).  Block by
    block of ``_ANGULAR_BLOCK`` samples, e^{i n theta} is formed by
    ``_power``, once for consecutive modes of the same harmonic (a cos/sin
    pair): cos(n theta) is its real part and sin(n theta) its imaginary
    part.  No trig function is called, and every caller shares this one
    path, so a sample's pattern does not depend on which routine asked for
    it.
    """
    work = np.empty((2, min(unit.size, _ANGULAR_BLOCK)), dtype=complex)
    for start in range(0, unit.size, _ANGULAR_BLOCK):
        u = unit[start:start + _ANGULAR_BLOCK]
        block = work[:, :u.size]
        powered = None
        for row, m in zip(rows, modes):
            if m.n != powered:
                powered, phasor = m.n, _power(u, m.n, block)
            row[start:start + u.size] *= (phasor.real if m.orientation == "cos"
                                          else phasor.imag)


@dataclass(frozen=True)
class Mode:
    """One mass-normalized eigenmode of the plate.

    The full shape is ``W(r) * cos(n theta)`` or ``W(r) * sin(n theta)``;
    ``radial_nodes``/``radial_values``/``radial_slopes`` tabulate W and
    dW/dr on the solver mesh (the plate is motionless for r below the
    fixture radius).  Between nodes W is evaluated with the solver's own
    Hermite cubics (see ``radial_shapes``).  The angular pattern is exactly
    that of the harmonic the solver returned (see ``angular_patterns``).
    """

    n: int
    orientation: str               # "cos" | "sin"
    frequency: float               # Hz
    radial_nodes: np.ndarray       # m, ascending, starts at fixture radius
    radial_values: np.ndarray      # mass-normalized W at the nodes
    radial_slopes: np.ndarray      # dW/dr at the nodes
    family: int = 0                # radial family index (0 = lowest)

    def __post_init__(self):
        if self.orientation not in ("cos", "sin"):
            raise DomainError(f"orientation must be 'cos' or 'sin', got {self.orientation}")
        if self.frequency <= 0.0:
            raise NumericalError(
                f"non-positive eigenfrequency {self.frequency} Hz retained", harmonic=self.n)

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.frequency

    @property
    def outer_radius(self) -> float:
        return float(self.radial_nodes[-1])

    def radial(self, r):
        """W(r), zero inside the clamped center."""
        return radial_shapes((self,), r)[0]

    def angular(self, theta):
        """cos(n theta) or sin(n theta), formed by ``angular_patterns`` from
        ``unit_phasors(theta)``."""
        unit = unit_phasors(theta)
        out = np.ones(unit.shape)
        angular_patterns((self,), unit.reshape(-1), out.reshape(1, -1))
        return out[()]

    def radial_moment(self) -> float:
        """Int W(r) r dr over the active annulus (exact per-element Gauss)."""
        return self._radial_moment

    @functools.cached_property
    def _radial_moment(self) -> float:
        # evaluated once per mode; dataclasses.replace builds a new mode,
        # which evaluates its own
        h = np.diff(self.radial_nodes)[:, None]
        r = self.radial_nodes[:-1, None] + 0.5 * (_MOMENT_XI + 1.0) * h
        return float(np.sum(0.5 * _MOMENT_W * h * self.radial(r) * r))


def mode_shape_eval(mode: Mode, r, theta):
    """Displacement shape ``W(r) * trig(n theta)`` at ``(r, theta)``.

    ``r`` must lie inside the plate annulus (clamped region included,
    where the shape is zero).
    """
    r_arr = np.asarray(r, dtype=float)
    # any radius from 0 to the rim is accepted: below the fixture radius
    # (the mesh start) the shape is zero, so the bore is not checked
    if np.any(r_arr > mode.outer_radius * (1 + 1e-12)) or np.any(r_arr < 0.0):
        raise DomainError(
            f"radius outside the stator annulus (outer {mode.outer_radius:.6g} m)")
    value = mode.radial(r_arr) * mode.angular(theta)
    return value if value.shape else float(value)


@dataclass(frozen=True)
class ModalBasis:
    """Ascending-frequency list of modes plus solve metadata.

    ``solve_modes`` returns each harmonic n >= 1 as a cos/sin pair that
    shares one frequency and one radial profile.

    Every damping ratio, the default and each per-harmonic override, lies
    in [0, 1): zero is the undamped limit, one is critical damping.
    """

    modes: tuple
    discretization: Discretization
    provenance: str
    default_damping: float = 0.02
    damping_overrides: dict | None = None

    def __post_init__(self):
        freqs = [m.frequency for m in self.modes]
        if any(f2 < f1 - 1e-12 * max(f1, 1.0) for f1, f2 in zip(freqs, freqs[1:])):
            raise NumericalError("basis not sorted by ascending frequency")
        for zeta in (self.default_damping, *(self.damping_overrides or {}).values()):
            if not 0.0 <= zeta < 1.0:
                raise DomainError(f"damping ratio must be in [0, 1), got {zeta}")

    def __len__(self):
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __getitem__(self, i):
        return self.modes[i]

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([m.frequency for m in self.modes])

    def harmonics(self) -> list:
        return sorted({m.n for m in self.modes})

    def select(self, n: int, orientation: str | None = None, family: int = 0) -> list:
        out = [m for m in self.modes if m.n == n and m.family == family]
        if orientation is not None:
            out = [m for m in out if m.orientation == orientation]
        return out

    def frequency_for(self, n: int, family: int = 0) -> float:
        """Lowest-family eigenfrequency of harmonic ``n`` [Hz]."""
        found = self.select(n, family=family)
        if not found:
            raise DomainError(f"harmonic n={n} (family {family}) not present in basis")
        return found[0].frequency

    def damping_for(self, n: int) -> float:
        if self.damping_overrides and n in self.damping_overrides:
            return self.damping_overrides[n]
        return self.default_damping

    def with_damping(self, zeta: float) -> "ModalBasis":
        """Same modes with a uniform damping ratio (overrides dropped)."""
        return replace(self, default_damping=zeta, damping_overrides=None)


def _band(A: np.ndarray, half_bandwidth: int) -> tuple:
    """Diagonals ``-half_bandwidth .. half_bandwidth`` of ``A`` in long double.

    ``A`` may be a stack (..., n, n): each diagonal then keeps its leading
    axes.
    """
    return tuple(np.diagonal(A, d, axis1=-2, axis2=-1).astype(np.longdouble)
                 for d in range(-half_bandwidth, half_bandwidth + 1))


def _band_matvec(band: tuple, w: np.ndarray) -> np.ndarray:
    """``A @ w`` from ``_band(A, ...)`` for an ``A`` that is zero off the band.

    ``w`` is a vector or a stack of them (..., n) whose leading axes the
    diagonals' broadcast against.  The diagonals are added in ascending
    column order, as a dense product accumulates each row; the products it
    skips are exact zeros, so the result is the dense one bit for bit.
    """
    out = np.zeros_like(w)
    size = w.shape[-1]
    for d, diag in enumerate(band, start=-(len(band) // 2)):
        if d < 0:
            out[..., -d:] += diag * w[..., :d]
        else:
            out[..., :size - d] += diag * w[..., d:]
    return out


def _extended_residual(Kb: tuple, Mb: tuple, lam, w: np.ndarray):
    """||K w - lam M w|| / ||K w|| with ``w``, ``K w`` and ``M w`` in long double.

    ``Kb`` and ``Mb`` are the long-double diagonals of K and M from
    ``_band``.  ``lam`` and ``w`` may carry leading axes, one pair per
    index; each pair's norms are then taken row by row, as for one pair.
    Returns ``(residual, w, K w, M w)``, the residual a float (or nested
    lists of them, shaped as ``lam``) and the last three in long double, so
    a caller can reuse this iterate's products.
    """
    wl = w.astype(np.longdouble)
    Kw, Mw = _band_matvec(Kb, wl), _band_matvec(Mb, wl)
    r = Kw - np.asarray(lam, dtype=np.longdouble)[..., None] * Mw
    rows = zip(r.reshape(-1, r.shape[-1]), Kw.reshape(-1, r.shape[-1]))
    residual = np.array([float(np.linalg.norm(a) / np.linalg.norm(b)) for a, b in rows])
    return residual.reshape(np.shape(lam)).tolist(), wl, Kw, Mw


def eig_residual(K: np.ndarray, M: np.ndarray, lam: float, w: np.ndarray) -> float:
    """||K w - lam M w|| / ||K w|| evaluated in extended precision.

    Plain float64 evaluation of ``K @ w`` rounds at ~eps*||K||*||w||, which
    for the lowest modes of a stiff plate swamps the true residual; the
    80-bit accumulation keeps the measurement out of the gate.  Every
    diagonal is used, so K and M need not be banded.
    """
    full = K.shape[0] - 1
    return _extended_residual(_band(K, full), _band(M, full), lam, w)[0]


# bounded, so a sweep over many meshes does not keep every shape's block
@functools.lru_cache(maxsize=32)
def _start_block(rows: int, cols: int) -> np.ndarray:
    """``default_rng(0).standard_normal((rows, cols))``, read-only: the
    fixed-seed start of ``_lowest_eigenpairs``, drawn once per shape."""
    Y = np.random.default_rng(0).standard_normal((rows, cols))
    Y.setflags(write=False)            # shared by every solve of this shape
    return Y


def _lowest_eigenpairs(A: np.ndarray, B: np.ndarray, k: int):
    """The ``k`` lowest eigenpairs of the symmetric definite pencil (A, B).

    Subspace iteration (Bathe, "The subspace iteration method - Revisited",
    Computers & Structures 126, 2013): ``_SUBSPACE_PASSES`` passes of block
    inverse iteration on A^-1 B from a fixed-seed Gaussian start, then one
    Rayleigh-Ritz step.  The last pass gives Y with A Y = B X, so the
    projected stiffness is Y^T B X and A itself is never multiplied.

    ``A`` may be a stack (..., n, n) of pencils and ``B`` one matrix or a
    stack that broadcasts against it: every step is then one stacked numpy
    call, and each pencil gets the bits a 2-D call gives it.  The start is
    shared, so the first pass factors it once for the whole stack.

    Returns ``(eigenvalues, vectors)``, ascending, the vectors B-orthonormal
    columns, with A's leading axes.  Raises LinAlgError when A or the
    projected B of any pencil is singular.
    """
    p = min(k + _SUBSPACE_EXTRA, A.shape[-1])
    A_inv = np.linalg.inv(A)
    Y = _start_block(A.shape[-1], p)
    for _ in range(_SUBSPACE_PASSES):
        X = np.linalg.qr(Y)[0]
        BX = B @ X
        Y = A_inv @ BX
    A_p, B_p = Y.mT @ BX, Y.mT @ (B @ Y)
    L_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (B_p + B_p.mT)))
    vals, V = np.linalg.eigh(L_inv @ (0.5 * (A_p + A_p.mT)) @ L_inv.mT)
    return vals[..., :k], Y @ (L_inv.mT @ V[..., :k])


def _polish_eigenpair(K: np.ndarray, M: np.ndarray, Kb: tuple, Mb: tuple,
                      lam: float, w: np.ndarray, first: tuple):
    """Refine an eigenpair against the extended-precision residual.

    A float64 eigensolver's backward error is relative to ||K||, far above
    ||K w|| for the lowest modes of a stiff plate.  ``first`` is the
    ``_extended_residual`` of the pair as the solver gave it.  Each pass
    takes the Rayleigh quotient and residual from the last iterate's 80-bit
    ``K w`` and ``M w`` and applies a float64 correction solve with a
    slightly offset shift (K - 0.99 lam M is nearly singular on purpose:
    that is what makes the correction an inverse-iteration step).
    K and M must be the banded Hermite matrices (half-bandwidth 3) and
    ``Kb``, ``Mb`` their 7 diagonals in long double from ``_band``: each
    iterate costs one ``_extended_residual``, i.e. two band products of
    O(7 ndof).

    A pair whose first residual is already under ``0.5 *
    EIG_RESIDUAL_TOL``, the loop's own stopping point, is returned as it
    came: a correction could only lower a residual the gate accepts.

    Returns ``(residual, lam, w)`` of the iterate with the smallest
    residual, the residual being ``eig_residual(K, M, lam, w)``.
    """
    score, wl, Kw, Mw = first
    best = (score, lam, w)
    if score < 0.5 * EIG_RESIDUAL_TOL:
        return best
    for _ in range(3):
        lam = float((wl @ Kw) / (wl @ Mw))
        r = (Kw - np.longdouble(lam) * Mw).astype(float)
        try:
            d = np.linalg.solve(K - 0.99 * lam * M, r)
        except np.linalg.LinAlgError:
            break
        w = w - d
        w = w / np.sqrt(w @ M @ w)
        score, wl, Kw, Mw = _extended_residual(Kb, Mb, lam, w)
        if score < best[0]:
            best = (score, lam, w)
        if score < 0.5 * EIG_RESIDUAL_TOL:
            break
    return best


def solve_modes(plate: EffectivePlate, n_max: int, modes_per_n: int = 1,
                n_min: int = 0, disc: Discretization | None = None) -> ModalBasis:
    """Solve ``K w = omega^2 M w`` per harmonic and build the sorted basis.

    Each harmonic ``n >= 1`` contributes its lowest ``modes_per_n`` radial
    families as cosine/sine pairs sharing one radial solve (so the pair is
    degenerate down to the last bit); ``n = 0`` modes are single.  Every
    eigenpair is polished and gated on the polish's own extended-precision
    residual: above ``EIG_RESIDUAL_TOL`` the solve raises NumericalError.
    The harmonics of one ``_harmonic_matrices`` block are solved together,
    so a block that fails to converge is reported under its lowest
    harmonic, before any pair of the block is gated.
    """
    if n_max < n_min:
        raise DomainError(f"n_max ({n_max}) must be >= n_min ({n_min})")
    disc = disc or Discretization()
    modes = []
    for block, K, M, nodes in _harmonic_matrices(plate, disc, range(n_min, n_max + 1)):
        Kc, Mc = K[:, 2:, 2:], M[2:, 2:]
        # equilibrate: slope DOFs carry 1/length units, rescale before solving
        s = np.ones(Kc.shape[-1])
        s[1::2] = float(np.mean(np.diff(nodes)))
        S = np.outer(s, s)
        try:
            evals, evecs = _lowest_eigenpairs(Kc * S, Mc * S,
                                              min(modes_per_n, Kc.shape[-1]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigensolver failed to converge",
                                 harmonic=block[0], radial_nodes=disc.radial_nodes) from exc
        # (family, harmonic, dof): one family's vectors broadcast against
        # the harmonics' band diagonals
        W = np.multiply(s, np.moveaxis(evecs, -1, 0), order="C")
        for j, k in np.ndindex(evals.shape):
            W[k, j] /= np.sqrt(W[k, j] @ Mc @ W[k, j])
        Kb, Mb = _band(Kc, _HALF_BANDWIDTH), _band(Mc, _HALF_BANDWIDTH)
        scores, wl, Kw, Mw = _extended_residual(Kb, Mb, evals.T, W)
        for j, k in np.ndindex(evals.shape):
            n, lam = block[j], evals[j, k]
            if lam <= 0.0:
                raise NumericalError(f"non-positive eigenvalue {lam:.3e}",
                                     harmonic=n, radial_nodes=disc.radial_nodes)
            resid, lam, w = _polish_eigenpair(
                Kc[j], Mc, tuple(d[j] for d in Kb), Mb,
                lam, W[k, j], (scores[k][j], wl[k, j], Kw[k, j], Mw[k, j]))
            if resid > EIG_RESIDUAL_TOL:
                raise NumericalError(
                    f"eigenpair residual {resid:.3e} above tolerance (the "
                    "float64 storage floor rises with the harmonic and with "
                    "mesh density: lower modal.n_max below this harmonic, or "
                    "try another modal.radial_nodes)",
                    harmonic=n, radial_nodes=disc.radial_nodes)
            # fix the sign convention: the outer rim moves up
            if w[-2] < 0.0:
                w = -w
            vals = np.concatenate([[0.0], w[0::2]])
            slopes = np.concatenate([[0.0], w[1::2]])
            freq = float(np.sqrt(lam) / (2.0 * np.pi))
            common = dict(n=n, frequency=freq, radial_nodes=nodes,
                          radial_values=vals, radial_slopes=slopes, family=k)
            modes.append(Mode(orientation="cos", **common))
            if n >= 1:
                modes.append(Mode(orientation="sin", **common))

    modes.sort(key=lambda m: (m.frequency, m.n, m.orientation))
    material = plate.material or Material()
    prov = hashlib.sha256(
        (plate.provenance_hash() + repr(disc)).encode()).hexdigest()[:16]
    return ModalBasis(tuple(modes), disc, prov, material.modal_damping_ratio,
                      dict(material.damping_overrides or {}) or None)


@dataclass(frozen=True)
class CalibrationResult:
    plate: EffectivePlate
    scale: float                 # factor applied to D(r)


def calibrate(plate: EffectivePlate, target: tuple, basis: ModalBasis | None = None,
              disc: Discretization | None = None) -> CalibrationResult:
    """Rescale D(r) so the lowest mode of harmonic ``target[0]`` hits ``target[1]`` Hz.

    Frequencies scale as sqrt(D), so the factor is
    ``(f_target / f_current)^2``; every frequency ratio in the basis is
    preserved exactly.
    """
    n, f_target = int(target[0]), float(target[1])
    if f_target <= 0.0:
        raise DomainError(f"target frequency must be positive, got {f_target}")
    if basis is not None:
        f_current = basis.frequency_for(n)
        disc = disc or basis.discretization
    else:
        disc = disc or Discretization()
        probe = solve_modes(plate, n_max=n, n_min=n, modes_per_n=1, disc=disc)
        f_current = probe.frequency_for(n)
    try:
        scale = (f_target / f_current) ** 2
    except OverflowError:
        raise DomainError(
            f"target frequency {f_target} Hz overflows the stiffness scale "
            f"from {f_current} Hz") from None
    return CalibrationResult(plate=plate.scaled(scale), scale=scale)


def format_radial_profiles(basis: ModalBasis) -> str:
    """Structured text dump of the radial profiles (binary-free).

    Each mesh's radii are formatted once and each distinct profile on it
    once, so a cos/sin pair shares one block of ``r W dW/dr`` lines; each
    column is formatted in one pass by ``ioutil.format_cells``.
    """
    lines = [f"# statorlab radial profiles, provenance {basis.provenance}",
             f"# modes {len(basis)}  radial_nodes {basis.discretization.radial_nodes}"]
    radii, blocks = {}, {}
    for m in basis:
        mesh = m.radial_nodes.tobytes()
        if mesh not in radii:
            radii[mesh] = format_cells(m.radial_nodes)
        key = (mesh, m.radial_values.tobytes(), m.radial_slopes.tobytes())
        if key not in blocks:
            blocks[key] = "\n".join(map(" ".join, zip(
                radii[mesh], format_cells(m.radial_values),
                format_cells(m.radial_slopes))))
        lines.append(f"mode n={m.n} orientation={m.orientation} family={m.family} "
                     f"frequency_hz={m.frequency!r} boundary={_BOUNDARY}")
        lines.append("r_m W dW_dr")
        lines.append(blocks[key])
        lines.append("")
    return "\n".join(lines) + "\n"
