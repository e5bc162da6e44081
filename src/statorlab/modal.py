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

``solve_modes`` assembles every harmonic in one pass of
``_harmonic_matrices``: what does not depend on ``n`` (mesh, Hermite values
at the Gauss points, the stiffness weight, the mass blocks, which change
with ``n`` only by ``c_n``) is formed once, and each harmonic forms only
its curvature terms and stiffness blocks.  The element integrals use a
fixed 6-point Gauss rule, the order the eigen gate was measured at.

The default mesh is 32 radial nodes, the coarsest rung of 16/32/64 whose
answers on the default config stay within 5e-7 in frequency and 5e-6 of
the envelope peak of twice the mesh (``tests/test_mesh_convergence.py``;
``tools/mesh_convergence.py`` prints the numbers).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DiscretizationError, DomainError, NumericalError
from .geometry import EffectivePlate, Material

EIG_RESIDUAL_TOL = 1e-8
# K and M couple DOFs at most 3 apart: an element's 4 DOFs (W, W' at both
# ends) span offsets 0..3, and neighbouring elements share 2 of them
_HALF_BANDWIDTH = 3
# 3-point Gauss-Legendre rule on [-1, 1]: exact for Mode.radial_moment's
# degree-4 integrand
_MOMENT_XI, _MOMENT_W = np.polynomial.legendre.leggauss(3)
# 6-point Gauss-Legendre rule mapped to [0, 1] for the element integrals;
# the eigen gate's refusal set was measured at this order
_QUAD_XI, _QUAD_W = np.polynomial.legendre.leggauss(6)
_QUAD_XI, _QUAD_W = 0.5 * (_QUAD_XI + 1.0), 0.5 * _QUAD_W
# Subspace iteration keeps k + 2 columns for k wanted pairs.  A pass shrinks
# the error of pair j by lam_j / lam_(k+3); over the 81 modal_sweep designs
# at 32-128 nodes and n = 0..7 that ratio is at worst 0.031 for k = 1 and
# 0.074 for k = 2 (n = 7, 128 nodes).  8 passes take the vectors to
# 0.074^8 ~ 1e-9 and the Ritz values to its square, below float64 rounding.
_SUBSPACE_EXTRA = 2
_SUBSPACE_PASSES = 8
# the boundary conditions every solved mode satisfies
_BOUNDARY = "clamped-at-fixture/free-at-edges"


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
    """The global matrix of (4, 4, element) ``blocks`` on (4, element) ``dofs``.

    An element's DOFs are 2e..2e+3: even elements never overlap each
    other, nor do odd ones, so each set is placed by one fancy index.  The
    even elements' blocks are added to zeros, then the odd ones': an entry
    gets at most two addends, so the sum (signed zeros included) is the
    one an element-by-element loop forms.
    """
    ndof = dofs[-1, -1] + 1
    A = np.zeros((ndof, ndof))
    for part in (slice(0, None, 2), slice(1, None, 2)):
        d = dofs[:, part]
        A[d[:, None], d] += blocks[..., part]
    return A


def _harmonic_matrices(plate: EffectivePlate, disc: Discretization, harmonics):
    """Yield (K, M, nodes) of each harmonic in ``harmonics``, clamp not applied.

    The terms that do not depend on n are formed once; each harmonic forms
    only its curvature terms and stiffness blocks.  Every element is
    evaluated at once and the Gauss points are summed one at a time in
    ascending order, so each entry sees the same rounding as an
    element-by-element loop.
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
    # each element lies inside one region, so D and mu at its Gauss points
    # are the element's constants
    stiff_weight = (_QUAD_W * h * r) * plate.D(r)
    mass = (_QUAD_W * h * r * plate.mu(r)) * (N[:, None] * N)
    # sum() adds the Gauss points one at a time in ascending order
    Me = sum(mass[..., q] for q in range(_QUAD_XI.size))
    dofs = np.arange(4)[:, None] + 2 * np.arange(nodes.size - 1)   # (4, element)
    nu = plate.poisson_ratio
    for n in harmonics:
        cn = harmonic_weight(n)
        n2N_r2 = (n * n) * N / r2
        lap = d2N_dN_r - n2N_r2
        curv_t = dN_r - n2N_r2
        stiff = stiff_weight * (
            lap[:, None] * lap
            - (1.0 - nu) * (d2N[:, None] * curv_t + curv_t[:, None] * d2N)
            + 2.0 * (1.0 - nu) * n * n * (twist[:, None] * twist))
        Ke = sum(stiff[..., q] for q in range(_QUAD_XI.size))
        yield _scatter(cn * Ke, dofs), _scatter(cn * Me, dofs), nodes


def _assemble_full(plate: EffectivePlate, n: int, disc: Discretization):
    """Assemble (K, M, nodes) of harmonic ``n``, clamp not yet applied."""
    return next(_harmonic_matrices(plate, disc, (n,)))


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


@dataclass(frozen=True)
class Mode:
    """One mass-normalized eigenmode of the plate.

    The full shape is ``W(r) * cos(n theta)`` or ``W(r) * sin(n theta)``;
    ``radial_nodes``/``radial_values``/``radial_slopes`` tabulate W and
    dW/dr on the solver mesh (the plate is motionless for r below the
    fixture radius).  Between nodes W is evaluated with the solver's own
    Hermite cubics (see ``radial_shapes``).  ``angular_leak`` optionally
    admixes foreign harmonics ``(m, weight)`` into the angular pattern, the
    hook used to emulate a manufacturing-defect asymmetry; it is not
    produced by the solver.
    """

    n: int
    orientation: str               # "cos" | "sin"
    frequency: float               # Hz
    radial_nodes: np.ndarray       # m, ascending, starts at fixture radius
    radial_values: np.ndarray      # mass-normalized W at the nodes
    radial_slopes: np.ndarray      # dW/dr at the nodes
    family: int = 0                # radial family index (0 = lowest)
    angular_leak: tuple = ()

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
        theta = np.asarray(theta, dtype=float)
        trig = np.cos if self.orientation == "cos" else np.sin
        out = trig(self.n * theta)
        for m, weight in self.angular_leak:
            out = out + weight * trig(m * theta)
        return out

    def radial_moment(self) -> float:
        """Int W(r) r dr over the active annulus (exact per-element Gauss)."""
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

    def with_pair_defect(self, n: int, frequency_split: float = 0.0,
                         shape_leak: float = 0.0) -> "ModalBasis":
        """Emulate a manufacturing defect on the degenerate pair of harmonic ``n``.

        The sine partner's frequency is raised by the relative
        ``frequency_split`` and, when ``shape_leak`` is nonzero, a foreign
        harmonic ``n + 1`` is admixed into both partners' angular
        patterns with that weight.  Purely a perturbation proxy; the
        perturbed shapes are no longer exactly mass-orthonormal.
        """
        if not self.select(n):
            raise DomainError(f"harmonic n={n} not present in basis")
        new = []
        for m in self.modes:
            if m.n == n and m.family == 0:
                changes = {}
                if shape_leak:
                    changes["angular_leak"] = ((n + 1, shape_leak),)
                if m.orientation == "sin" and frequency_split:
                    changes["frequency"] = m.frequency * (1.0 + frequency_split)
                if changes:
                    m = replace(m, **changes)
            new.append(m)
        new.sort(key=lambda md: (md.frequency, md.n, md.orientation))
        return replace(self, modes=tuple(new), provenance=self.provenance + "+defect")


def _band(A: np.ndarray, half_bandwidth: int) -> tuple:
    """Diagonals ``-half_bandwidth .. half_bandwidth`` of ``A`` in long double."""
    return tuple(np.diagonal(A, d).astype(np.longdouble)
                 for d in range(-half_bandwidth, half_bandwidth + 1))


def _band_matvec(band: tuple, w: np.ndarray) -> np.ndarray:
    """``A @ w`` from ``_band(A, ...)`` for an ``A`` that is zero off the band.

    The diagonals are added in ascending column order, as a dense product
    accumulates each row; the products it skips are exact zeros, so the
    result is the dense one bit for bit.
    """
    out = np.zeros_like(w)
    for d, diag in enumerate(band, start=-(len(band) // 2)):
        if d < 0:
            out[-d:] += diag * w[:d]
        else:
            out[:w.size - d] += diag * w[d:]
    return out


def _extended_residual(Kb: tuple, Mb: tuple, lam: float, w: np.ndarray):
    """||K w - lam M w|| / ||K w|| with ``w``, ``K w`` and ``M w`` in long double.

    ``Kb`` and ``Mb`` are the long-double diagonals of K and M from
    ``_band``.  Returns ``(residual, w, K w, M w)``, the last three in long
    double, so a caller can reuse this iterate's products.
    """
    wl = w.astype(np.longdouble)
    Kw, Mw = _band_matvec(Kb, wl), _band_matvec(Mb, wl)
    r = Kw - np.longdouble(lam) * Mw
    return float(np.linalg.norm(r) / np.linalg.norm(Kw)), wl, Kw, Mw


def eig_residual(K: np.ndarray, M: np.ndarray, lam: float, w: np.ndarray) -> float:
    """||K w - lam M w|| / ||K w|| evaluated in extended precision.

    Plain float64 evaluation of ``K @ w`` rounds at ~eps*||K||*||w||, which
    for the lowest modes of a stiff plate swamps the true residual; the
    80-bit accumulation keeps the measurement out of the gate.  Every
    diagonal is used, so K and M need not be banded.
    """
    full = K.shape[0] - 1
    return _extended_residual(_band(K, full), _band(M, full), lam, w)[0]


def _lowest_eigenpairs(A: np.ndarray, B: np.ndarray, k: int):
    """The ``k`` lowest eigenpairs of the symmetric definite pencil (A, B).

    Subspace iteration (Bathe, "The subspace iteration method - Revisited",
    Computers & Structures 126, 2013): ``_SUBSPACE_PASSES`` passes of block
    inverse iteration on A^-1 B from a fixed-seed Gaussian start, then one
    Rayleigh-Ritz step.  The last pass gives Y with A Y = B X, so the
    projected stiffness is Y^T B X and A itself is never multiplied.

    Returns ``(eigenvalues, vectors)``, ascending, the vectors B-orthonormal
    columns.  Raises LinAlgError when A or the projected B is singular.
    """
    p = min(k + _SUBSPACE_EXTRA, A.shape[0])
    A_inv = np.linalg.inv(A)
    Y = np.random.default_rng(0).standard_normal((A.shape[0], p))
    for _ in range(_SUBSPACE_PASSES):
        X = np.linalg.qr(Y)[0]
        BX = B @ X
        Y = A_inv @ BX
    A_p, B_p = Y.T @ BX, Y.T @ (B @ Y)
    L_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (B_p + B_p.T)))
    vals, V = np.linalg.eigh(L_inv @ (0.5 * (A_p + A_p.T)) @ L_inv.T)
    return vals[:k], Y @ (L_inv.T @ V[:, :k])


def _polish_eigenpair(K: np.ndarray, M: np.ndarray, lam: float, w: np.ndarray):
    """Refine an eigenpair against the extended-precision residual.

    A float64 eigensolver's backward error is relative to ||K||, far above
    ||K w|| for the lowest modes of a stiff plate.  Each pass takes the
    Rayleigh quotient and residual from the last iterate's 80-bit ``K w``
    and ``M w`` and applies a float64 correction solve with a slightly
    offset shift (K - 0.99 lam M is nearly singular on purpose: that is
    what makes the correction an inverse-iteration step).
    K and M must be the banded Hermite matrices (half-bandwidth 3): only
    their 7 diagonals are converted to long double, once, and each iterate
    costs one ``_extended_residual``, i.e. two band products of O(7 ndof).

    A pair whose first residual is already under ``0.5 *
    EIG_RESIDUAL_TOL``, the loop's own stopping point, is returned as it
    came: a correction could only lower a residual the gate accepts.

    Returns ``(residual, lam, w)`` of the iterate with the smallest
    residual, the residual being ``eig_residual(K, M, lam, w)``.
    """
    Kb, Mb = _band(K, _HALF_BANDWIDTH), _band(M, _HALF_BANDWIDTH)
    score, wl, Kw, Mw = _extended_residual(Kb, Mb, lam, w)
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
    """
    if n_max < n_min:
        raise DomainError(f"n_max ({n_max}) must be >= n_min ({n_min})")
    disc = disc or Discretization()
    modes = []
    harmonics = range(n_min, n_max + 1)
    for n, (K, M, nodes) in zip(harmonics,
                                _harmonic_matrices(plate, disc, harmonics)):
        Kc, Mc = K[2:, 2:], M[2:, 2:]
        # equilibrate: slope DOFs carry 1/length units, rescale before solving
        s = np.ones(Kc.shape[0])
        s[1::2] = float(np.mean(np.diff(nodes)))
        S = np.outer(s, s)
        try:
            evals, evecs = _lowest_eigenpairs(Kc * S, Mc * S,
                                              min(modes_per_n, Kc.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigensolver failed to converge",
                                 harmonic=n, radial_nodes=disc.radial_nodes) from exc
        for k in range(evals.size):
            lam = evals[k]
            if lam <= 0.0:
                raise NumericalError(f"non-positive eigenvalue {lam:.3e}",
                                     harmonic=n, radial_nodes=disc.radial_nodes)
            w = s * evecs[:, k]
            w = w / np.sqrt(w @ Mc @ w)
            resid, lam, w = _polish_eigenpair(Kc, Mc, lam, w)
            if resid > EIG_RESIDUAL_TOL:
                raise NumericalError(
                    f"eigenpair residual {resid:.3e} above tolerance (the float64 "
                    f"storage floor rises with mesh density; try fewer radial nodes)",
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
    once, so a cos/sin pair shares one block of ``r W dW/dr`` lines.
    """
    lines = [f"# statorlab radial profiles, provenance {basis.provenance}",
             f"# modes {len(basis)}  radial_nodes {basis.discretization.radial_nodes}"]
    radii, blocks = {}, {}
    for m in basis:
        mesh = m.radial_nodes.tobytes()
        if mesh not in radii:
            radii[mesh] = [repr(r) for r in m.radial_nodes.tolist()]
        key = (mesh, m.radial_values.tobytes(), m.radial_slopes.tobytes())
        if key not in blocks:
            blocks[key] = "\n".join(
                f"{r} {v!r} {s!r}" for r, v, s in zip(
                    radii[mesh], m.radial_values.tolist(), m.radial_slopes.tolist()))
        lines.append(f"mode n={m.n} orientation={m.orientation} family={m.family} "
                     f"frequency_hz={m.frequency!r} boundary={_BOUNDARY}")
        lines.append("r_m W dW_dr")
        lines.append(blocks[key])
        lines.append("")
    return "\n".join(lines) + "\n"
