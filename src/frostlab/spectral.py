"""Frequency-side machinery: uniform grids, Fourier transforms of weighted
atomic measures, dyadic cutoffs, and scaling-law fits.

Transform convention: F(xi) = sum_i f(x_i) w_i exp(-2 pi i x_i . xi), i.e. the
transform of the measure f dmu with frequencies in cycles per unit length.
Grid frequencies are the FFT frequencies k/(2L) for a box [-L, L]^d, natural
(DC-first) FFT ordering throughout.

Two evaluation paths feed the same contract:

* exact binning when every atom sits on the spatial lattice (grid-backed
  measures are built that way on purpose), and
* spreading otherwise: each atom is scattered onto a 2x oversampled grid with
  the "exponential of semicircle" kernel exp(beta (sqrt(1 - z^2) - 1)) over
  14 fine cells per axis, the grid is transformed, and the kernel's own
  transform (Gauss-Legendre quadrature) is divided out.  The result agrees
  with the direct sum, which stays available as the oracle
  (`direct_fourier`), to within 1e-11 of the largest transform modulus.

The spread depends on the atom positions and the fine grid, not on the
strengths f w.  So it is built as a sparse (block, atoms) matrix, the
plan, whose column i holds atom i's 14^d kernel values, at the second
transform at the same positions, and each later one is one sparse product
(positions fixed once, strengths many, as in FINUFFT).  The first
transform at new positions spreads directly, with the same bits, and
records only the positions and rows: a run that transforms once never
builds a plan nor loads scipy.sparse.  The block is the fine grid on the
rows of each leading axis that some atom reaches.  The module keeps the
last positions, their rows and plan, keyed on the fine grid size, the
dimension and an exact copy of the torus positions (x + L) / 2L, compared
element by element: a change of atoms, box or grid starts afresh.  A plan
costs 12 bytes per kernel value, 12 * 14^d bytes per atom; one is kept
only up to 2^22 values (about 48 MB), and larger problems spread each
transform afresh.

Every transform stage is one 1-d numpy.fft call (rfft, fft, ifft,
irfft), run along the axes in the order scipy.fft's n-d transforms use.
Both libraries run the same pocketfft 1-d transforms, so the results
have scipy.fft's bits.  f is real, so both routes transform a real grid
with rfftn's 1-d transforms in rfftn's order, and so with its bits, but
only what is read (_transform): the grid is built on its occupied rows,
a row of zeros is not transformed, and of the fine grid only the central
modes are kept.
On the lattice every row is kept, so the stages run in the buffer that
is returned, and a 3-d half lattice peaks at about one half lattice.
`Spectrum`, which the operators go through, keeps the half lattice of
that real transform and evaluates each radial multiplier on a 1-d table of
the radii sqrt(K2) * freq_step, K2 = |k|^2 an integer, gathered by K2.
The keys K2 are built slab by slab from the 1-d arrays k^2 of each axis
(_key_slabs), never as a table of the lattice.  `measure_fourier` reads
the full lattice from the same real spectrum.

The inverse (_inverse) is irfftn's, bit for bit, in one complex buffer of
the half lattice's shape: the n real outputs of a last-axis line fit in
the n/2 + 1 complex values they come from (FFTW's in-place real layout,
Frigo & Johnson, Proc. IEEE 93, 2005), and the products and the real
lines are formed slab by slab.  A reused spectrum inverts into a fresh
buffer; an operator that applies one profile inverts in the spectrum's
own memory, so a 256^3 field costs one half lattice, not three.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, DomainError, FitError, ParameterError, ResourceError
from .fitting import FitReport, line_fit
from .measures import DiscreteMeasure, _check_end, _read_exact

# memory guards: plain fields cap at 2^24 values, a 134 MB float64 field
# whose binned transform and inverse both run in one 135 MB half lattice
# (_transform, _inverse); the oversampled spreading grid caps at 2^25
# (268 MB real, then its spectrum); the 5 GB sandbox allows no more
_MAX_FIELD_VALUES = 2**24
_MAX_SPREAD_VALUES = 2**25

# the ES spreader reaches _ES_NS fine cells per axis at 2x oversampling with
# beta = 2.30 ns (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41,
# 2019); ns = 14 keeps one atom in d = 3 within 1e-11, where ns = 13 reaches
# 1.35e-11.  A chunk of atoms scatters about _SPREAD_CHUNK_POINTS kernel
# values, a working set that stays in cache.  A plan is filled in chunks of
# _PLAN_CHUNK_POINTS: it is built after a first transform has freed its
# buffers, and 2^17-value chunks then raised the peak RSS of the benchmark's
# witness loop (Python 3.11, glibc, 2-core x86-64) from 87.0 to 88.9 MB
_ES_NS = 14
_ES_BETA = 2.30 * _ES_NS
_SPREAD_CHUNK_POINTS = 2**17
_PLAN_CHUNK_POINTS = 2**15

# a spread plan (see _spread) is kept only up to this many kernel values,
# 12 bytes each: 2^22 is about 48 MB
_SPREAD_PLAN_ENTRIES = 2**22

# _inverse forms the product and the real lines in slabs along axis 0 of
# about this many complex values (512 KB), so each slab's keys, gathered
# table and irfft output stay in L2 cache; _key_slabs builds keys in slabs
# of this many.  2^18 made pointwise_limit_fit 5-25% slower
_INVERSE_SLAB = 2**15

# _transform's binned stages before the last run on chunks of about this
# many complex values (64 KB) beside the final buffer they fill: with 2^15
# a 64^3 spherical_average peaked at 1.36 half lattices, with 2^12 at 1.25
_STAGE_CHUNK = 2**12


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid on [-L, L]^dim with n_per_axis points per axis.

    Spatial pitch is 2L/n; the frequency lattice is fftfreq(n, d=pitch) in
    cycles per unit, so the largest resolved frequency is freq_max = n/(4L).
    """

    dim: int
    n_per_axis: int
    box_half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ParameterError(f"dim must be 1, 2 or 3, got {self.dim}")
        n = self.n_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ParameterError(f"n_per_axis must be a power of two >= 8, got {n}")
        if not 0 < self.box_half_width < math.inf:
            raise ParameterError("box_half_width must be positive and finite")
        if n**self.dim > _MAX_FIELD_VALUES:
            raise ResourceError(
                f"{n}^{self.dim} grid values exceed the cap {_MAX_FIELD_VALUES}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.box_half_width / self.n_per_axis

    @property
    def freq_step(self) -> float:
        return 1.0 / (2.0 * self.box_half_width)

    @property
    def freq_max(self) -> float:
        return self.n_per_axis / (4.0 * self.box_half_width)

    def axis_freqs(self) -> np.ndarray:
        return np.fft.fftfreq(self.n_per_axis, d=self.spacing)

    def freq_radii(self) -> np.ndarray:
        """|xi| over the full lattice, float64: _radius_table gathered by
        the keys of the full lattice, slab by slab (_key_slabs), so no
        integer table of the lattice is made.

        The radius table is built afresh, not cached: a decay fit reads it
        once per field, and a cached table allocated after a transform's
        large temporaries pins the heap above them (glibc malloc: 38 MB
        more peak RSS for a 128^3 transform and fit, then the quadrature
        oracle)."""
        radii = _radius_table.__wrapped__(self)
        out = np.empty((self.n_per_axis,) * self.dim)
        for s, keys in _key_slabs(self, full=True):
            out[s] = radii[keys]
        return out

    def space_axis(self) -> np.ndarray:
        return -self.box_half_width + self.spacing * np.arange(self.n_per_axis)


@dataclass
class Field:
    """Values on a spectral grid, in space or frequency representation.

    Frequency-side values are complex128.  Space-side values are float64,
    from Spectrum.apply and every operator."""

    grid: SpectralGrid
    values: np.ndarray
    rep: str  # "freq" | "space"

    def __post_init__(self):
        n = self.grid.n_per_axis
        if self.values.shape != (n,) * self.grid.dim:
            raise ParameterError("field shape does not match grid")
        if self.rep not in ("freq", "space"):
            raise ParameterError(f"rep must be 'freq' or 'space', got {self.rep!r}")


# ---- atom -> grid transforms ----

def _atom_values(f, mu: DiscreteMeasure) -> np.ndarray:
    if f is None:
        return np.ones(mu.n_atoms)
    if callable(f):
        vals = np.asarray(f(mu.atoms))
    else:
        vals = np.asarray(f)
    if np.iscomplexobj(vals):
        raise ParameterError(
            "f must be real; transform its real and imaginary parts separately")
    if vals.shape != (mu.n_atoms,):
        raise ParameterError("f must give one value per atom")
    if not np.all(np.isfinite(vals)):
        raise ParameterError("f takes non-finite values on the atoms")
    return vals


def direct_fourier(f, mu: DiscreteMeasure, xi_points) -> np.ndarray:
    """Direct nonuniform sum at arbitrary frequencies: the oracle path.

    xi_points: (m, dim).  Cost is O(m * atoms); use for spot checks only.
    """
    xi = np.atleast_2d(np.asarray(xi_points, dtype=np.float64))
    if xi.shape[1] != mu.dim:
        raise ParameterError("frequency points must match the measure dimension")
    c = _atom_values(f, mu) * mu.weights
    out = np.empty(xi.shape[0], dtype=np.complex128)
    step = max(1, int(2_000_000 // max(mu.n_atoms, 1)))
    for i0 in range(0, xi.shape[0], step):
        phase = xi[i0:i0 + step] @ mu.atoms.T
        out[i0:i0 + step] = np.exp(-2j * np.pi * phase) @ c
    return out


def _check_in_box(mu: DiscreteMeasure, grid: SpectralGrid):
    L = grid.box_half_width
    if mu.dim != grid.dim:
        raise ParameterError("measure and grid dimensions differ")
    if np.any(mu.atoms < -L) or np.any(mu.atoms >= L):
        raise DomainError("measure support must lie inside [-L, L) of the grid box")


def _lattice_indices(mu: DiscreteMeasure, grid: SpectralGrid):
    """Integer lattice coordinates when every atom is within 1e-12 cells of
    a grid node, else None.  Binning moves such an atom onto its node, a
    phase error of at most 2 pi freq_max 1e-12 dx = pi 1e-12: the transform
    moves by at most pi 1e-12 sum |f w|, which is max |F| for f w >= 0,
    below the spread route's 1e-11.  An atom just below L rounds to node n,
    which is node 0 of the periodic lattice the transform sees."""
    scaled = (mu.atoms + grid.box_half_width) / grid.spacing
    idx = np.round(scaled)
    if np.max(np.abs(scaled - idx)) > 1e-12:
        return None
    return idx.astype(np.int64) % grid.n_per_axis


def _es_kernel(z: np.ndarray) -> np.ndarray:
    """The ES kernel exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1."""
    return np.exp(_ES_BETA * (np.sqrt(np.maximum(1.0 - z * z, 0.0)) - 1.0))


# Gauss-Legendre nodes on (0, 1) for the kernel's cosine transform
# phi_hat(s) = sum_q _ES_QUAD_W[q] cos(s _ES_QUAD_Z[q]), kernel values folded
# into the weights; 2 + 3 ns / 2 nodes reach roundoff for every s <= pi ns / 4
_gl_z, _gl_w = np.polynomial.legendre.leggauss(2 * (2 + 3 * _ES_NS // 2))
_ES_QUAD_Z = _gl_z[_gl_z > 0]
_ES_QUAD_W = 2.0 * _gl_w[_gl_z > 0] * _es_kernel(_ES_QUAD_Z)
del _gl_z, _gl_w


def _row_tables(occupied: tuple, size: int) -> list:
    """Per axis of the size^dim grid, the table from grid row to row of the
    occupied block: the rows `occupied` of each leading axis are numbered in
    order (-1 elsewhere), and the last axis is kept whole."""
    tables = []
    for rows in occupied:
        table = np.full(size, -1, dtype=np.int64)
        table[rows] = np.arange(rows.size)
        tables.append(table)
    return tables + [np.arange(size)]


def _block_shape(occupied: tuple, size: int) -> tuple:
    return tuple(rows.size for rows in occupied) + (size,)


def _es_first(s: np.ndarray) -> np.ndarray:
    """First of the _ES_NS fine nodes an atom at fine-grid coordinate s
    reaches, as a float."""
    return np.ceil(s - _ES_NS / 2)


def _es_chunks(u: np.ndarray, n_fine: int, occupied: tuple, points: int):
    """Yield (i0, rows, weights) for consecutive chunks of the torus
    positions u in [0, 1)^dim, of about `points` kernel values each: row
    b of rows and weights holds the flat indices, in the block of the
    occupied rows, of the _ES_NS^dim nodes of the n_fine^dim grid that
    atom i0 + b reaches (within _ES_NS / 2 fine cells per axis) and its
    kernel values there."""
    ns, dim = _ES_NS, u.shape[1]
    steps = np.arange(ns)
    tables = _row_tables(occupied, n_fine)
    shape = _block_shape(occupied, n_fine)
    chunk = max(1, points // ns**dim)
    for i0 in range(0, u.shape[0], chunk):
        s = u[i0:i0 + chunk] * n_fine
        first = _es_first(s)
        b = s.shape[0]
        wt = np.ones((b, 1))
        rows = np.zeros((b, 1), dtype=np.int64)
        for a, table in enumerate(tables):
            # node offsets from the atom in kernel half-widths, |z| <= 1
            z = (first[:, a, None] + steps - s[:, a, None]) / (ns / 2)
            idx = table[(first[:, a].astype(np.int64)[:, None] + steps) % n_fine]
            wt = (wt[:, :, None] * _es_kernel(z)[:, None, :]).reshape(b, -1)
            rows = (rows[:, :, None] * shape[a] + idx[:, None, :]).reshape(b, -1)
        yield i0, rows, wt


def _spread_rows(u: np.ndarray, n_fine: int) -> tuple:
    """For each leading axis of the n_fine^dim grid, the sorted rows that
    some atom at the torus positions u reaches: the union of the _ES_NS
    rows of each, mod n_fine, as _es_chunks places them."""
    rows = []
    for a in range(u.shape[1] - 1):
        first = np.unique(_es_first(u[:, a] * n_fine)).astype(np.int64)
        hit = np.zeros(n_fine, dtype=bool)
        hit[(first[:, None] + np.arange(_ES_NS)) % n_fine] = True
        rows.append(np.flatnonzero(hit))
    return tuple(rows)


def _spread_es(c: np.ndarray, u: np.ndarray, n_fine: int,
               occupied: tuple) -> np.ndarray:
    """Scatter strengths c at torus positions u in [0, 1)^dim onto the
    block of the occupied rows of the n_fine^dim grid, one chunk of atoms
    at a time."""
    shape = _block_shape(occupied, n_fine)
    total = np.zeros(math.prod(shape))
    for i0, rows, wt in _es_chunks(u, n_fine, occupied, _SPREAD_CHUNK_POINTS):
        np.add.at(total, rows.ravel(), (wt * c[i0:i0 + len(wt), None]).ravel())
    return total.reshape(shape)


def _spread_plan(u: np.ndarray, n_fine: int, occupied: tuple) -> scipy.sparse.csc_matrix:
    """The spread as a (block, atoms) matrix: column i holds atom i's
    kernel values, so plan @ c equals _spread_es(c, u, ...) flattened.
    Filled chunk by chunk into preallocated arrays, so no chunk's int64
    rows outlive it."""
    import scipy.sparse

    per_atom = _ES_NS**u.shape[1]
    n_atoms = u.shape[0]
    data = np.empty(n_atoms * per_atom)
    indices = np.empty(n_atoms * per_atom, dtype=np.int32)
    for i0, rows, wt in _es_chunks(u, n_fine, occupied, _PLAN_CHUNK_POINTS):
        span = slice(i0 * per_atom, (i0 + len(wt)) * per_atom)
        data[span] = wt.ravel()
        indices[span] = rows.ravel()
    indptr = np.arange(0, (n_atoms + 1) * per_atom, per_atom, dtype=np.int32)
    return scipy.sparse.csc_matrix(
        (data, indices, indptr),
        shape=(math.prod(_block_shape(occupied, n_fine)), n_atoms))


# the last positions spread, as (n_fine, dim, u, occupied, plan), plan None
# until they come back: transforming many strength vectors at one set of
# positions (opnorm's witnesses) builds the kernel values only twice
_plan_cache = None


def _spread(c: np.ndarray, u: np.ndarray, n_fine: int, dim: int) -> tuple:
    """The block of _spread_es(c, u, n_fine, ...) on the rows that the atoms
    reach, and those rows (_spread_rows).  When the plan fits in
    _SPREAD_PLAN_ENTRIES, the rows are kept for these exact positions, and
    the plan is built at the second transform at them: the product has
    _spread_es's bits, since both add each atom's kernel values in the
    same order."""
    global _plan_cache
    if u.shape[0] * _ES_NS**dim > _SPREAD_PLAN_ENTRIES:
        occupied = _spread_rows(u, n_fine)
        return _spread_es(c, u, n_fine, occupied), occupied
    hit = (_plan_cache is not None and _plan_cache[:2] == (n_fine, dim)
           and np.array_equal(_plan_cache[2], u))
    if not hit:
        _plan_cache = None  # free the old plan before spreading again
        occupied = _spread_rows(u, n_fine)
        for rows in occupied:
            rows.setflags(write=False)  # one array serves every later caller
        _plan_cache = (n_fine, dim, u.copy(), occupied, None)
        return _spread_es(c, u, n_fine, occupied), occupied
    occupied, plan = _plan_cache[3:]
    if plan is None:
        plan = _spread_plan(u, n_fine, occupied)
        _plan_cache = _plan_cache[:4] + (plan,)
    return (plan @ c).reshape(_block_shape(occupied, n_fine)), occupied


def _es_transform(k: np.ndarray, n_fine: int) -> np.ndarray:
    """n_fine psi_hat(k) for the integer modes k: psi_hat is the continuous
    transform of the kernel at the fine pitch, (ns / 2) phi_hat(pi k ns / n_fine)."""
    return 0.5 * _ES_NS * (
        np.cos(np.outer(k * (math.pi * _ES_NS / n_fine), _ES_QUAD_Z)) @ _ES_QUAD_W)


@lru_cache(maxsize=8)
def _mode_factors(grid: SpectralGrid, half: bool, spread: bool) -> tuple:
    """Per-axis factors of the modes in _transform's layouts, shaped to
    broadcast along their axis: on the full lattice (not half) the sign
    (-1)^k that moves the origin from the box corner -L to 0, and for
    spread modes the division by the ES kernel's transform."""
    n, d = grid.n_per_axis, grid.dim
    k = np.fft.fftfreq(n, d=1.0 / n)
    factors = []
    for a in range(d):
        modes = np.arange(n // 2 + 1.0) if half and a == d - 1 else k
        sign = np.ones(modes.size) if half else 1.0 - 2.0 * (modes.astype(np.int64) % 2)
        factor = sign / _es_transform(modes, 2 * n) if spread else sign
        factor = factor.reshape((-1,) + (1,) * (d - a - 1))
        factor.setflags(write=False)  # one array serves every later caller
        factors.append(factor)
    return tuple(factors)


def _real_block(c: np.ndarray, mu: DiscreteMeasure, grid: SpectralGrid) -> tuple:
    """The real N^d grid of the strengths c at the atoms of mu, built only
    on the rows that hold data: (block, occupied), where occupied gives the
    sorted rows of each leading axis and block holds the grid on those rows
    and the whole last axis.

    Atoms on grid nodes (_lattice_indices) are binned onto the n^d lattice
    (N = n); others are spread with the ES kernel onto the 2n^d fine grid
    (N = 2n)."""
    n, d = grid.n_per_axis, grid.dim
    lattice = _lattice_indices(mu, grid)
    if lattice is None:
        if (2 * n)**d > _MAX_SPREAD_VALUES:
            raise ResourceError(
                "oversampled spreading grid too large; align atoms to the lattice "
                "or use a coarser grid")
        u = (mu.atoms + grid.box_half_width) / (2.0 * grid.box_half_width)
        return _spread(c, u, 2 * n, d)
    occupied = tuple(np.flatnonzero(np.bincount(lattice[:, a], minlength=n))
                     for a in range(d - 1))
    shape = _block_shape(occupied, n)
    flat = 0
    for a, table in enumerate(_row_tables(occupied, n)):
        flat = flat * shape[a] + table[lattice[:, a]]
    values = np.bincount(flat, weights=c, minlength=math.prod(shape))
    return values.reshape(shape), occupied


def _transform(c: np.ndarray, mu: DiscreteMeasure, grid: SpectralGrid,
               half: bool) -> np.ndarray:
    """Transform of the real strengths c at the atoms of mu, in FFT order.

    The real N^d grid (_real_block: N = n binned, 2n spread) is transformed
    as rfftn does it, by rfft along the last axis, then fft along axes 0,
    1, ..., d-2 in that order, so every value read has rfftn's bits, signed
    zeros included.  The transform is pruned to what is read: the grid is
    built on its occupied rows only and scattered into all N rows just
    before an axis's fft (rows of zeros are not transformed: they hold what
    a grid of zeros would), the last axis keeps its columns 0..n/2, and once
    an axis is done only its rows read below are kept.  On the spread grid
    the kernel's transform is divided out of those central modes.

    Binned, an axis keeps all its rows, so the output is allocated once:
    a stage before the last is written into it in chunks
    (_stage_into_final), the rows no atom occupies are filled with what a
    row of zeros holds, and the last leading axis is transformed in place.
    The spread route's stages drop half their rows (2n -> n), and each
    makes a new array of the rows it keeps.

    half=True gives the half lattice, whose last axis holds the modes
    0..n/2, with the origin left at the box corner -L: the sign (-1)^k that
    moves it to 0 would cancel against the one of the inverse.  half=False
    gives measure_fourier's full lattice: last-axis modes 0..n/2-1 directly,
    and -n/2..-1 as conj F(-k), read at rows (-k) mod N of the grid.  That
    is exact, not a mirror of the central half lattice, because the fine
    grid holds +n/2 on every axis and the binned lattice is periodic.
    """
    n, d, h = grid.n_per_axis, grid.dim, grid.n_per_axis // 2
    values, occupied = _real_block(c, mu, grid)
    size = values.shape[-1]  # N
    spread = size != n
    # mode k of a leading axis sits at row k mod N: the binned lattice keeps
    # every row, the fine grid the rows k mod 2n, and for the full
    # lattice's conj F(-k) also row +n/2, kept after them
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    keep = None
    if spread:
        keep = k % size if half else np.append(k % size, h)
    spec = np.fft.rfft(values, axis=-1)[..., :h + 1]
    del values
    for a, rows in enumerate(occupied):
        # what a row of zeros holds before axis a, signed zeros as rfftn
        # leaves them: the same transforms of a grid of zeros, one row wide
        # on the axes not yet transformed
        if a == 0:
            empty = np.fft.rfft(np.zeros((1,) * (d - 1) + (size,)))[..., :h + 1]
        else:
            shape = empty.shape[:a - 1] + (size,) + empty.shape[a:]
            empty = _fft_kept(np.broadcast_to(empty, shape), a - 1, keep)
        if rows.size == size:
            spec = _fft_kept(spec, a, keep)
            continue
        if keep is None and a < d - 2:
            # binned, so this stage (axis 0 of 3) keeps all its rows: it is
            # written into the final buffer, on the occupied rows of axis 1
            spec = _stage_into_final(spec, rows, occupied[1], empty, size)
            continue
        if spec.shape[a] < size:  # else _stage_into_final widened it
            full = np.empty(spec.shape[:a] + (size,) + spec.shape[a + 1:],
                            dtype=np.complex128)
            full[(slice(None),) * a + (rows,)] = spec
            spec = full
        free = np.ones(size, dtype=bool)
        free[rows] = False
        spec[(slice(None),) * a + (free,)] = empty
        spec = _fft_kept(spec, a, keep)
    if half and not spread:
        return spec
    if half:
        central = np.ascontiguousarray(spec)  # a copy of the kept columns in d = 1
    else:
        # -k mod n is the position of row (-k) mod N among the kept rows,
        # but for k = -n/2: on the fine grid its row +n/2 was kept last
        mirror = -k % n
        if spread:
            mirror[h] = n
        central = np.empty((n,) * d, dtype=np.complex128)
        central[..., :h] = spec[(slice(n),) * (d - 1) + (slice(h),)]
        np.conjugate(spec[..., h:0:-1][np.ix_(*[mirror] * (d - 1))],
                     out=central[..., h:])
    for factor in _mode_factors(grid, half, spread):
        central *= factor
    return central


def _stage_into_final(spec: np.ndarray, rows: np.ndarray, nxt: np.ndarray,
                      empty: np.ndarray, size: int) -> np.ndarray:
    """_transform's fft along axis 0 of a binned 3-d grid, written into a
    new buffer with all size rows of axes 0 and 1.  spec holds the occupied
    rows of both axes: rows of axis 0, nxt of axis 1.  The fft runs on
    chunks of about _STAGE_CHUNK values along axis 1, each scattered among
    rows of zeros (empty) first, and each lands on its rows nxt of the
    buffer.  The other rows of axis 1 are left for the next stage to
    fill."""
    out = np.empty((size, size) + spec.shape[2:], dtype=np.complex128)
    step = max(1, _STAGE_CHUNK * size // out.size)
    for j0 in range(0, nxt.size, step):
        part = spec[:, j0:j0 + step]
        chunk = np.empty((size,) + part.shape[1:], dtype=np.complex128)
        chunk[...] = empty
        chunk[rows] = part
        out[:, nxt[j0:j0 + step]] = _fft_kept(chunk, 0, None)
    return out


def _fft_kept(x: np.ndarray, axis: int, keep) -> np.ndarray:
    """The fft of x along axis, written into x unless x is read-only (a
    broadcast row of zeros), then the rows keep of that axis (None:
    all)."""
    x = np.fft.fft(x, axis=axis, out=x if x.flags.writeable else None)
    return x if keep is None else np.take(x, keep, axis=axis)


def measure_fourier(f, mu: DiscreteMeasure, grid: SpectralGrid) -> Field:
    """Fourier transform of f dmu sampled on the grid's frequency lattice.

    f may be None (constant 1), a callable on the atom array, or a per-atom
    value array.  Atoms within 1e-12 cells of the spatial lattice are
    binned, which moves each by at most 1e-12 dx: a phase error of at most
    pi * 1e-12, so at most pi * 1e-12 sum |f w| in the transform (its
    largest modulus for f >= 0).  Otherwise an exponential-of-semicircle
    spreader with 14 points per axis and 2x oversampling evaluates the same
    sum to within 1e-11 of the largest transform modulus.  Measured worst cases: 1.4e-12
    for one atom in d = 3, where the errors of the three axes add up, and
    7e-13 on 300-atom fixtures with signed f.
    """
    _check_in_box(mu, grid)
    c = _atom_values(f, mu) * mu.weights
    return Field(grid, _transform(c, mu, grid, False), "freq")


def _key_slabs(grid: SpectralGrid, full: bool = False):
    """Yield (s, keys): the integer keys of |xi| on rows s of axis 0 of the
    rfftn half lattice (full: of the full lattice), int32, in slabs of
    about _INVERSE_SLAB keys.  Each slab is built from 1-d arrays, so no
    table of the whole lattice is made.

    For d >= 2 the key is K2 = |k|^2 in integer modes, k0^2[s] + k1^2 +
    ... + last^2, which covers most of 0..d (n/2)^2 (_radius_table).  In
    d = 1 it is |k|, since k^2 would use n/2 + 1 of its (n/2)^2 + 1
    entries."""
    n, d = grid.n_per_axis, grid.dim
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n).astype(np.int32))
    last = k if full else np.arange(n // 2 + 1, dtype=np.int32)
    if d == 1:
        head, tail = last, np.zeros((), dtype=np.int32)
    else:
        head, tail = k**2, last**2
        for _ in range(d - 2):
            tail = (k**2).reshape((n,) + (1,) * tail.ndim) + tail
    step = max(1, _INVERSE_SLAB // tail.size)
    for i0 in range(0, head.size, step):
        s = slice(i0, i0 + step)
        yield s, head[s].reshape((-1,) + (1,) * tail.ndim) + tail


# one grid only, for a loop over one grid such as opnorm's witnesses: a
# table takes 8 bytes per key, 67 MB at 4096^2, and rebuilding it cost a
# 256^2 spherical_average about 7% of its time
@lru_cache(maxsize=1)
def _radius_table(grid: SpectralGrid) -> np.ndarray:
    """|xi| at each key of _key_slabs, read-only: sqrt(K2) * freq_step for
    K2 in 0..d (n/2)^2, or |k| * freq_step in d = 1."""
    h = grid.n_per_axis // 2
    if grid.dim == 1:
        radii = np.arange(h + 1) * grid.freq_step
    else:
        radii = np.sqrt(np.arange(grid.dim * h * h + 1)) * grid.freq_step
    radii.setflags(write=False)  # one array serves every later caller
    return radii


@lru_cache(maxsize=8)
def _occurring_keys(grid: SpectralGrid) -> np.ndarray:
    """The keys that some point of the half lattice has: at 256^2 about
    6000 of the 32769 values of K2."""
    hit = np.zeros(_radius_table(grid).size, dtype=bool)
    for _, keys in _key_slabs(grid):
        hit[keys] = True
    where = np.flatnonzero(hit)
    where.setflags(write=False)  # one array serves every later caller
    return where


def _inverse(half: np.ndarray, grid: SpectralGrid, table: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """irfftn of half * table[K2] on the grid's (n,)*d lattice, K2 the
    keys of _key_slabs, bit for bit, written into x: a C-contiguous
    complex buffer of half's shape, half itself to run in its memory.
    Returns the float64 (n,)*d view of x.

    In the stages irfftn runs: the product, formed slab by slab along axis
    0 with each slab's keys, so no full-size gather or key table is built;
    an unnormalised complex inverse along axes 0, 1, ..., d-2, each
    written into x (numpy.fft's out=x); then the real inverse of the last
    axis, slab by slab, each slab's lines scaled by 1/n^d into the front
    of x.  A real line takes n values, its complex line n + 2, so real
    lines i0:i1 end before complex line i1 starts: no value is written
    before it is read.  Each value is scaled once, after
    its last stage, which keeps subnormal bits."""
    n, d = grid.n_per_axis, grid.dim
    for s, keys in _key_slabs(grid):
        np.multiply(half[s], table[keys], out=x[s])
    del keys  # the last slab's, not to be held through the stages below
    for a in range(d - 1):
        np.fft.ifft(x, axis=a, norm="forward", out=x)
    lines = x.reshape(-1, x.shape[-1])
    real = x.reshape(-1).view(np.float64)[:lines.shape[0] * n].reshape(-1, n)
    step = max(1, _INVERSE_SLAB // lines.shape[1])
    for i0 in range(0, lines.shape[0], step):
        s = slice(i0, i0 + step)
        np.multiply(np.fft.irfft(lines[s], n=n, norm="forward"), 1.0 / n**d,
                    out=real[s])
    return real.reshape((n,) * d)


# the last table of _apply_in_place, as (grid, profile, table): an operator
# applied to many strength vectors on one grid (opnorm's witnesses through
# spherical_average, whose profile objects are cached) evaluates its
# profile once.  It holds the profile, so `is` cannot match a new object
# at a reused address
_table_memo = None


class Spectrum:
    """The transform of f dmu on a grid, kept as the rfftn half lattice.

    Every frequency-side operator is one real radial multiplier applied to
    this transform, then inverted (apply) or reduced to an energy (energy).
    Both take the multiplier as a profile, a callable of |xi|, evaluate it
    once on a 1-d table of radii (sqrt(K2) * freq_step for every integer
    K2 = |k|^2 up to the largest; in d = 1, |k| * freq_step) and gather it
    over the lattice.  A profile that is not finite at some grid frequency
    is a ConfigError on the multiplier: singular multipliers carry their
    own finite origin value, as riesz_multiplier does.

    Real f dmu has a Hermitian transform, so the half lattice (last axis
    0..n/2) holds all of it.  The transform keeps its origin at the box
    corner, because the sign (-1)^k that measure_fourier applies cancels
    in the inverse.  energy counts each half-lattice point for itself and
    its mirror -k.

    The half lattice differs from measure_fourier's on the Nyquist planes
    only: it has the mode +n/2 where that has -n/2, and the real inverse
    keeps only the Hermitian part of the last axis's Nyquist column.  A
    binned transform is the same at +n/2 and -n/2.  A spread one is not,
    so there apply and energy differ from the full-lattice route by what
    the profile leaves on those planes: roundoff for every multiplier
    damped by the mollifier.

    apply leaves the half lattice as it was, so one spectrum serves many
    profiles.  An operator that applies one profile calls _apply_in_place,
    which inverts in the half lattice's own memory and spends the
    spectrum: using it again is a ParameterError.
    """

    def __init__(self, f, mu: DiscreteMeasure, grid: SpectralGrid):
        _check_in_box(mu, grid)
        self.grid = grid
        self._half = _transform(_atom_values(f, mu) * mu.weights, mu, grid, True)
        self._radii = _radius_table(grid)

    def _check_live(self) -> None:
        if self._half is None:
            raise ParameterError("this Spectrum was inverted in its own memory "
                                 "and holds no transform; build a new one")

    def _table(self, profile) -> np.ndarray:
        self._check_live()
        # the profile is evaluated only at radii that some grid frequency
        # has; the rest of the table stays 0 and is never gathered
        where = _occurring_keys(self.grid)
        table = np.zeros(self._radii.size)
        table[where] = profile(self._radii[where])
        bad = ~np.isfinite(table)
        singular = int(self._multiplicity[bad].sum()) if bad.any() else 0
        if singular:
            raise ConfigError("multiplier", f"singular at {singular} grid frequencies; "
                              "give the origin a finite mean")
        return table

    def _lattice_hist(self, values) -> np.ndarray:
        """Sum over the full lattice of values(s), the float64 values on
        rows s of axis 0 of the half lattice, binned by radius.  The
        last-axis columns 1..n/2-1 stand for two points each, so each
        slab is doubled there in place.  The slabs accumulate in lattice
        order, so the sums have the bits of one bincount of the lattice."""
        h = self.grid.n_per_axis // 2
        twice = np.full(h + 1, 2.0)
        twice[[0, h]] = 1.0
        hist = np.zeros(self._radii.size)
        for s, keys in _key_slabs(self.grid):
            slab = values(s)
            slab *= twice[s] if self.grid.dim == 1 else twice
            # flat: add.at is 4x slower on an n-d index at 1024^2
            np.add.at(hist, keys.ravel(), slab.ravel())
        return hist

    @cached_property
    def _multiplicity(self) -> np.ndarray:
        """Number of full-lattice points at each radius of the table."""
        return self._lattice_hist(lambda s: np.ones(self._half[s].shape))

    @cached_property
    def _power(self) -> np.ndarray:
        self._check_live()
        return self._lattice_hist(
            lambda s: self._half[s].real**2 + self._half[s].imag**2)

    def _inverse_table(self, profile) -> np.ndarray:
        g = self.grid
        return self._table(profile) * (g.n_per_axis * g.freq_step) ** g.dim

    def apply(self, profile) -> Field:
        """Space-side field of the transform times profile(|xi|), in
        float64: irfftn's result bit for bit, subnormals included.

        It is inverted in one fresh complex buffer of the half lattice's
        shape, and the field is that buffer's float64 view (_inverse): the
        peak is about one half lattice beyond the spectrum.  The keys that
        gather the profile's table are built per slab, so no key table of
        the lattice is held."""
        table = self._inverse_table(profile)
        values = _inverse(self._half, self.grid, table, np.empty_like(self._half))
        return Field(self.grid, values, "space")

    def _apply_in_place(self, profile) -> Field:
        """apply, inverted in the half lattice's own memory, for a caller
        that applies one profile: it allocates no field, and the spectrum
        is spent.

        The table of the last profile object on the last grid is kept
        (_table_memo), and the same object on that grid reuses it, so a
        profile passed here must be a fixed function of |xi|."""
        global _table_memo
        self._check_live()
        memo = _table_memo
        if memo is None or memo[1] is not profile or memo[0] != self.grid:
            _table_memo = memo = None  # free the old table first
            memo = (self.grid, profile, self._inverse_table(profile))
            memo[2].setflags(write=False)  # one array serves every later caller
            _table_memo = memo
        table = memo[2]
        half, self._half = self._half, None
        values = _inverse(half, self.grid, table, half)
        return Field(self.grid, values, "space")

    def energy(self, profile) -> float:
        """Riemann sum of |transform|^2 * profile(|xi|) over the frequency
        lattice."""
        g = self.grid
        return float(self._power @ self._table(profile)) * g.freq_step ** g.dim


def field_l2sq(field: Field) -> float:
    """Riemann-sum L^2 norm squared in the field's own representation."""
    g = field.grid
    cell = (g.freq_step if field.rep == "freq" else g.spacing) ** g.dim
    return float(np.sum(np.abs(field.values) ** 2) * cell)


def field_at_points(field: Field, points) -> np.ndarray:
    """Multilinear interpolation of a space-side field at arbitrary points."""
    if field.rep != "space":
        raise ParameterError("field_at_points expects a space-side field")
    g = field.grid
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[1] != g.dim:
        raise ParameterError("points must match the grid dimension")
    x = (pts + g.box_half_width) / g.spacing
    if not np.all((0 <= x) & (x <= g.n_per_axis - 1)):
        raise DomainError(
            "interpolation points must lie in [-L, L - dx] = "
            f"[{-g.box_half_width!r}, {g.box_half_width - g.spacing!r}] per axis")
    lo = np.floor(x).astype(np.int64)
    lo = np.minimum(lo, g.n_per_axis - 2)
    frac = x - lo
    # a real field samples to real values
    out = np.zeros(pts.shape[0], dtype=np.result_type(field.values, np.float64))
    for corner in range(2**g.dim):
        bits = [(corner >> a) & 1 for a in range(g.dim)]
        weight = np.ones(pts.shape[0])
        idx = []
        for a, b in enumerate(bits):
            weight = weight * (frac[:, a] if b else 1.0 - frac[:, a])
            idx.append(lo[:, a] + b)
        out += weight * field.values[tuple(idx)]
    return out


# ---- smooth cutoffs ----

_CHI_LO = 1.5
_CHI_HI = 2.0


def _smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) blend between."""
    t = np.asarray(t, dtype=float)
    num = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    den = num + np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return num / den


def lowpass_chi(r):
    """Smooth radial step: 1 on [0, 1.5], 0 on [2, inf)."""
    r = np.asarray(r, dtype=float)
    return 1.0 - _smooth_step((r - _CHI_LO) / (_CHI_HI - _CHI_LO))


def annulus_beta(r):
    """Dyadic annulus profile chi(r) - chi(2r): support [0.75, 2], 1 on [1, 1.5].

    Built so that chi + sum_{j>=1} beta(2^-j r) telescopes to exactly 1.
    """
    r = np.asarray(r, dtype=float)
    return lowpass_chi(r) - lowpass_chi(2.0 * r)


def mollifier_hat(rho):
    """Transform of the unit Gaussian mollifier: exp(-2 pi^2 rho^2), value 1 at 0."""
    rho = np.asarray(rho, dtype=float)
    return np.exp(-2.0 * np.pi**2 * rho**2)


def lowpass_phi_hat(rho):
    """Nonnegative low-pass with nonnegative spatial profile.

    exp(-36 rho^2) = (exp(-18 rho^2))^2, the squared transform of a Gaussian
    mollifier; below machine epsilon outside the unit ball.
    """
    rho = np.asarray(rho, dtype=float)
    return np.exp(-36.0 * rho**2)


def partition_residual(grid: SpectralGrid) -> float:
    """max over grid frequencies of |chi + sum_j beta(2^-j .) - 1|."""
    radii = _radius_table(grid)[_occurring_keys(grid)]
    j_max = max(1, int(math.ceil(math.log2(max(grid.freq_max, 1.0) / _CHI_LO))) + 1)
    total = lowpass_chi(radii)
    for j in range(1, j_max + 1):
        total = total + annulus_beta(radii * 2.0**-j)
    return float(np.max(np.abs(total - 1.0)))


# ---- scaling-law fits ----

def decay_fit(field: Field) -> FitReport:
    """Fit the max modulus over dyadic shells 2^m <= |xi| < 2^(m+1).

    Returns the log-log line fit; the decay exponent estimate is -slope.
    """
    if field.rep != "freq":
        raise ParameterError("decay_fit expects a frequency-side field")
    radii = field.grid.freq_radii()
    m_max = int(math.floor(math.log2(field.grid.freq_max)))  # 2^(m+1) <= freq_max
    log_r, log_peak = [], []
    mods = np.abs(field.values)
    for m in range(m_max):
        mask = (radii >= 2.0**m) & (radii < 2.0**(m + 1))
        if not np.any(mask):
            continue
        peak = float(mods[mask].max())
        if peak <= 0:
            continue
        log_r.append(m * math.log(2.0))
        log_peak.append(math.log(peak))
    if len(log_r) < 3:
        raise FitError("fewer than 3 usable dyadic shells for the decay fit")
    return line_fit(np.array(log_r), np.array(log_peak))


def strichartz_profile(f, mu: DiscreteMeasure, grid: SpectralGrid,
                       r_values, s: float) -> np.ndarray:
    """Localized-energy statistic r^-(d-s) * int_{|xi|<=r} |F|^2 for several r."""
    r_values = np.asarray(r_values, dtype=float)
    if np.any(r_values < 1):
        raise ParameterError("radii must be >= 1")
    if np.any(r_values > grid.freq_max):
        raise DomainError(f"radius beyond freq_max {grid.freq_max}")
    spec = Spectrum(f, mu, grid)
    return np.array([r ** -(grid.dim - s) * spec.energy(lambda rho: rho <= r)
                     for r in r_values])


# ---- serialization ----

# field format v2: magic, then dim, n, L, rep (0 freq, 1 space) and dtype
# (0 float64, 1 complex128), then the values in C order in that dtype
_FIELD_MAGIC = b"FFLD0002"
_FIELD_HEADER = struct.Struct("<IQdBB")
_FIELD_REPS = ("freq", "space")
_FIELD_DTYPES = (np.dtype("<f8"), np.dtype("<c16"))


def save_field_binary(field: Field, path) -> None:
    """The header, then the field's own values as little-endian float64 or
    complex128, whichever it holds."""
    g, code = field.grid, int(np.iscomplexobj(field.values))
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC + _FIELD_HEADER.pack(
            g.dim, g.n_per_axis, g.box_half_width, _FIELD_REPS.index(field.rep), code))
        fh.write(np.ascontiguousarray(field.values, dtype=_FIELD_DTYPES[code]))


def load_field_binary(path) -> Field:
    """Read a field written by save_field_binary, in the dtype it was
    written in."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _FIELD_MAGIC:
            raise ParameterError(f"{path}: bad magic {magic!r}")
        dim, n, L, rep, code = _FIELD_HEADER.unpack(
            _read_exact(fh, _FIELD_HEADER.size, path))
        if rep > 1 or code > 1:
            raise ParameterError(f"{path}: bad rep or dtype byte ({rep}, {code})")
        grid = SpectralGrid(dim=dim, n_per_axis=n, box_half_width=L)
        dtype = _FIELD_DTYPES[code]
        raw = _read_exact(fh, dtype.itemsize * n**dim, path)
        _check_end(fh, path)
    # one writable native copy of the read-only buffer
    values = np.frombuffer(raw, dtype=dtype).astype(dtype.type)
    return Field(grid, values.reshape((n,) * dim), _FIELD_REPS[rep])
