"""The two-kernel scalar aerial-image model."""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.geometry import Rect, Region
from repro.litho.raster import raster_to_region, rasterize
from repro.obs import get_registry, names
from repro.tech.technology import LithoSettings

# OpenBLAS runs a dgemm with m*n*k <= 2**18 on the calling thread (its
# multithreading threshold).  Every product the blur plans stays under
# this cap, so pooled workers never start BLAS threads that would fight
# each other for the cores.
_GEMM_CAP = 1 << 18
_BLOCK = 32  # output pixels per Toeplitz block


@functools.lru_cache(maxsize=32)
def _gaussian_band(sigma_px: float) -> tuple[np.ndarray, int]:
    """The ``_BLOCK x (_BLOCK + 2r)`` Toeplitz band of a Gaussian, and ``r``.

    Row ``i`` holds the taps at columns ``i .. i + 2r``: the taps of
    ``scipy.ndimage.gaussian_filter`` (truncate 4.0), built by the same
    expression.  The top-left ``b x (b + 2r)`` corner is the band of a
    ``b``-pixel block.  Read-only, so the cache can share it.
    """
    r = int(4.0 * sigma_px + 0.5)
    x = np.arange(-r, r + 1)
    taps = np.exp(-0.5 / (sigma_px * sigma_px) * x**2) if r else np.ones(1)
    taps = taps / taps.sum()
    band = np.zeros((_BLOCK, _BLOCK + 2 * r))
    for i in range(_BLOCK):
        band[i, i : i + 2 * r + 1] = taps
    band.setflags(write=False)
    return band, r


def _pass_plan(n_out: int, n_across: int, r: int) -> tuple[int, int]:
    """``(block, chunk)`` for one 1-D pass of radius ``r``.

    The pass computes ``n_out`` output pixels along its axis, for
    ``n_across`` lines.  Each product is ``block`` outputs from
    ``block + 2r`` inputs, over ``chunk`` lines, and its
    ``block * (block + 2r) * chunk`` is at most :data:`_GEMM_CAP`.
    """
    b = max(1, min(_BLOCK, n_out))
    while b > 1 and b * (b + 2 * r) > _GEMM_CAP:
        b //= 2
    c = max(1, _GEMM_CAP // (b * (b + 2 * r)))
    c = 1 << (c.bit_length() - 1)  # a power of two: measured faster than the quotient
    return b, max(1, min(c, n_across))


def _blocks(a: np.ndarray, counts: tuple[int, int], shape: tuple[int, int], step: tuple[int, int]):
    """A view of ``a`` as a grid of ``counts`` tiles of ``shape``, ``step`` apart."""
    s0, s1 = a.strides
    return as_strided(a, (*counts, *shape), (step[0] * s0, step[1] * s1, s0, s1))


def _gaussian_core(raster: np.ndarray, sigma_px: float, trim: int) -> np.ndarray:
    """``gaussian_filter(raster, sigma_px, mode="constant")`` over the
    core only: ``trim`` pixels in from every edge.

    Separable, one pass per axis.  Each pass is one ``np.matmul`` of the
    Toeplitz band over a strided grid of blocks of a zero-padded copy,
    so rows and columns outside the core are never computed.
    """
    band, r = _gaussian_band(sigma_px)
    h, w = raster.shape
    hc, wc = h - 2 * trim, w - 2 * trim
    if hc <= 0 or wc <= 0:
        return np.zeros((max(hc, 0), max(wc, 0)))
    bx, cy = _pass_plan(wc, hc, r)  # x pass: column blocks x row chunks
    nbx, ncy = -(-wc // bx), -(-hc // cy)
    cols = nbx * bx + 2 * r  # the columns the x pass reads
    by, cx = _pass_plan(hc, cols, r)  # y pass: row blocks x column chunks
    nby, ncx = -(-hc // by), -(-cols // cx)

    # src[i, j] = raster[o + i, o + j], zero outside the raster
    o = trim - r
    src = np.zeros((nby * by + 2 * r, ncx * cx))
    lo = max(o, 0)
    ye, xe = min(o + src.shape[0], h), min(o + src.shape[1], w)
    src[lo - o : ye - o, lo - o : xe - o] = raster[lo:ye, lo:xe]

    mid = np.empty((max(nby * by, ncy * cy), ncx * cx))
    mid[nby * by :] = 0.0  # rows the x pass reads below the y pass's output
    np.matmul(
        band[:by, : by + 2 * r],
        _blocks(src, (nby, ncx), (by + 2 * r, cx), (by, cx)),
        out=_blocks(mid, (nby, ncx), (by, cx), (by, cx)),
    )
    out = np.empty((ncy * cy, nbx * bx))
    np.matmul(
        _blocks(mid, (ncy, nbx), (cy, bx + 2 * r), (cy, bx)),
        band[:bx, : bx + 2 * r].T,
        out=_blocks(out, (ncy, nbx), (cy, bx), (cy, bx)),
    )
    return out[:hc, :wc]


class LithoModel:
    """Aerial-image simulator for a litho settings object.

    Intensity model::

        I = (1 + flare) * G[sigma](mask) - flare * G[flare_ratio * sigma](mask)

    where ``sigma`` combines the optical PSF width and defocus blur in
    quadrature.  A clear field prints at intensity 1.0; the printed
    contour is ``I * dose >= resist_threshold``.

    Each Gaussian is two banded matrix passes, one per axis, over the
    window's core only: the halo is read, never blurred and cropped.
    A pass is one ``np.matmul`` of a small block-Toeplitz band over row
    blocks x column chunks of the raster, and every product stays
    within the size OpenBLAS runs on the calling thread, so pooled
    workers never start BLAS threads that contend for the cores.  The
    images match ``gaussian_filter(mode="constant")`` plus crop to
    ~1e-15.
    """

    def __init__(
        self,
        settings: LithoSettings | None = None,
        flare: float = 0.35,
        flare_ratio: float = 3.0,
    ):
        self.settings = settings or LithoSettings()
        self.flare = flare
        self.flare_ratio = flare_ratio

    # -- derived quantities --------------------------------------------------
    def blur_sigma_nm(self, defocus_nm: float = 0.0) -> float:
        s0 = self.settings.psf_sigma_nm
        sd = self.settings.defocus_sigma_nm(defocus_nm)
        return math.hypot(s0, sd)

    def halo_nm(self, defocus_nm: float = 0.0) -> int:
        """Guard band needed around a simulation window: 2.5x the widest
        kernel (residual tail < 2% of the flare term)."""
        return int(math.ceil(2.5 * self.flare_ratio * self.blur_sigma_nm(defocus_nm)))

    def _halo_px(self, defocus_nm: float, grid: int) -> int:
        """The halo in whole pixels (rounded up to the pixel grid)."""
        return -(-self.halo_nm(defocus_nm) // grid)

    def _blur(self, raster: np.ndarray, sigma_px: float, trim: int) -> np.ndarray:
        """The intensity field over the core of a raster, ``trim`` pixels
        in from each edge: main PSF minus flare kernel."""
        main = _gaussian_core(raster, sigma_px, trim)
        wide = _gaussian_core(raster, sigma_px * self.flare_ratio, trim)
        return (1.0 + self.flare) * main - self.flare * wide

    # -- core simulation --------------------------------------------------------
    def aerial_image(
        self,
        mask: Region,
        window: Rect,
        defocus_nm: float = 0.0,
        grid: int | None = None,
    ) -> np.ndarray:
        """Aerial intensity over ``window``.

        The mask is rasterized over the window expanded by the optical
        halo so border effects are exact inside the window.
        """
        g = grid or self.settings.grid_nm
        trim = self._halo_px(defocus_nm, g)
        halo = trim * g
        big = Rect(window.x0 - halo, window.y0 - halo, window.x1 + halo, window.y1 + halo)
        raster = rasterize(mask, big, g)
        return self._blur(raster, self.blur_sigma_nm(defocus_nm) / g, trim)

    def print_image(
        self,
        mask: Region,
        window: Rect,
        dose: float = 1.0,
        defocus_nm: float = 0.0,
        grid: int | None = None,
    ) -> np.ndarray:
        """Boolean printed raster at the given process condition."""
        if dose <= 0:
            raise ValueError("dose must be positive")
        image = self.aerial_image(mask, window, defocus_nm, grid)
        return image * dose >= self.settings.resist_threshold

    def print_contour(
        self,
        mask: Region,
        window: Rect,
        dose: float = 1.0,
        defocus_nm: float = 0.0,
        grid: int | None = None,
    ) -> Region:
        """Printed geometry as a Region (pixel-resolution contour)."""
        g = grid or self.settings.grid_nm
        printed = self.print_image(mask, window, dose, defocus_nm, g)
        return raster_to_region(printed, window, g)

    def sim_cache(
        self,
        mask: Region,
        window: Rect,
        grid: int | None = None,
        defocus_hint: tuple[float, ...] | list[float] = (),
    ) -> "SimCache":
        """A :class:`SimCache` for repeated simulation of one window.

        ``defocus_hint`` lists the defocus values the caller intends to
        simulate, so the mask is rasterized exactly once, at the widest
        halo any of them needs.
        """
        return SimCache(self, mask, window, grid, defocus_hint)

    def measure_cd(
        self,
        mask: Region,
        cut,
        dose: float = 1.0,
        defocus_nm: float = 0.0,
        grid: int | None = None,
        reach_nm: int = 400,
    ) -> float:
        """Sub-pixel printed CD at a cutline (see litho.cd.subpixel_cd).

        Simulates a small strip window around the cut (``reach_nm`` each
        way along the cut direction) — cheap enough for dose/focus sweeps.
        """
        from repro.litho.cd import subpixel_cd

        g = grid or self.settings.grid_nm
        x, y = cut.at.x, cut.at.y
        if cut.horizontal:
            window = Rect(x - reach_nm, y - 4 * g, x + reach_nm, y + 4 * g)
        else:
            window = Rect(x - 4 * g, y - reach_nm, x + 4 * g, y + reach_nm)
        image = self.aerial_image(mask, window, defocus_nm, g)
        threshold = self.settings.resist_threshold / dose
        return subpixel_cd(image, window, g, cut, threshold)


class SimCache:
    """Unique-condition reuse for one (mask, window, grid) simulation.

    Process-corner and process-window sweeps re-simulate the same mask
    over the same window at many (dose, defocus) conditions, but the
    expensive work depends on far fewer degrees of freedom:

    * the mask raster depends only on the window and grid — the cache
      rasterizes once, at the widest halo requested, and serves every
      narrower halo as a centred slice (exact, because
      :func:`repro.litho.raster.rasterize` accumulates integer areas,
      making rasters slice-invariant across pixel-aligned windows);
    * the aerial image depends only on the blur sigma — ±defocus
      collapse under ``hypot``, so the cache blurs once per unique
      sigma;
    * dose only scales the resist threshold — thresholding a cached
      aerial image is nearly free.

    A five-corner sweep therefore costs 1 rasterization and 4 banded
    Gaussians instead of 5 and 10, and a 5x3 process-window grid costs 1
    and 6 instead of 15 and 30.  Each Gaussian is two small block-
    Toeplitz products over the window's core (see :class:`LithoModel`),
    sized to run on the calling thread.  Every result is bit-identical
    to the uncached :class:`LithoModel` methods, which blur the same
    raster through the same plan — asserted by the fast-path
    equivalence tests.
    """

    def __init__(
        self,
        model: LithoModel,
        mask: Region,
        window: Rect,
        grid: int | None = None,
        defocus_hint: tuple[float, ...] | list[float] = (),
    ):
        self.model = model
        self.mask = mask
        self.window = window
        self.grid = grid or model.settings.grid_nm
        self._raster: np.ndarray | None = None
        self._raster_halo_px = 0
        self._images: dict[float, np.ndarray] = {}  # blur sigma (nm) -> image
        if defocus_hint:
            self._raster_halo_px = max(
                model._halo_px(d, self.grid) for d in defocus_hint
            )

    def _raster_for(self, halo_px: int) -> np.ndarray:
        """The mask raster over the window expanded by ``halo_px`` pixels."""
        registry = get_registry()
        if self._raster is None or halo_px > self._raster_halo_px:
            g = self.grid
            halo = max(halo_px, self._raster_halo_px) * g
            w = self.window
            big = Rect(w.x0 - halo, w.y0 - halo, w.x1 + halo, w.y1 + halo)
            self._raster = rasterize(self.mask, big, g)
            self._raster_halo_px = halo // g
        else:
            registry.inc(names.SIM_RASTER_REUSE)
        trim = self._raster_halo_px - halo_px
        if trim == 0:
            return self._raster
        # exact thanks to integer-area rasterization (see raster.py)
        return self._raster[trim:-trim, trim:-trim]

    def aerial_image(self, defocus_nm: float = 0.0) -> np.ndarray:
        """Aerial intensity over the window; bit-identical to
        :meth:`LithoModel.aerial_image` at the same condition."""
        sigma = self.model.blur_sigma_nm(defocus_nm)
        image = self._images.get(sigma)
        if image is None:
            g = self.grid
            trim = self.model._halo_px(defocus_nm, g)
            image = self.model._blur(self._raster_for(trim), sigma / g, trim)
            self._images[sigma] = image
            get_registry().inc(names.SIM_BLUR_UNIQUE, 2)  # main + flare kernels
        return image

    def print_image(self, dose: float = 1.0, defocus_nm: float = 0.0) -> np.ndarray:
        """Boolean printed raster at the given process condition."""
        if dose <= 0:
            raise ValueError("dose must be positive")
        image = self.aerial_image(defocus_nm)
        return image * dose >= self.model.settings.resist_threshold

    def print_contour(self, dose: float = 1.0, defocus_nm: float = 0.0) -> Region:
        """Printed geometry as a Region (pixel-resolution contour)."""
        printed = self.print_image(dose, defocus_nm)
        return raster_to_region(printed, self.window, self.grid)


def simulate(
    mask: Region,
    window: Rect,
    settings: LithoSettings | None = None,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
) -> Region:
    """Convenience one-shot: printed contour of a mask region."""
    return LithoModel(settings).print_contour(mask, window, dose, defocus_nm)
