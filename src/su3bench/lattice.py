"""Aligned storage and site indexing for a periodic 4d lattice.

Sites are numbered lexicographically with x fastest:

    index = x + nx * (y + ny * (z + nz * t))

Fields are stored site-major: one contiguous array per field, all components
of a site's value adjacent. Alignment is made explicit by over-allocating a
byte buffer and offsetting to the requested boundary, since library
allocators only promise their own default.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .types import OPERAND_SHAPES, dtype_for

DIRECTIONS = ("+x", "-x", "+y", "-y", "+z", "-z", "+t", "-t")
_AXES = {"x": 0, "y": 1, "z": 2, "t": 3}

DEFAULT_ALIGNMENT = 16
UNALIGNED_OFFSET = 4  # bytes; breaks 8-byte alignment without crossing an element


def _integers(values, what: str) -> tuple[int, ...]:
    """`values` as Python ints, numpy integers included; a float or a
    string is refused, not truncated or parsed."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


class AlignedBuffer:
    """A byte buffer whose payload starts on an `alignment`-byte boundary.

    `spare` extra bytes follow the payload so deliberately misaligned views
    can shift into them.
    """

    __slots__ = ("alignment", "nbytes", "spare", "_raw", "_offset")

    def __init__(self, nbytes: int, alignment: int = DEFAULT_ALIGNMENT, spare: int = 8):
        if not isinstance(alignment, int) or alignment < 8 or alignment & (alignment - 1):
            raise ValueError(f"alignment must be a power of two >= 8, got {alignment!r}")
        if nbytes < 0 or spare < 0:
            raise ValueError("nbytes and spare must be nonnegative")
        self.alignment = alignment
        self.nbytes = int(nbytes)
        self.spare = int(spare)
        self._raw = np.zeros(self.nbytes + alignment + self.spare, dtype=np.uint8)
        self._offset = (-self._raw.ctypes.data) % alignment

    @property
    def address(self) -> int:
        return self._raw.ctypes.data + self._offset

    def view(self, dtype, shape) -> np.ndarray:
        """The payload as an array starting at the aligned base."""
        return self._view_at(self._offset, dtype, shape)

    def unaligned_view(self, dtype, shape, offset: int = UNALIGNED_OFFSET) -> np.ndarray:
        """The payload shifted `offset` bytes into the spare region.

        The resulting base address is not 8-byte aligned, which is the point.
        """
        if offset <= 0 or offset % 8 == 0:
            raise ValueError(f"offset must be positive and not a multiple of 8, got {offset}")
        if offset > self.spare:
            raise ValueError(f"insufficient slack: offset {offset} exceeds spare bytes {self.spare}")
        return self._view_at(self._offset + offset, dtype, shape)

    def _view_at(self, start: int, dtype, shape) -> np.ndarray:
        dt = np.dtype(dtype)
        if isinstance(shape, int):
            shape = (shape,)
        needed = math.prod(shape) * dt.itemsize
        if needed > self.nbytes:
            raise ValueError(f"view needs {needed} bytes, buffer payload holds {self.nbytes}")
        return np.ndarray(shape, dtype=dt, buffer=self._raw.data, offset=start)


@dataclass(frozen=True)
class Lattice4D:
    """Periodic 4d site geometry with x-fastest lexicographic numbering."""

    nx: int
    ny: int
    nz: int
    nt: int

    def __post_init__(self) -> None:
        for name, n in zip("nx ny nz nt".split(), self.dims):
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")

    @classmethod
    def from_dims(cls, dims) -> "Lattice4D":
        """The lattice of four integer extents (see `_integers`)."""
        dims = _integers(dims, "lattice dims")
        if len(dims) != 4:
            raise ValueError(f"expected four dimensions, got {dims}")
        return cls(*dims)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.nx, self.ny, self.nz, self.nt)

    @property
    def volume(self) -> int:
        return self.nx * self.ny * self.nz * self.nt

    def site_index(self, coord) -> int:
        x, y, z, t = _integers(coord, "coordinate")
        for c, n in zip((x, y, z, t), self.dims):
            if not 0 <= c < n:
                raise ValueError(f"coordinate {coord} outside lattice {self.dims}")
        return x + self.nx * (y + self.ny * (z + self.nz * t))

    def site_coord(self, index: int) -> tuple[int, int, int, int]:
        (index,) = _integers((index,), "site index")
        if not 0 <= index < self.volume:
            raise ValueError(f"site index {index} outside volume {self.volume}")
        x = index % self.nx
        rest = index // self.nx
        y = rest % self.ny
        rest //= self.ny
        z = rest % self.nz
        t = rest // self.nz
        return (x, y, z, t)

    def neighbor(self, index: int, direction: str) -> int:
        """Site one step along '+x' .. '-t', wrapping periodically."""
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}; expected one of {DIRECTIONS}")
        axis = _AXES[direction[1]]
        step = 1 if direction[0] == "+" else -1
        coord = list(self.site_coord(index))
        coord[axis] = (coord[axis] + step) % self.dims[axis]
        return self.site_index(coord)


class SiteBuffer:
    """Site-major field storage for one lattice, aligned or deliberately not.

    `fields` maps field names to operand kinds ('vec', 'mat', 'mat4', ...);
    each field lives in its own DEFAULT_ALIGNMENT-byte aligned buffer as a
    (volume,) + kind-shape array. With aligned=False every field view is
    shifted four bytes so its base address breaks 8-byte alignment, holding
    data and layout fixed while only the boundary changes. Streaming
    `bench.run` lays its operand and result fields out here.
    """

    def __init__(
        self,
        lattice: Lattice4D,
        fields: dict[str, str],
        precision: str = "double",
        aligned: bool = True,
    ):
        dt = dtype_for(precision)
        self.lattice = lattice
        self.precision = precision
        self.aligned = bool(aligned)
        self.kinds = dict(fields)
        self._buffers: dict[str, AlignedBuffer] = {}
        self.arrays: dict[str, np.ndarray] = {}
        for name, kind in fields.items():
            if kind not in OPERAND_SHAPES:
                raise ValueError(f"unknown field kind {kind!r} for field {name!r}")
            shape = (lattice.volume,) + OPERAND_SHAPES[kind]
            buf = AlignedBuffer(math.prod(shape) * dt.itemsize)
            self._buffers[name] = buf
            self.arrays[name] = buf.view(dt, shape) if self.aligned else buf.unaligned_view(dt, shape)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def randomize(self, seed: int) -> None:
        """Fill every field with components uniform in [-1, 1], field order fixed."""
        rng = np.random.default_rng(seed)
        for name in sorted(self.arrays):
            arr = self.arrays[name]
            arr[...] = rng.uniform(-1.0, 1.0, size=arr.shape)
