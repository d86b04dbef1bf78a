import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3bench import lattice
from su3bench.lattice import AlignedBuffer, DIRECTIONS, Lattice4D, SiteBuffer


def test_site_index_is_x_fastest():
    lat = Lattice4D(4, 4, 4, 4)
    assert lat.site_index((0, 0, 0, 0)) == 0
    assert lat.site_index((1, 0, 0, 0)) == 1
    assert lat.site_index((0, 1, 0, 0)) == 4
    assert lat.site_index((0, 0, 1, 0)) == 16
    assert lat.site_index((0, 0, 0, 1)) == 64
    assert lat.site_index((1, 1, 0, 0)) == 5
    assert lat.site_coord(5) == (1, 1, 0, 0)


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (4, 4, 4, 4), (8, 4, 4, 4), (2, 3, 4, 5)])
def test_index_coord_bijection(dims):
    lat = Lattice4D.from_dims(dims)
    seen = set()
    for s in range(lat.volume):
        coord = lat.site_coord(s)
        assert lat.site_index(coord) == s
        seen.add(coord)
    assert len(seen) == lat.volume


@given(
    dims=st.tuples(*[st.integers(1, 6)] * 4),
    data=st.data(),
)
def test_bijection_property(dims, data):
    lat = Lattice4D.from_dims(dims)
    s = data.draw(st.integers(0, lat.volume - 1))
    assert lat.site_index(lat.site_coord(s)) == s


def test_neighbor_wraps_at_boundary():
    lat = Lattice4D(4, 4, 4, 4)
    edge = lat.site_index((3, 0, 0, 0))
    assert lat.neighbor(edge, "+x") == lat.site_index((0, 0, 0, 0))
    assert lat.neighbor(0, "-x") == edge
    assert lat.neighbor(0, "+t") == lat.site_index((0, 0, 0, 1))
    assert lat.neighbor(0, "-t") == lat.site_index((0, 0, 0, 3))


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (4, 4, 4, 4), (8, 4, 4, 4), (2, 3, 4, 5)])
def test_neighbor_round_trip_every_site(dims):
    lat = Lattice4D.from_dims(dims)
    for s in range(lat.volume):
        for d in DIRECTIONS:
            opposite = ("-" if d[0] == "+" else "+") + d[1]
            assert lat.neighbor(lat.neighbor(s, d), opposite) == s


def test_eight_distinct_neighbors_when_dims_allow():
    lat = Lattice4D(4, 4, 4, 4)
    for s in range(lat.volume):
        hood = {lat.neighbor(s, d) for d in DIRECTIONS}
        assert len(hood) == 8 and s not in hood


def test_neighbor_map_is_permutation():
    lat = Lattice4D(2, 3, 4, 5)
    for d in DIRECTIONS:
        image = sorted(lat.neighbor(s, d) for s in range(lat.volume))
        assert image == list(range(lat.volume))


def test_bad_inputs_rejected():
    lat = Lattice4D(4, 4, 4, 4)
    with pytest.raises(ValueError):
        lat.neighbor(0, "+w")
    with pytest.raises(ValueError):
        lat.site_index((4, 0, 0, 0))
    with pytest.raises(ValueError):
        lat.site_coord(lat.volume)
    with pytest.raises(ValueError):
        Lattice4D(0, 4, 4, 4)
    with pytest.raises((TypeError, ValueError)):
        Lattice4D(4.5, 4, 4, 4)
    with pytest.raises(ValueError):
        Lattice4D.from_dims((4, 4, 4))
    # Refused, not truncated (2.7 -> 2) or parsed ('3' -> 3): the lattice
    # would not be the one asked for. A numpy integer is an integer.
    for dims in ((2.7, 1, 1, 1), ("3", 1, 1, 1), (2, 2, 2, 2.0), 4):
        with pytest.raises(ValueError, match="integers"):
            Lattice4D.from_dims(dims)
    assert Lattice4D.from_dims(np.array([2, 3, 4, 5])).dims == (2, 3, 4, 5)


def test_indexing_refuses_non_integers():
    # Refused, as from_dims refuses float extents: 0.5 is no site, and
    # site_coord(1.5) used to return (1.5, 0.0, 0.0, 0.0).
    lat = Lattice4D(4, 4, 4, 4)
    for coord in ((0.5, 0, 0, 0), (0, 0, 0, 1.0), ("1", 0, 0, 0)):
        with pytest.raises(ValueError, match="integers"):
            lat.site_index(coord)
    for index in (1.5, 2.0, "3", np.float64(1)):
        with pytest.raises(ValueError, match="integers"):
            lat.site_coord(index)
        with pytest.raises(ValueError, match="integers"):
            lat.neighbor(index, "+x")
    assert lat.site_index(tuple(np.int64(c) for c in (1, 2, 3, 0))) == 1 + 4 * (2 + 4 * 3)
    assert lat.site_coord(np.int32(5)) == (1, 1, 0, 0)
    assert lat.neighbor(np.int64(3), "+x") == 0


def test_dims_and_volume():
    lat = Lattice4D(2, 3, 4, 5)
    assert lat.dims == (2, 3, 4, 5)
    assert lat.volume == 120


def test_aligned_buffer_alignment_holds():
    rng = np.random.default_rng(42)
    for _ in range(100):
        nbytes = int(rng.integers(1, 4096))
        alignment = int(rng.choice([8, 16, 32, 64, 128]))
        buf = AlignedBuffer(nbytes, alignment)
        assert buf.address % alignment == 0


def test_aligned_view_shape_dtype_and_zero_fill():
    buf = AlignedBuffer(3 * 2 * 8, 16)
    arr = buf.view(np.float64, (3, 2))
    assert arr.shape == (3, 2) and arr.dtype == np.float64
    assert not arr.any()
    arr[...] = 7.0
    again = buf.view(np.float64, (3, 2))
    assert np.all(again == 7.0)  # same storage, not a copy


def test_view_too_large_rejected():
    buf = AlignedBuffer(16, 16)
    with pytest.raises(ValueError):
        buf.view(np.float64, (3,))


def test_unaligned_view_breaks_eight_byte_alignment():
    buf = AlignedBuffer(256, 16)
    crooked = buf.unaligned_view(np.float64, (4,))
    addr = crooked.__array_interface__["data"][0]
    assert addr % 8 == lattice.UNALIGNED_OFFSET
    assert addr % 8 != 0


def test_unaligned_view_offset_rules():
    buf = AlignedBuffer(64, 16)
    with pytest.raises(ValueError):
        buf.unaligned_view(np.float64, (2,), offset=0)
    with pytest.raises(ValueError):
        buf.unaligned_view(np.float64, (2,), offset=8)
    buf_tight = AlignedBuffer(64, 16, spare=0)
    with pytest.raises(ValueError):
        buf_tight.unaligned_view(np.float64, (2,))


def test_alignment_must_be_power_of_two_at_least_eight():
    for bad in (0, 4, 12, -16):
        with pytest.raises(ValueError):
            AlignedBuffer(64, bad)


def test_site_buffer_layout(precision):
    lat = Lattice4D(2, 2, 2, 2)
    sb = SiteBuffer(lat, {"links": "mat4", "src": "vec"}, precision=precision)
    assert sb["links"].shape == (16, 4, 3, 3, 2)
    assert sb["src"].shape == (16, 3, 2)
    for name in ("links", "src"):
        assert sb[name].__array_interface__["data"][0] % lattice.DEFAULT_ALIGNMENT == 0


def test_site_buffer_unaligned_mode():
    lat = Lattice4D(2, 2, 2, 2)
    sb = SiteBuffer(lat, {"src": "vec"}, aligned=False)
    addr = sb["src"].__array_interface__["data"][0]
    assert addr % 8 != 0


def test_site_buffer_randomize_is_seeded():
    lat = Lattice4D(2, 2, 2, 2)
    one = SiteBuffer(lat, {"a": "vec", "b": "mat"})
    two = SiteBuffer(lat, {"a": "vec", "b": "mat"})
    one.randomize(31)
    two.randomize(31)
    assert np.array_equal(one["a"], two["a"])
    assert np.array_equal(one["b"], two["b"])
    assert np.abs(one["a"]).max() <= 1.0


def test_site_buffer_rejects_unknown_kind():
    lat = Lattice4D(2, 2, 2, 2)
    with pytest.raises(ValueError):
        SiteBuffer(lat, {"a": "tensor"})
