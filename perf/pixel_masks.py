"""The `RasterMask` of a geometry built through the public `segdial.mask`
names, shared by the "through pixels" references of `test_scoring.py` and
`test_transforms.py`.

A `RasterMask` is a view of a `geometry.Bitset` cut to its box, so these
names run the same geometry kernels as the Bitset path beside them; what a
"through pixels" benchmark adds is the cost of the view (cutting each
Bitset to its box and placing it back), not a second implementation.
"""

from segdial.geometry import Rle
from segdial.mask import mask_union, rasterize, rle_decode


def mask_of(geometry, width, height):
    """The `RasterMask` of one geometry: an rle decoded, or polygons rasterized and united."""
    if isinstance(geometry, Rle):
        return rle_decode(geometry)
    return mask_union([rasterize(poly, width, height) for poly in geometry])
