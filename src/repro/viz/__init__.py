"""Visualisation and figure-data export.

The original tool visualised reconstructed networks with the Google Maps
API (Fig 3); we render equivalent corridor maps as standalone SVG and
export GeoJSON for any GIS tool.  :mod:`repro.viz.figdata` writes the
plot-ready data series behind every figure (gnuplot-style ``.dat``).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.viz.geojson": ("network_to_geojson",),
        "repro.viz.svgmap": ("render_network_svg",),
        "repro.viz.figdata": ("write_cdf_dat", "write_series_dat"),
    },
)
