"""Low-latency microwave network design (the paper's §6 takeaways).

The paper closes with design lessons for future low-latency terrestrial
networks (and cites the cISP proposal, which designs budget-constrained
microwave backbones):

* engineer towards high APA using redundant MW links close to the
  shortest path;
* link lengths trade cost (fewer towers) against reliability;
* run lower frequencies on alternate paths when the trunk needs
  higher-bandwidth bands.

This subpackage turns those lessons into an executable design pipeline:

1. :mod:`repro.design.sites` — a candidate tower-site pool along a
   corridor, with scarcer/pricier sites near the geodesic (mimicking the
   tower-site competition of §1);
2. :mod:`repro.design.trunk` — a resource-constrained shortest path
   (latency objective, site-cost budget) over the pool, with hop lengths
   bounded by the radio link budget;
3. :mod:`repro.design.redundancy` — greedy APA augmentation: spend the
   remaining budget on the bypasses with the best marginal APA per cost,
   carrying low-band channels;
4. :mod:`repro.design.evaluate` — package a design as an
   :class:`~repro.core.network.HftNetwork` and score it with the same
   metrics the paper applies to the real networks (latency, APA, storm
   survival).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.design.sites": ("CandidateSite", "generate_site_pool"),
        "repro.design.trunk": ("TrunkDesign", "design_trunk"),
        "repro.design.redundancy": ("augment_with_bypasses",),
        "repro.design.evaluate": (
            "DesignReport",
            "NetworkDesign",
            "evaluate_design",
        ),
    },
)
