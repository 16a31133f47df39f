"""Field-level research strength scoreboards.

Computes, from researcher rosters, publications, and citation counts:
highly cited articles by year and subject category, fractional author
scores, outlier-based top-scientist detection, two cost-normalized field
strength indicators, and the derived rankings, correlations, quadrant
classifications, and report tables.

Importing the package loads none of its modules; import the one you need
(fieldstrength.ingest for load_corpus, for example), so that a tool that
only generates corpora with fieldstrength.synth does not load the engine.
"""

__version__ = "0.1.0"
