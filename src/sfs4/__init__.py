"""Exact classification of Seifert fibered spaces against embedding in S^4.

The package is organized bottom-up:

* ``rationals``: rationals as integer pairs, negative continued fractions
* ``seifert``: the data model, normalization, expansion and contraction
* ``homology``: first homology two ways (closed formula and SNF oracle)
* ``plumbing``: star-shaped plumbing graphs and intersection forms
* ``partitions``: the partition obstruction and extremal family recognition
* ``lattice``: embeddings into the diagonal lattice and the pair test
* ``mubar``: spin structures and the Neumann-Siebenmann invariant
* ``classify``: the decision pipeline with replayable certificates
* ``pretzel``: odd pretzel knots and doubly slice classification
* ``cli``: the command line front end
"""

from .classify import classify
from .homology import h1_formula, h1_oracle
from .pretzel import OddPretzel, doubly_slice_classify
from .seifert import SeifertData, StandardForm, normalize

__all__ = [
    "SeifertData",
    "StandardForm",
    "normalize",
    "classify",
    "h1_formula",
    "h1_oracle",
    "OddPretzel",
    "doubly_slice_classify",
]
