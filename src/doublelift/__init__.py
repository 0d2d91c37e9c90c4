"""Finite double categories lifted from decorated bicategories.

Table-backed monoids, categories, strict bicategories and double
categories, the Grothendieck-style lifting of a decorated bicategory along
a monoidal pre-cosheaf, and the structural analysis of the result: globular
generation, vertical length, foldings and the extraction adjunction.
"""

__version__ = "0.1.0"
